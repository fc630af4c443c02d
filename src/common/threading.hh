/**
 * @file
 * The repo's one and only threading primitive: parallelFor(), which
 * the simulation-sweep engine is built on, plus defaultJobs().
 *
 * Design rules (enforced by the lint-naked-thread check):
 *
 *  - No other file spawns std::thread or detaches anything; every
 *    worker lives inside one parallelFor() call and is joined before
 *    it returns or throws.
 *  - jobs <= 1 takes the exact serial path: the caller's thread runs
 *    the bodies in index order and no thread, lock or atomic is
 *    touched, so a single-job run is bit-identical to pre-threading
 *    code.
 *  - The first exception thrown by any body is captured and rethrown
 *    on the calling thread once every worker has joined; indices not
 *    yet started by then are skipped.
 *
 * Parallelism defaults come from defaultJobs(): the SPARSEADAPT_JOBS
 * environment variable when set, otherwise the hardware concurrency.
 */

#ifndef SADAPT_COMMON_THREADING_HH
#define SADAPT_COMMON_THREADING_HH

#include <cstddef>
#include <functional>

namespace sadapt {

/**
 * Worker count for parallel sweeps: SPARSEADAPT_JOBS when set (clamped
 * to [1, 256]; non-numeric values read as 1), otherwise
 * std::thread::hardware_concurrency() (at least 1).
 */
unsigned defaultJobs();

/**
 * Run body(i) for i in [0, n). With jobs <= 1 (or n <= 1) this is a
 * plain serial loop in increasing index order on the caller's thread —
 * the exact pre-threading code path. Otherwise min(jobs, n) worker
 * threads pull indices in increasing order from a shared counter, so
 * completion order is scheduling-dependent: anything needing a
 * deterministic result must write to a caller-owned slot per index and
 * merge after the call. The first exception is rethrown on the
 * caller's thread after every worker has joined (indices not yet
 * started by then are skipped).
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &body);

} // namespace sadapt

#endif // SADAPT_COMMON_THREADING_HH
