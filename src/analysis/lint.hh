/**
 * @file
 * Token-based source lint for repo-specific C++ rules.
 *
 * The analysis lexer (analysis/lexer, no libclang dependency) strips
 * comments and literals; the lint checks its token stream for the
 * repo's rules:
 *
 *  - lint-banned-call: no rand()/srand()/time() in src/ — all
 *    randomness goes through common/rng (deterministic, seedable)
 *    and all timing through the simulated clock.
 *  - lint-naked-new: no naked new-expressions in src/; containers or
 *    std::make_unique own every allocation.
 *  - lint-naked-thread: no raw std::thread/jthread/async spawning and
 *    no detach() outside common/threading — parallelFor owns every
 *    worker thread (and joins it before returning), so sweeps stay
 *    deterministic and join-safe.
 *  - lint-float-eq: no ==/!= against floating-point literals in
 *    sim/ and adapt/, where cycle/energy arithmetic makes exact
 *    equality a latent bug.
 *  - lint-unchecked-status: a registry of Status/Result-returning
 *    functions whose value must not be discarded; catches the
 *    expression-statement pattern even in code paths the compiler's
 *    [[nodiscard]] does not reach (uninstantiated templates).
 *  - lint-store-raw-io: no raw file I/O (fopen/fwrite/FILE or the
 *    std fstream family) in store/ outside store/record_log — every
 *    byte of a store file must pass through the framed, CRC-guarded
 *    record writer, or crash-safety silently evaporates.
 *  - lint-process-control: no fork/vfork/exec-family/kill/waitpid/
 *    posix_spawn anywhere in the library — sweeps run in-process
 *    (jobs=N threads), so the library owns no child process; a stray
 *    fork duplicates open record-log buffers and threads mid-flight.
 *  - lint-trace-raw-mmap: no mmap/munmap/madvise/mremap/pread/pwrite
 *    anywhere — files are read through streams into owned memory, so
 *    every TraceView points into a Trace and no mapped bytes with a
 *    lifetime of their own exist.
 *  - lint-unordered-iter: no range-for over a name that the file, or
 *    its same-stem header, declares with an unordered_{map,set,
 *    multimap,multiset} type. Bucket order follows the insertion
 *    history, and jobs=N commits in request order, so no run-vs-run
 *    test can see an artifact written in that order.
 *  - lint-wallclock: no steady_clock/system_clock/
 *    high_resolution_clock and no clock_gettime()/gettimeofday()
 *    calls. A clock read that only steers control flow (a deadline)
 *    passes every run-vs-run test on an idle host; time comes from
 *    the simulated clock, and serve gets its clock injected
 *    (ServeOptions::nowNs).
 *
 * The other nondeterminism classes (mutable globals, thread ids,
 * pointer order, races) are left to the run-vs-run tests and TSan;
 * DESIGN.md §7 maps each class to the check that catches it.
 *
 * Findings are keyed by file:line relative to the lint root, so the
 * baseline file stays stable across checkouts.
 */

#ifndef SADAPT_ANALYSIS_LINT_HH
#define SADAPT_ANALYSIS_LINT_HH

#include <string>
#include <vector>

#include "analysis/finding.hh"

namespace sadapt::analysis {

/**
 * Lint one source buffer; `rel_path` scopes path-dependent rules.
 * `header` is the text of the same-stem header, whose unordered
 * container declarations count for lint-unordered-iter too.
 */
Report lintSource(const std::string &source, const std::string &rel_path,
                  const std::string &header = {});

/**
 * Lint one file on disk, reported relative to `root`. A .cc/.cpp
 * file is linted together with its same-stem .hh/.h, if one exists.
 */
Report lintFile(const std::string &path, const std::string &root);

/**
 * Recursively lint every .cc/.hh file under `dir`, reporting paths
 * relative to `root` (pass root == dir to lint a whole tree).
 */
Report lintTree(const std::string &dir, const std::string &root);

} // namespace sadapt::analysis

#endif // SADAPT_ANALYSIS_LINT_HH
