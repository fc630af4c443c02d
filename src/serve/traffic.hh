/**
 * @file
 * Deterministic multi-session traffic scripts for the control server.
 *
 * A traffic script is the serve-layer analogue of a bench dataset: an
 * ordered list of session arrivals, each naming a Table 5 dataset, a
 * kernel, an arrival tick and an epoch budget. Scripts are generated
 * from a seed (mixing the fig05 synthetic SpMSpV, fig08 real-world
 * SpMSpM and table6 graph SpMSpV workload families with seeded arrival
 * jitter) and round-trip through a one-line-per-session text format,
 * so a replayed script is bit-identical input no matter where it was
 * generated.
 */

#ifndef SADAPT_SERVE_TRAFFIC_HH
#define SADAPT_SERVE_TRAFFIC_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "adapt/workload.hh"
#include "common/status.hh"

namespace sadapt::serve {

/** One session arrival in a traffic script. */
struct SessionSpec
{
    std::uint64_t id = 0;      //!< dense 0-based arrival index
    std::string dataset;       //!< Table 5 dataset id, e.g. "P3"
    std::string kernel;        //!< "spmspv" or "spmspm"
    std::uint64_t arrivalTick = 0; //!< scheduling tick of admission
    std::size_t maxEpochs = 0; //!< epoch budget (0 = run to the end)
};

/** A full arrival script, in id order. */
struct TrafficScript
{
    std::vector<SessionSpec> sessions;
};

/**
 * Generate a deterministic script of `sessions` arrivals: the three
 * workload families are interleaved round-robin (fig05 synthetics,
 * fig08 SpMSpM real-world stand-ins, table6 SpMSpV stand-ins), with
 * per-session arrival jitter and epoch budgets drawn from one seeded
 * stream. Same (sessions, seed) -> same script, bit for bit.
 */
TrafficScript makeTrafficScript(std::size_t sessions,
                                std::uint64_t seed);

/** Serialize a script ("sadapt-traffic v1" ... "end"). */
std::string writeTrafficScript(const TrafficScript &script);

/** Parse a script; rejects unknown versions and malformed lines. */
[[nodiscard]] Result<TrafficScript> parseTrafficScript(std::istream &in);

/** parseTrafficScript() from a file path. */
[[nodiscard]] Result<TrafficScript>
readTrafficScriptFile(const std::string &path);

/**
 * Materialize one session's workload at a pinned dataset scale. This
 * mirrors the bench-suite builders (same matrix seed derivation, same
 * epoch-size scaling) but takes the scale explicitly instead of
 * reading the bench environment, so serve runs are reproducible under
 * any ambient SPARSEADAPT_BENCH_SCALE.
 */
Workload buildSessionWorkload(const SessionSpec &spec, double scale,
                              MemType l1_type = MemType::Cache);

/**
 * The script's session indices, estimated-largest workload first:
 * SpMSpM before SpMSpV (an SpMSpM trace is two orders of magnitude
 * longer per nonzero), then by the dataset's nonzero count, dataset
 * id and session id. It depends on which sessions a script holds, not
 * on the order they arrive in, so serve workers that claim sessions in
 * this order take the same wall time for any shuffle of the same
 * sessions. Every dataset must be a suite id (runServe() checks that
 * first).
 */
std::vector<std::size_t> largestFirst(const TrafficScript &script);

} // namespace sadapt::serve

#endif // SADAPT_SERVE_TRAFFIC_HH
