/**
 * @file
 * Reader for the machine-readable bench reports the harness writes
 * under bench_results/BENCH_<name>.json (bench/bench_common.hh,
 * BenchReport::write()). tools/bench_trend consumes these to track
 * host-side sweep performance across revisions and gate regressions
 * against a committed baseline.
 *
 * The parser accepts any JSON object with the BenchReport key set and
 * ignores unknown keys, so reports from older or newer harness
 * revisions stay readable as long as the core keys survive.
 */

#ifndef SADAPT_OBS_BENCH_JSON_HH
#define SADAPT_OBS_BENCH_JSON_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"

namespace sadapt::obs {

/** One (kernel, config) measurement from a bench report. */
struct BenchResultEntry
{
    std::string kernel;
    std::string config;
    double gflops = 0.0;
    double gflopsPerWatt = 0.0;
};

/** One parsed BENCH_<name>.json report. */
struct BenchRun
{
    std::string bench;
    std::string gitRev;

    /** Host provenance (never feeds back into simulation). */
    double hostWallSeconds = 0.0;
    double sweepWallSeconds = 0.0;
    std::uint64_t configsSimulated = 0;

    /** Scale knobs the run was measured at. */
    double scale = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t jobs = 0;

    /**
     * Trace pipeline provenance: the format replayed from and the
     * host seconds spent decoding it to the replay-ready form.
     * Reports predating the knob read as "columnar" — the format
     * every replay has used since the SoA engine landed.
     */
    std::string traceFormat = "columnar";
    double traceDecodeSeconds = 0.0;

    /**
     * Serve provenance (bench/serve_traffic only, zero elsewhere):
     * the traffic-script size and pinned serve dataset scale the run
     * replayed, and its throughput/latency figures. Like the scale
     * knobs, the first two gate comparability; the rest are the
     * trended measurements.
     */
    std::uint64_t serveSessions = 0;
    double serveScale = 0.0;
    double sessionsPerSecond = 0.0;
    double decisionP50Ms = 0.0;
    double decisionP99Ms = 0.0;
    double serveEpochsPerSecond = 0.0;

    /** Store provenance. */
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::string storePath;

    std::vector<BenchResultEntry> results;

    /** Where the report was read from (set by readBenchJsonFile). */
    std::string sourcePath;
};

/** Parse one bench report from JSON text. */
Result<BenchRun> parseBenchJson(std::string_view text);

/** Read and parse one BENCH_<name>.json file. */
Result<BenchRun> readBenchJsonFile(const std::string &path);

/**
 * Wall-clock figure of merit for trend comparisons: the accumulated
 * sweep seconds when the run recorded any (they exclude train-cache
 * warm-up and table printing), the whole-process wall time otherwise.
 */
double benchWallSeconds(const BenchRun &run);

/** Geometric mean of the positive gflops entries; 0 when none. */
double benchGeomeanGflops(const BenchRun &run);

/**
 * Index of the fastest run by benchWallSeconds() — the best-of-N rep.
 * Ties break toward the earlier index; SIZE_MAX when `runs` is empty.
 */
std::size_t bestRunIndex(const std::vector<BenchRun> &runs);

/**
 * Whether two runs measure the same thing: same bench name, same
 * scale knobs (scale and sample count), same trace format and — for
 * serve benches — the same traffic-script size and serve scale.
 * Comparing wall seconds across different scales — or across trace
 * pipelines with different decode cost profiles — is meaningless, so
 * bench_trend only trends and gates comparable runs.
 */
bool benchComparable(const BenchRun &a, const BenchRun &b);

} // namespace sadapt::obs

#endif // SADAPT_OBS_BENCH_JSON_HH
