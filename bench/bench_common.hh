/**
 * @file
 * Shared infrastructure for the benchmark harness: scale knobs, a
 * cached trained predictor per (mode, L1 type), gain-table printing,
 * and CSV output under bench_results/.
 *
 * Environment knobs:
 *  - SPARSEADAPT_BENCH_SCALE  dataset scale factor (default 0.12; 1.0
 *    reproduces the paper's full Table 5 sizes but takes hours on one
 *    core).
 *  - SPARSEADAPT_SAMPLES      configurations sampled for the ideal /
 *    oracle schemes (default 24; paper's artifact uses 256).
 *  - SPARSEADAPT_JOBS         parallel replay workers for the config
 *    sweeps (default: all hardware threads). Results are identical
 *    for any value; only wall-clock time changes.
 *  - SPARSEADAPT_MODEL_DIR    cache directory for trained predictors
 *    (default bench_results/models).
 *  - SPARSEADAPT_JOURNAL      write the observability event journal
 *    of every control-loop run to this file.
 *  - SPARSEADAPT_METRICS      write the metrics registry snapshot to
 *    this file at bench exit.
 *  - SPARSEADAPT_STORE        persistent epoch-result store file: the
 *    config sweeps warm-start from it and checkpoint into it, so a
 *    re-run (or a run killed mid-sweep) replays only missing
 *    configurations. Results are bit-identical with or without it.
 *    When a store is open the bench also flushes it from a
 *    SIGTERM/SIGINT handler, so an interrupted run keeps every
 *    finished replay.
 *
 * SPARSEADAPT_JOBS plus SPARSEADAPT_STORE is the one way to run a
 * sweep in parallel and to resume a killed one: prefetchConfigs()
 * flushes the store at every batch boundary, and a rerun against the
 * same store replays only the configurations that were not flushed.
 */

#ifndef SADAPT_BENCH_BENCH_COMMON_HH
#define SADAPT_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "adapt/runner.hh"
#include "common/table.hh"
#include "obs/observer.hh"

namespace sadapt::bench {

/** Dataset scale factor from the environment. */
double datasetScale();

/** SpMSpV datasets tolerate a larger scale (traces are lighter). */
double spmspvScale();

/**
 * Build a suite SpMSpV workload (50%-dense random vector,
 * Section 6.1.1) at the bench scale. Epoch size scales with the
 * dataset so the epoch count stays paper-like.
 */
Workload suiteSpMSpV(const std::string &id, MemType l1_type,
                     double mem_bandwidth = 1e9);

/** Build a suite SpMSpM workload (C = A * A^T, Section 6.1.2). */
Workload suiteSpMSpM(const std::string &id, MemType l1_type,
                     double mem_bandwidth = 1e9,
                     SystemShape shape = SystemShape{2, 8});

/** Oracle/ideal candidate sample count from the environment. */
std::size_t sampleCount();

/** Sweep worker count: SPARSEADAPT_JOBS or all hardware threads. */
unsigned benchJobs();

/** The Table 4 static systems (Baseline, BestAvg, Max). */
std::vector<HwConfig> standardStatics(MemType l1_type);

/**
 * Train (or load from the on-disk cache) the predictor for one
 * operating mode and L1 memory type. The training sweep is a reduced
 * Table 3 sweep; see DESIGN.md for the substitution rationale.
 */
const Predictor &predictorFor(OptMode mode, MemType l1_type);

/** Geometric mean of a vector of positive gains. */
double geomean(const std::vector<double> &values);

/** Ratio helper guarding against division by zero. */
double ratio(double num, double den);

/** Print a separator + bench header with the paper reference. */
void printHeader(const std::string &title,
                 const std::string &paper_reference);

/**
 * Print one line comparing a measured aggregate against the value the
 * paper reports, e.g. "GM efficiency vs Baseline: 1.74x (paper: 1.8x)".
 */
void printPaperComparison(const std::string &what, double measured,
                          const std::string &paper_reported);

/** bench_results/<name>.csv path (directory created on demand). */
std::string csvPath(const std::string &name);

/** Default comparison options for the current bench scale. */
ComparisonOptions defaultComparison(OptMode mode, PolicyKind policy,
                                    double tolerance = 0.4);

/**
 * Process-wide observer configured from SPARSEADAPT_JOURNAL /
 * SPARSEADAPT_METRICS; null when neither variable is set.
 * defaultComparison() attaches it, so every bench journals its
 * control-loop runs for free.
 */
obs::RunObserver *benchObserver();

/**
 * Process-wide persistent epoch store opened from SPARSEADAPT_STORE;
 * null when the variable is unset. defaultComparison() attaches it,
 * so every bench sweep warm-starts and checkpoints for free. Exports
 * store/ counters into benchObserver()'s metrics when both are
 * active, but never journals (journal bytes stay identical across
 * cold and warm runs).
 */
store::EpochStore *benchStore();

/**
 * Flush the journal and write the metrics snapshot of benchObserver().
 * Call once at the end of main(); a no-op when observability is off.
 * Also checkpoints benchStore() when one is open.
 */
void writeObserverOutputs();

/**
 * Machine-readable companion to the CSVs: collects one record per
 * (kernel, config) measurement and writes
 * bench_results/BENCH_<name>.json with the git revision and the host
 * wall-clock seconds the bench took. Host time never feeds back into
 * the simulation; it is provenance only. When a persistent store is
 * active the report also carries its hit/miss totals and path
 * ("store_hits" / "store_misses" / "store_path"), sampled at write().
 */
class BenchReport
{
  public:
    explicit BenchReport(const std::string &name);

    /** Record one measurement (gflops/W <= 0 means "not measured"). */
    void add(const std::string &kernel, const std::string &config,
             double gflops, double gflops_per_watt);

    /**
     * Account one parallel sweep: host wall seconds spent and the
     * number of configurations actually simulated (cache misses).
     * Accumulated into "sweep_wall_seconds" / "configs_simulated".
     */
    void noteSweep(double wall_seconds, std::uint64_t configs);

    /**
     * Account one control-server traffic replay (bench/serve_traffic):
     * script size, pinned serve dataset scale, and the run's
     * throughput/latency figures. Reported as "serve_sessions",
     * "serve_scale", "sessions_per_second", "decision_p50_ms",
     * "decision_p99_ms" and "serve_epochs_per_second"; the first two
     * gate trend comparability like the scale knobs. The best rep
     * (highest sessions/s) wins, mirroring best-of-N wall trending.
     */
    void noteServe(std::uint64_t sessions, double serve_scale,
                   double sessions_per_second, double p50_ms,
                   double p99_ms, double epochs_per_second);

    /** Write bench_results/BENCH_<name>.json. */
    void write() const;

  private:
    struct Entry
    {
        std::string kernel;
        std::string config;
        double gflops;
        double gflopsPerWatt;
    };

    std::string nameV;
    std::vector<Entry> entriesV;
    std::chrono::steady_clock::time_point startV;
    double sweepSecondsV = 0.0;
    std::uint64_t configsSimulatedV = 0;
    std::uint64_t serveSessionsV = 0;
    double serveScaleV = 0.0;
    double sessionsPerSecondV = 0.0;
    double decisionP50MsV = 0.0;
    double decisionP99MsV = 0.0;
    double serveEpochsPerSecondV = 0.0;
};

/**
 * Batch-replay a candidate set through a Comparison's epoch database
 * (Comparison's jobs setting decides the parallelism) and account the
 * sweep into `report` when non-null. Call before evaluation loops so
 * their cache misses become one parallel batch.
 */
void prefetchConfigs(Comparison &cmp, std::span<const HwConfig> cfgs,
                     BenchReport *report = nullptr);

} // namespace sadapt::bench

#endif // SADAPT_BENCH_BENCH_COMMON_HH
