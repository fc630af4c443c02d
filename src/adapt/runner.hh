/**
 * @file
 * High-level comparison runner: evaluates every control scheme of
 * Section 5.3 on one workload, sharing the epoch database and sampled
 * candidate set (Appendix A.7 step 4 uses S = 256 samples; the sample
 * count here is configurable to fit single-core budgets).
 */

#ifndef SADAPT_ADAPT_RUNNER_HH
#define SADAPT_ADAPT_RUNNER_HH

#include <optional>

#include "adapt/controllers.hh"

namespace sadapt {

/** Knobs of one scheme comparison. */
struct ComparisonOptions
{
    OptMode mode = OptMode::EnergyEfficient;

    /** S: random configurations sampled for the ideal/oracle schemes. */
    std::size_t oracleSamples = 32;

    /** Hysteresis policy for SparseAdapt (Section 5.4 defaults are
     * per-kernel; callers set this explicitly). */
    Policy policy{PolicyKind::Conservative};

    /** ProfileAdapt emulation parameters. */
    double profilingFraction = 0.25;

    std::uint64_t seed = 1;

    /**
     * Replay workers for the shared EpochDb's batch sweeps: 1 forces
     * the exact serial path, 0 resolves to defaultJobs()
     * (SPARSEADAPT_JOBS or the hardware thread count). Any value
     * yields bit-identical results (DESIGN.md section 9).
     */
    unsigned jobs = 1;

    /**
     * Optional observability sink (not owned; must outlive the
     * Comparison). When set, the shared EpochDb exports sim/ metrics
     * into it and the SparseAdapt loops journal their decision trail.
     * Pure observer: every ScheduleEval is identical without it.
     */
    obs::RunObserver *observer = nullptr;

    /**
     * Optional persistent epoch store (not owned; must be open and
     * outlive the Comparison). When set, the shared EpochDb
     * warm-starts every sweep from it and checkpoints every replay
     * into it; every served result is bit-identical to the replay it
     * memoizes, so ScheduleEvals are unchanged (DESIGN.md section 10).
     */
    store::EpochStore *store = nullptr;
};

/**
 * Evaluates all comparison points on one workload. Results are
 * stitched from a shared EpochDb, so each hardware configuration is
 * simulated at most once.
 */
class Comparison
{
  public:
    /**
     * @param workload must outlive the Comparison.
     * @param predictor trained predictor for sparseAdapt(); may be
     *        null if sparseAdapt() is never called.
     */
    Comparison(const Workload &workload, const Predictor *predictor,
               const ComparisonOptions &opts);

    /** Any static configuration, stitched (no reconfigurations). */
    ScheduleEval staticEval(const HwConfig &cfg);

    /** Table 4 static systems. */
    ScheduleEval baseline();
    ScheduleEval bestAvg();
    ScheduleEval maxCfg();

    /** Upper-bound schemes (Section 6.2). */
    ScheduleEval idealStatic();
    ScheduleEval idealGreedy();
    ScheduleEval oracle();

    /** The prior scheme (Section 6.4). */
    ScheduleEval profileAdapt(bool ideal);

    /** The paper's contribution. */
    ScheduleEval sparseAdapt();

    /** The SparseAdapt schedule itself (for timeline plots). */
    const Schedule &sparseAdaptSchedule();

    /**
     * SparseAdapt under fault injection: the stitched evaluation plus
     * the robust loop's schedule and degraded-mode stats.
     */
    struct RobustEval : RobustAdaptResult
    {
        ScheduleEval eval;
    };

    /**
     * Run the robust SparseAdapt loop under a fault specification and
     * stitch the resulting schedule. `guarded == false` disables the
     * TelemetryGuard/Watchdog defenses (the naive loop), for
     * robustness comparisons. Deterministic per (spec, workload).
     */
    RobustEval sparseAdaptRobust(const FaultSpec &spec,
                                 bool guarded = true);

    EpochDb &db() { return dbV; }
    const std::vector<HwConfig> &candidates();
    const ReconfigCostModel &costModel() const { return cost; }
    const HwConfig &initialConfig() const { return initial; }

  private:
    const Workload &wl;
    const Predictor *pred;
    ComparisonOptions opts;
    EpochDb dbV;
    ReconfigCostModel cost;
    HwConfig initial;
    std::vector<HwConfig> candidatesV;
    std::optional<Schedule> greedyCache;
    std::optional<Schedule> sparseAdaptCache;

    const Schedule &greedySchedule();
};

} // namespace sadapt

#endif // SADAPT_ADAPT_RUNNER_HH
