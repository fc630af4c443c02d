/**
 * @file
 * Per-configuration epoch database and the stitching engine.
 *
 * Following the paper's artifact methodology (Appendix A.7, steps 4-8),
 * each workload is simulated in its entirety once per visited hardware
 * configuration, recording per-epoch time/energy/counters. Because
 * epochs are delimited by FP-op counts, their boundaries align across
 * configurations, so any dynamic reconfiguration scheme can be
 * evaluated exactly by stitching per-epoch segments together and
 * charging reconfiguration penalties at the seams.
 *
 * An entry may be partial: epoch(cfg, e) resumes the
 * configuration's suspended Replay only up to record e, so a caller
 * that reads epoch by epoch (a serve session) never replays the
 * epochs after the last one it reads. result(), epochs() and ensure()
 * complete an entry. A database with a store or a metrics registry
 * attached completes every replay at first touch, so the store file
 * and the sim/ and profile/ metrics are the same whatever the call
 * pattern (DESIGN.md section 9).
 *
 * Replays of distinct configurations are independent given the shared
 * immutable trace, whose columns every replay reads in place, so the
 * database exposes a batch ensure() API that replays missing
 * configurations concurrently (one Transmuter per task) and commits
 * the results in request order — the memoized state, exported
 * metrics and every downstream ScheduleEval are bit-identical to a
 * jobs=1 run (DESIGN.md section 9).
 */

#ifndef SADAPT_ADAPT_EPOCH_DB_HH
#define SADAPT_ADAPT_EPOCH_DB_HH

#include <optional>
#include <span>
#include <unordered_map>

#include "adapt/metrics.hh"
#include "adapt/workload.hh"
#include "sim/reconfig.hh"
#include "sim/schedule.hh"
#include "store/epoch_store.hh"

namespace sadapt {

/**
 * Lazily memoized simulations of one workload, one per hardware
 * configuration: full runs, or the records read so far plus the
 * suspended replay that continues them.
 */
class EpochDb
{
  public:
    /**
     * @param workload the workload to replay (must outlive the
     *        database).
     */
    explicit EpochDb(const Workload &workload);

    /**
     * Replay parallelism for ensure(): jobs <= 1 is the exact serial
     * path (and the default); higher values replay missing
     * configurations on up to that many parallelFor() workers.
     */
    void setJobs(unsigned jobs) { jobsV = jobs > 0 ? jobs : 1; }
    unsigned jobs() const { return jobsV; }

    /**
     * Pre-announce a candidate set: simulate every configuration of
     * `cfgs` not yet in the cache and complete every partial one,
     * using up to jobs() concurrent replays, then commit the results
     * in request order. Calling
     * ensure() before a loop of result()/epochs() calls turns the
     * loop's serial cache misses into one parallel batch; with
     * jobs() == 1 it simulates serially in the same order and is
     * behaviorally identical to not calling it at all.
     */
    void ensure(std::span<const HwConfig> cfgs);

    /** Whole-run simulation result under one configuration (memoized). */
    const SimResult &result(const HwConfig &cfg);

    /** Per-epoch records under one configuration. */
    const std::vector<EpochRecord> &epochs(const HwConfig &cfg);

    /**
     * Record `e` (< numEpochs()) under one configuration, replaying
     * no further than that record unless the entry is already
     * complete or the database completes every replay (a store or
     * metrics attached). The reference stays valid for the
     * database's life.
     */
    const EpochRecord &epoch(const HwConfig &cfg, std::size_t e);

    /**
     * Number of epochs recorded per configuration (identical for
     * every configuration). Counted from the trace
     * (Transmuter::epochCount), not replayed; with a store or
     * metrics attached, the first call on an empty database still
     * replays the baseline, as those artifacts record it.
     */
    std::size_t numEpochs();

    /** Number of configurations simulated so far, wholly or partly. */
    std::size_t simulatedConfigs() const { return cache.size(); }

    /**
     * Epoch records replayed so far, over every configuration; store
     * hits replay nothing. A deterministic count of replay work.
     */
    std::uint64_t epochsReplayed() const { return replayedV; }

    /**
     * Export sim/ metrics from every future (non-memoized) simulation
     * into a registry. Attach before the first result()/epochs() call
     * to cover the whole run, and before any partial read; null
     * detaches.
     */
    void attachMetrics(obs::MetricRegistry *metrics);

    const Workload &workload() const { return wl; }

    /**
     * Warm-start from (and checkpoint into) a persistent epoch store.
     * Every subsequent cache miss consults the store under this
     * workload's fingerprint before replaying, and every replay is
     * written back at its commit point — in request order, so the
     * store file's bytes are identical for any jobs() setting. Null
     * detaches. Attach before any partial read. The store outlives
     * the database (caller-owned).
     */
    void attachStore(store::EpochStore *epoch_store);

    /** The attached store, or null. */
    store::EpochStore *epochStore() const { return storeV; }

    /**
     * The workload fingerprint used to address the attached store
     * (store::workloadFingerprint of the trace); 0 until a store is
     * attached.
     */
    std::uint64_t storeFingerprint() const { return fingerprintV; }

    /**
     * Cache key of a configuration: the dense ConfigSpace encoding
     * (exactly HwConfig::encode(), proven injective over the whole
     * space by the analysis-suite encode self-check), so keys
     * round-trip back to the configuration via keyConfig(). All
     * configurations of one database share the workload's compile-time
     * L1 memory type (asserted on every simulation).
     */
    static std::uint64_t key(const HwConfig &cfg);

    /** Decode a cache key back to its configuration. */
    HwConfig keyConfig(std::uint64_t key) const;

  private:
    /**
     * One configuration's records so far. `replay` continues them and
     * is null once the entry is complete (numEpochs() records).
     */
    struct Entry
    {
        SimResult result;
        std::optional<Replay> replay;
    };

    const Workload &wl;
    Transmuter sim;
    unsigned jobsV = 1;
    obs::MetricRegistry *metricsV = nullptr;
    store::EpochStore *storeV = nullptr;
    std::uint64_t fingerprintV = 0;
    std::size_t countV = 0;       //!< epochCount(), 0 until computed
    std::size_t partialV = 0;     //!< entries with a suspended replay
    std::uint64_t replayedV = 0;  //!< epochsReplayed()
    std::unordered_map<std::uint64_t, Entry> cache;

    /** numEpochs() without the artifact-preserving baseline replay. */
    std::size_t epochTotal();

    /**
     * The entry of cfg: cached, a store hit, a full replay when a
     * store or metrics are attached, or else a new partial entry.
     */
    Entry &entry(const HwConfig &cfg);

    /** Cache a complete result (a store hit or a full replay). */
    Entry &commit(std::uint64_t key, SimResult res);

    /** Replay cfg on the member simulator, checkpoint it, commit it. */
    Entry &simulateAndCommit(std::uint64_t key, const HwConfig &cfg);

    /** Resume a partial entry until it holds `want` records. */
    static void advance(Entry &en, std::size_t want);

    /**
     * Count the records a partial entry gained since it held `before`
     * and release its replay once it is complete.
     */
    void account(Entry &en, std::size_t before);

    /** advance() then account(). */
    void extend(Entry &en, std::size_t want);
};

/** Aggregate outcome of a stitched schedule. */
struct ScheduleEval
{
    double flops = 0.0;
    Seconds seconds = 0.0;       //!< total, including reconfigurations
    Joules energy = 0.0;         //!< total, including reconfigurations
    Seconds reconfigSeconds = 0.0;
    Joules reconfigEnergy = 0.0;
    std::uint32_t reconfigCount = 0;

    double gflops() const;
    double gflopsPerWatt() const;
    double metric(OptMode mode) const;
};

/**
 * Stitch a schedule: sum the chosen configuration's epoch segments and
 * charge a reconfiguration penalty at every configuration change
 * (including the initial switch away from `initial`, if any).
 */
ScheduleEval evaluateSchedule(EpochDb &db, const Schedule &schedule,
                              const ReconfigCostModel &cost_model,
                              OptMode mode, const HwConfig &initial);

/**
 * evaluateSchedule() for a schedule covering only the first
 * `schedule.configs.size()` epochs (<= the workload's epoch count):
 * epochs past the prefix contribute nothing. The serve layer uses it
 * for sessions closed early by their traffic-script epoch budget.
 */
ScheduleEval evaluateSchedulePrefix(EpochDb &db,
                                    const Schedule &schedule,
                                    const ReconfigCostModel &cost_model,
                                    OptMode mode,
                                    const HwConfig &initial);

} // namespace sadapt

#endif // SADAPT_ADAPT_EPOCH_DB_HH
