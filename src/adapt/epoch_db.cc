#include "adapt/epoch_db.hh"

#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/threading.hh"
#include "obs/metrics.hh"
#include "store/fingerprint.hh"

namespace sadapt {

EpochDb::EpochDb(const Workload &workload)
    : wl(workload), soa(ColumnarTrace::fromTrace(workload.trace)),
      sim(workload.params)
{
}

std::uint64_t
EpochDb::key(const HwConfig &cfg)
{
    // The dense ConfigSpace code is injective over the runtime
    // parameters; the L1 memory type is fixed per workload (asserted
    // at every simulation), so it needs no bits of its own.
    return cfg.encode();
}

HwConfig
EpochDb::keyConfig(std::uint64_t key) const
{
    return ConfigSpace(wl.l1Type).decode(
        static_cast<std::uint32_t>(key));
}

const SimResult &
EpochDb::commit(std::uint64_t key, SimResult res)
{
    if (!cache.empty()) {
        SADAPT_ASSERT(res.epochs.size() ==
                          cache.begin()->second.epochs.size(),
                      "epoch boundaries must align across configs");
    }
    return cache.emplace(key, std::move(res)).first->second;
}

void
EpochDb::attachStore(store::EpochStore *epoch_store)
{
    storeV = epoch_store;
    fingerprintV = epoch_store != nullptr
        ? store::workloadFingerprint(wl.trace, wl.params, wl.l1Type)
        : 0;
}

const SimResult &
EpochDb::simulateAndCommit(std::uint64_t key, const HwConfig &cfg)
{
    SimResult res = sim.run(soa.view(), cfg);
    if (storeV != nullptr)
        storeV->put(fingerprintV, cfg, res);
    return commit(key, std::move(res));
}

const SimResult &
EpochDb::result(const HwConfig &cfg)
{
    SADAPT_ASSERT(cfg.l1Type == wl.l1Type,
                  "config L1 memory type must match the workload");
    const std::uint64_t k = key(cfg);
    auto it = cache.find(k);
    if (it != cache.end())
        return it->second;
    if (storeV != nullptr) {
        if (std::optional<SimResult> hit = storeV->get(fingerprintV,
                                                       cfg))
            return commit(k, std::move(*hit));
    }
    return simulateAndCommit(k, cfg);
}

void
EpochDb::ensure(std::span<const HwConfig> cfgs)
{
    // Collect the missing configurations, deduplicated, in request
    // order: that order is the commit order below, so cache insertion
    // order (and with it every downstream observation) matches what a
    // serial result() loop over `cfgs` would produce. An attached
    // store is consulted here, still in request order, so its
    // hit/miss accounting and LRU state are jobs-independent; only
    // true misses reach the parallel replay below.
    struct Pending
    {
        std::uint64_t key;
        HwConfig cfg;
        std::optional<SimResult> fromStore;
    };
    std::vector<Pending> pending;
    std::unordered_set<std::uint64_t> queued;
    std::size_t toSimulate = 0;
    for (const HwConfig &cfg : cfgs) {
        SADAPT_ASSERT(cfg.l1Type == wl.l1Type,
                      "config L1 memory type must match the workload");
        const std::uint64_t k = key(cfg);
        if (cache.contains(k) || !queued.insert(k).second)
            continue;
        std::optional<SimResult> hit;
        if (storeV != nullptr)
            hit = storeV->get(fingerprintV, cfg);
        if (!hit.has_value())
            ++toSimulate;
        pending.push_back(Pending{k, cfg, std::move(hit)});
    }
    if (jobsV <= 1 || toSimulate <= 1) {
        // Exact serial path: same simulator, same order a result()
        // loop would use (its store lookups are resolved above).
        for (Pending &p : pending) {
            if (p.fromStore.has_value())
                commit(p.key, std::move(*p.fromStore));
            else
                simulateAndCommit(p.key, p.cfg);
        }
        return;
    }

    // Replay the true misses concurrently: tasks share only the
    // immutable trace; each gets its own Transmuter and (when metrics
    // are attached) its own registry shard. Nothing shared is written
    // until the barrier.
    std::vector<std::size_t> missing;
    missing.reserve(toSimulate);
    for (std::size_t i = 0; i < pending.size(); ++i)
        if (!pending[i].fromStore.has_value())
            missing.push_back(i);
    std::vector<SimResult> results(missing.size());
    std::vector<obs::MetricRegistry> shards(
        metricsV != nullptr ? missing.size() : 0);
    parallelFor(missing.size(), jobsV, [&](std::size_t i) {
        Transmuter task_sim(wl.params);
        if (metricsV != nullptr)
            task_sim.setMetrics(&shards[i]);
        results[i] = task_sim.run(soa.view(), pending[missing[i]].cfg);
    });

    // Barrier passed: commit store hits and fresh replays interleaved
    // in request order, folding metric shards and checkpointing each
    // replay into the store at its commit point — so the cache, the
    // metrics and the store file bytes all reproduce the serial run
    // exactly.
    std::size_t next = 0;
    for (Pending &p : pending) {
        if (p.fromStore.has_value()) {
            commit(p.key, std::move(*p.fromStore));
            continue;
        }
        if (storeV != nullptr)
            storeV->put(fingerprintV, p.cfg, results[next]);
        commit(p.key, std::move(results[next]));
        if (metricsV != nullptr)
            metricsV->merge(shards[next]);
        ++next;
    }
}

const std::vector<EpochRecord> &
EpochDb::epochs(const HwConfig &cfg)
{
    return result(cfg).epochs;
}

std::size_t
EpochDb::numEpochs()
{
    if (cache.empty())
        result(baselineConfig(wl.l1Type));
    return cache.begin()->second.epochs.size();
}

double
ScheduleEval::gflops() const
{
    return seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
}

double
ScheduleEval::gflopsPerWatt() const
{
    return energy > 0.0 ? flops / energy / 1e9 : 0.0;
}

double
ScheduleEval::metric(OptMode mode) const
{
    return metricValue(mode, flops, seconds, energy);
}

namespace {

ScheduleEval
stitch(EpochDb &db, const Schedule &schedule,
       const ReconfigCostModel &cost_model, OptMode mode,
       const HwConfig &initial, bool prefix)
{
    if (prefix)
        SADAPT_ASSERT(schedule.configs.size() <= db.numEpochs(),
                      "schedule prefix longer than epoch count");
    else
        SADAPT_ASSERT(schedule.configs.size() == db.numEpochs(),
                      "schedule length must equal epoch count");
    const bool ee = mode == OptMode::EnergyEfficient;
    ScheduleEval ev;
    HwConfig current = initial;
    for (std::size_t e = 0; e < schedule.configs.size(); ++e) {
        const HwConfig &cfg = schedule.configs[e];
        if (!(cfg == current)) {
            const ReconfigCost rc = cost_model.cost(current, cfg, ee);
            ev.reconfigSeconds += rc.seconds;
            ev.reconfigEnergy += rc.energy;
            ev.seconds += rc.seconds;
            ev.energy += rc.energy;
            ++ev.reconfigCount;
            current = cfg;
        }
        const EpochRecord &rec = db.epochs(cfg)[e];
        ev.flops += rec.flops;
        ev.seconds += rec.seconds;
        ev.energy += rec.totalEnergy();
    }
    return ev;
}

} // namespace

ScheduleEval
evaluateSchedule(EpochDb &db, const Schedule &schedule,
                 const ReconfigCostModel &cost_model, OptMode mode,
                 const HwConfig &initial)
{
    return stitch(db, schedule, cost_model, mode, initial, false);
}

ScheduleEval
evaluateSchedulePrefix(EpochDb &db, const Schedule &schedule,
                       const ReconfigCostModel &cost_model,
                       OptMode mode, const HwConfig &initial)
{
    return stitch(db, schedule, cost_model, mode, initial, true);
}

} // namespace sadapt
