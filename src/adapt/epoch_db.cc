#include "adapt/epoch_db.hh"

#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/threading.hh"
#include "obs/metrics.hh"
#include "store/fingerprint.hh"

namespace sadapt {

EpochDb::EpochDb(const Workload &workload)
    : wl(workload), sim(workload.params)
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

std::size_t
EpochDb::epochTotal()
{
    if (countV == 0)
        countV = sim.epochCount(wl.trace, 0);
    return countV;
}

EpochDb::Entry &
EpochDb::commit(std::uint64_t key, SimResult res)
{
    SADAPT_ASSERT(res.epochs.size() == epochTotal(),
                  "epoch boundaries must align across configs");
    Entry &en = cache[key];
    en.result = std::move(res);
    return en;
}

void
EpochDb::attachMetrics(obs::MetricRegistry *metrics)
{
    SADAPT_ASSERT(metrics == nullptr || partialV == 0,
                  "attach metrics before any partial read");
    metricsV = metrics;
    sim.setMetrics(metrics);
}

void
EpochDb::attachStore(store::EpochStore *epoch_store)
{
    SADAPT_ASSERT(epoch_store == nullptr || partialV == 0,
                  "attach a store before any partial read");
    storeV = epoch_store;
    fingerprintV = epoch_store != nullptr
        ? store::workloadFingerprint(wl.trace, wl.params, wl.l1Type)
        : 0;
}

EpochDb::Entry &
EpochDb::simulateAndCommit(std::uint64_t key, const HwConfig &cfg)
{
    SimResult res = sim.run(wl.trace, cfg);
    replayedV += res.epochs.size();
    if (storeV != nullptr)
        storeV->put(fingerprintV, cfg, res);
    return commit(key, std::move(res));
}

EpochDb::Entry &
EpochDb::entry(const HwConfig &cfg)
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
    // The store and the metrics record whole replays, in first-touch
    // order; only a database without them keeps a replay suspended.
    if (storeV != nullptr || metricsV != nullptr)
        return simulateAndCommit(k, cfg);
    Entry &en = cache[k];
    en.result.config = cfg;
    en.result.epochs.reserve(epochTotal());
    en.replay.emplace(sim, wl.trace, cfg);
    ++partialV;
    return en;
}

void
EpochDb::advance(Entry &en, std::size_t want)
{
    while (en.result.epochs.size() < want) {
        std::optional<EpochRecord> rec = en.replay->step();
        SADAPT_ASSERT(rec.has_value(),
                      "replay closed fewer epochs than epochCount()");
        en.result.epochs.push_back(*rec);
    }
}

void
EpochDb::account(Entry &en, std::size_t before)
{
    replayedV += en.result.epochs.size() - before;
    if (en.replay.has_value() &&
        en.result.epochs.size() == epochTotal()) {
        en.replay.reset();
        --partialV;
    }
}

void
EpochDb::extend(Entry &en, std::size_t want)
{
    const std::size_t before = en.result.epochs.size();
    advance(en, want);
    account(en, before);
}

const SimResult &
EpochDb::result(const HwConfig &cfg)
{
    Entry &en = entry(cfg);
    if (en.replay.has_value())
        extend(en, epochTotal());
    return en.result;
}

const EpochRecord &
EpochDb::epoch(const HwConfig &cfg, std::size_t e)
{
    Entry &en = entry(cfg);
    if (e >= en.result.epochs.size()) {
        SADAPT_ASSERT(e < epochTotal(),
                      "epoch index past the epoch count");
        extend(en, e + 1);
    }
    return en.result.epochs[e];
}

void
EpochDb::ensure(std::span<const HwConfig> cfgs)
{
    // Collect the missing and partial configurations, deduplicated,
    // in request order: that order is the commit order below, so
    // cache insertion order (and with it every downstream
    // observation) matches what a serial result() loop over `cfgs`
    // would produce. An attached store is consulted here, still in
    // request order, so its hit/miss accounting and LRU state are
    // jobs-independent; only true misses and partial entries reach
    // the parallel replay below.
    struct Pending
    {
        std::uint64_t key;
        HwConfig cfg;
        std::optional<SimResult> fromStore;
        Entry *partial = nullptr; //!< a cached entry to complete
        std::size_t before = 0;   //!< its records so far
    };
    std::vector<Pending> pending;
    std::unordered_set<std::uint64_t> queued;
    std::size_t toSimulate = 0;
    for (const HwConfig &cfg : cfgs) {
        SADAPT_ASSERT(cfg.l1Type == wl.l1Type,
                      "config L1 memory type must match the workload");
        const std::uint64_t k = key(cfg);
        if (auto it = cache.find(k); it != cache.end()) {
            Entry &en = it->second;
            if (en.replay.has_value() && queued.insert(k).second) {
                ++toSimulate;
                pending.push_back(Pending{k, cfg, std::nullopt, &en,
                                          en.result.epochs.size()});
            }
            continue;
        }
        if (!queued.insert(k).second)
            continue;
        std::optional<SimResult> hit;
        if (storeV != nullptr)
            hit = storeV->get(fingerprintV, cfg);
        if (!hit.has_value())
            ++toSimulate;
        pending.push_back(Pending{k, cfg, std::move(hit)});
    }
    const std::size_t total = epochTotal();
    if (jobsV <= 1 || toSimulate <= 1) {
        // Exact serial path: same simulator, same order a result()
        // loop would use (its store lookups are resolved above).
        for (Pending &p : pending) {
            if (p.partial != nullptr)
                extend(*p.partial, total);
            else if (p.fromStore.has_value())
                commit(p.key, std::move(*p.fromStore));
            else
                simulateAndCommit(p.key, p.cfg);
        }
        return;
    }

    // Replay the true misses and finish the partial entries
    // concurrently: tasks share only the immutable trace; each fresh
    // replay gets its own Transmuter and (when metrics are attached)
    // its own registry shard, and each partial entry is touched by
    // its task alone. Nothing shared is written until the barrier.
    std::vector<std::size_t> missing;
    missing.reserve(toSimulate);
    for (std::size_t i = 0; i < pending.size(); ++i)
        if (!pending[i].fromStore.has_value())
            missing.push_back(i);
    std::vector<SimResult> results(missing.size());
    std::vector<obs::MetricRegistry> shards(
        metricsV != nullptr ? missing.size() : 0);
    parallelFor(missing.size(), jobsV, [&](std::size_t i) {
        const Pending &p = pending[missing[i]];
        if (p.partial != nullptr) {
            advance(*p.partial, total);
            return;
        }
        Transmuter task_sim(wl.params);
        if (metricsV != nullptr)
            task_sim.setMetrics(&shards[i]);
        results[i] = task_sim.run(wl.trace, p.cfg);
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
        if (p.partial != nullptr) {
            account(*p.partial, p.before);
            ++next;
            continue;
        }
        replayedV += results[next].epochs.size();
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
    // The store and the metrics record which configurations were
    // replayed, in order, and a first numEpochs() has always replayed
    // the baseline: keep that, so those artifacts stay the same.
    if (cache.empty() && (storeV != nullptr || metricsV != nullptr))
        result(baselineConfig(wl.l1Type));
    return epochTotal();
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
        const EpochRecord &rec = db.epoch(cfg, e);
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
