#include "adapt/runner.hh"

#include <unordered_set>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/threading.hh"

namespace sadapt {

Comparison::Comparison(const Workload &workload,
                       const Predictor *predictor,
                       const ComparisonOptions &options)
    : wl(workload), pred(predictor), opts(options), dbV(workload),
      cost(workload.params),
      initial(baselineConfig(workload.l1Type))
{
    if (opts.observer != nullptr)
        dbV.attachMetrics(&opts.observer->metrics());
    if (opts.store != nullptr)
        dbV.attachStore(opts.store);
    dbV.setJobs(opts.jobs > 0 ? opts.jobs : defaultJobs());
}

const std::vector<HwConfig> &
Comparison::candidates()
{
    if (candidatesV.empty()) {
        Rng rng(opts.seed);
        ConfigSpace space(wl.l1Type);
        candidatesV = space.sample(opts.oracleSamples, rng);
        // Always include the standard static systems so the ideal
        // schemes are never worse than them.
        std::unordered_set<std::uint32_t> codes;
        for (const auto &c : candidatesV)
            codes.insert(c.encode());
        for (const HwConfig &std_cfg :
             {baselineConfig(wl.l1Type), bestAvgConfig(wl.l1Type),
              maxConfig(wl.l1Type)}) {
            if (codes.insert(std_cfg.encode()).second)
                candidatesV.push_back(std_cfg);
        }
    }
    return candidatesV;
}

ScheduleEval
Comparison::staticEval(const HwConfig &cfg)
{
    return evaluateSchedule(
        dbV, Schedule::uniform(cfg, dbV.numEpochs()), cost, opts.mode,
        cfg);
}

ScheduleEval
Comparison::baseline()
{
    return staticEval(baselineConfig(wl.l1Type));
}

ScheduleEval
Comparison::bestAvg()
{
    return staticEval(bestAvgConfig(wl.l1Type));
}

ScheduleEval
Comparison::maxCfg()
{
    return staticEval(maxConfig(wl.l1Type));
}

ScheduleEval
Comparison::idealStatic()
{
    const HwConfig cfg =
        idealStaticConfig(dbV, candidates(), opts.mode);
    return staticEval(cfg);
}

const Schedule &
Comparison::greedySchedule()
{
    if (!greedyCache) {
        greedyCache = idealGreedySchedule(dbV, candidates(), opts.mode,
                                          cost, initial);
    }
    return *greedyCache;
}

ScheduleEval
Comparison::idealGreedy()
{
    return evaluateSchedule(dbV, greedySchedule(), cost, opts.mode,
                            initial);
}

ScheduleEval
Comparison::oracle()
{
    const Schedule s = oracleSchedule(dbV, candidates(), opts.mode,
                                      cost, initial);
    return evaluateSchedule(dbV, s, cost, opts.mode, initial);
}

ScheduleEval
Comparison::profileAdapt(bool ideal)
{
    ProfileAdaptOptions pa;
    pa.profilingConfig = maxConfig(wl.l1Type);
    pa.profilingFraction = opts.profilingFraction;
    pa.ideal = ideal;
    return evaluateProfileAdapt(dbV, greedySchedule(), cost, opts.mode,
                                initial, pa);
}

const Schedule &
Comparison::sparseAdaptSchedule()
{
    SADAPT_ASSERT(pred != nullptr && pred->trained(),
                  "sparseAdapt() needs a trained predictor");
    if (!sparseAdaptCache) {
        sparseAdaptCache = ::sadapt::sparseAdaptSchedule(
            dbV, *pred, opts.policy, opts.mode, cost, initial,
            opts.observer);
    }
    return *sparseAdaptCache;
}

ScheduleEval
Comparison::sparseAdapt()
{
    return evaluateSchedule(dbV, sparseAdaptSchedule(), cost,
                            opts.mode, initial);
}

Comparison::RobustEval
Comparison::sparseAdaptRobust(const FaultSpec &spec, bool guarded)
{
    SADAPT_ASSERT(pred != nullptr && pred->trained(),
                  "sparseAdaptRobust() needs a trained predictor");
    std::optional<FaultInjector> injector;
    if (spec.enabled())
        injector.emplace(spec);
    RobustAdaptOptions ro;
    ro.useGuard = guarded;
    RobustAdaptResult res = robustSparseAdaptSchedule(
        dbV, *pred, opts.policy, opts.mode, cost, initial,
        injector ? &*injector : nullptr, ro, opts.observer);
    const ScheduleEval eval =
        evaluateSchedule(dbV, res.schedule, cost, opts.mode, initial);
    return {std::move(res), eval};
}

} // namespace sadapt
