/**
 * @file
 * Tests for the control schemes of Section 5.3 and their expected
 * dominance ordering.
 */

#include <gtest/gtest.h>

#include <set>

#include "adapt/runner.hh"
#include "adapt/telemetry.hh"
#include "common/rng.hh"
#include "sparse/generators.hh"

using namespace sadapt;

namespace {

Workload
controllerWorkload()
{
    static Rng rng(7);
    CsrMatrix a = makeRmat(256, 2500, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 50;
    SparseVector x = SparseVector::random(256, 0.5, rng);
    return makeSpMSpVWorkload("ctrl", a, x, wo);
}

ComparisonOptions
optionsFor(OptMode mode)
{
    ComparisonOptions co;
    co.mode = mode;
    co.oracleSamples = 10;
    co.seed = 3;
    return co;
}

} // namespace

TEST(Controllers, IdealStaticDominatesEveryCandidate)
{
    Workload wl = controllerWorkload();
    Comparison cmp(wl, nullptr, optionsFor(OptMode::EnergyEfficient));
    const double ideal =
        cmp.idealStatic().metric(OptMode::EnergyEfficient);
    for (const HwConfig &cfg : cmp.candidates()) {
        EXPECT_GE(ideal + 1e-12,
                  cmp.staticEval(cfg).metric(
                      OptMode::EnergyEfficient));
    }
}

TEST(Controllers, OracleDominatesStaticSequencesInEnergyMode)
{
    // The oracle DP minimizes total energy over all candidate
    // sequences. Static candidate sequences are in its search space —
    // but with the same starting configuration (Ideal Static itself is
    // a compile-time choice and pays no initial switch).
    Workload wl = controllerWorkload();
    Comparison cmp(wl, nullptr, optionsFor(OptMode::EnergyEfficient));
    const auto oracle = cmp.oracle();
    ReconfigCostModel cost(wl.params);
    for (const HwConfig &cfg : cmp.candidates()) {
        const auto stat = evaluateSchedule(
            cmp.db(), Schedule::uniform(cfg, cmp.db().numEpochs()),
            cost, OptMode::EnergyEfficient, cmp.initialConfig());
        EXPECT_LE(oracle.energy, stat.energy * (1.0 + 1e-9));
    }
}

TEST(Controllers, OracleDominatesGreedyInEnergyMode)
{
    Workload wl = controllerWorkload();
    Comparison cmp(wl, nullptr, optionsFor(OptMode::EnergyEfficient));
    EXPECT_LE(cmp.oracle().energy,
              cmp.idealGreedy().energy * (1.0 + 1e-9));
}

TEST(Controllers, PowerPerfOracleBeatsStaticObjective)
{
    Workload wl = controllerWorkload();
    Comparison cmp(wl, nullptr, optionsFor(OptMode::PowerPerformance));
    const auto oracle = cmp.oracle();
    const double obj_o =
        oracle.seconds * oracle.seconds * oracle.energy;
    // T^2 * E objective: the Pareto DP explores static sequences
    // (same starting config) too, so it can only improve, modulo
    // frontier thinning.
    ReconfigCostModel cost(wl.params);
    for (const HwConfig &cfg : cmp.candidates()) {
        const auto stat = evaluateSchedule(
            cmp.db(), Schedule::uniform(cfg, cmp.db().numEpochs()),
            cost, OptMode::PowerPerformance, cmp.initialConfig());
        EXPECT_LE(obj_o,
                  stat.seconds * stat.seconds * stat.energy * 1.02);
    }
}

TEST(Controllers, GreedyScheduleHasEpochLength)
{
    Workload wl = controllerWorkload();
    Comparison cmp(wl, nullptr, optionsFor(OptMode::EnergyEfficient));
    cmp.idealGreedy();
    EXPECT_GT(cmp.db().numEpochs(), 3u);
}

TEST(Controllers, ProfileAdaptNaiveWorseThanGreedy)
{
    // The profiling detour costs two reconfigurations per epoch plus
    // a fraction of the epoch in the (inefficient) max configuration.
    Workload wl = controllerWorkload();
    Comparison cmp(wl, nullptr, optionsFor(OptMode::EnergyEfficient));
    const double greedy =
        cmp.idealGreedy().metric(OptMode::EnergyEfficient);
    const double pa_naive =
        cmp.profileAdapt(false).metric(OptMode::EnergyEfficient);
    EXPECT_LT(pa_naive, greedy);
}

TEST(Controllers, ProfileAdaptIdealBetweenNaiveAndGreedy)
{
    Workload wl = controllerWorkload();
    Comparison cmp(wl, nullptr, optionsFor(OptMode::EnergyEfficient));
    const double greedy =
        cmp.idealGreedy().metric(OptMode::EnergyEfficient);
    const double naive =
        cmp.profileAdapt(false).metric(OptMode::EnergyEfficient);
    const double ideal =
        cmp.profileAdapt(true).metric(OptMode::EnergyEfficient);
    EXPECT_GE(ideal, naive);
    EXPECT_LE(ideal, greedy * (1.0 + 1e-9));
}

TEST(Controllers, SparseAdaptScheduleRespectsPolicy)
{
    // With a conservative policy, the SparseAdapt schedule never
    // changes flush-class parameters.
    Workload wl = controllerWorkload();
    EpochDb db(wl);
    ReconfigCostModel cost(wl.params);

    // A predictor that constantly wants the max configuration.
    TrainingSet set;
    PerfCounterSample c;
    for (int i = 0; i < 4; ++i)
        set.add(buildFeatures(baselineConfig(), c), maxConfig());
    Predictor pred;
    pred.trainFixed(set, TreeParams{});

    Policy policy(PolicyKind::Conservative);
    Schedule s = sparseAdaptSchedule(db, pred, policy,
                                     OptMode::EnergyEfficient, cost,
                                     baselineConfig());
    ASSERT_EQ(s.configs.size(), db.numEpochs());
    for (const HwConfig &cfg : s.configs) {
        // Baseline L1 is 4 kB shared; conservative forbids the flush
        // needed to change sharing, and capacity increases are free,
        // so sharing must stay put.
        EXPECT_EQ(cfg.l1Sharing, SharingMode::Shared);
    }
    // The super-fine prefetch change (4 -> 8) goes through.
    EXPECT_EQ(s.configs.back().prefetchDegree(), 8u);
}

TEST(Controllers, AggressiveFollowsPredictionFromSecondEpoch)
{
    Workload wl = controllerWorkload();
    EpochDb db(wl);
    ReconfigCostModel cost(wl.params);
    TrainingSet set;
    PerfCounterSample c;
    for (int i = 0; i < 4; ++i)
        set.add(buildFeatures(baselineConfig(), c), maxConfig());
    Predictor pred;
    pred.trainFixed(set, TreeParams{});
    Schedule s = sparseAdaptSchedule(db, pred,
                                     Policy(PolicyKind::Aggressive),
                                     OptMode::EnergyEfficient, cost,
                                     baselineConfig());
    EXPECT_EQ(s.configs.front(), baselineConfig());
    EXPECT_EQ(s.configs[1], maxConfig());
    EXPECT_EQ(s.configs.back(), maxConfig());
}

TEST(Controllers, EvaluationsSharesOneDb)
{
    Workload wl = controllerWorkload();
    Comparison cmp(wl, nullptr, optionsFor(OptMode::EnergyEfficient));
    cmp.baseline();
    cmp.maxCfg();
    cmp.idealStatic();
    cmp.idealGreedy();
    cmp.oracle();
    // 10 samples + up to 3 standard configs.
    EXPECT_LE(cmp.db().simulatedConfigs(), 13u);
}

TEST(Controllers, CandidatesContainNoDuplicates)
{
    Workload wl = controllerWorkload();
    ComparisonOptions co = optionsFor(OptMode::EnergyEfficient);
    co.oracleSamples = 64;
    Comparison cmp(wl, nullptr, co);
    const auto &cands = cmp.candidates();
    std::set<std::uint32_t> codes;
    for (const HwConfig &c : cands)
        codes.insert(c.encode());
    EXPECT_EQ(codes.size(), cands.size());
    // The standard static systems are always present.
    EXPECT_TRUE(codes.count(baselineConfig(wl.l1Type).encode()));
    EXPECT_TRUE(codes.count(bestAvgConfig(wl.l1Type).encode()));
    EXPECT_TRUE(codes.count(maxConfig(wl.l1Type).encode()));
}

namespace {

/** One small trained predictor, shared by the robust-loop tests. */
const Predictor &
robustPredictor()
{
    static const Predictor pred = [] {
        TrainerOptions opts;
        opts.mode = OptMode::EnergyEfficient;
        opts.includeSpMSpM = false;
        opts.spmspvDims = {256};
        opts.densities = {0.01, 0.04};
        opts.bandwidths = {1e9};
        opts.search.randomSamples = 8;
        opts.search.neighborCap = 10;
        opts.seed = 91;
        Predictor p;
        p.trainFixed(buildTrainingSet(opts), TreeParams{});
        return p;
    }();
    return pred;
}

} // namespace

TEST(RobustControllers, UnguardedNoFaultMatchesPlainSparseAdapt)
{
    // With no injector and the guard disabled, the robust loop is the
    // plain SparseAdapt loop: bit-identical schedule.
    Workload wl = controllerWorkload();
    const Predictor &pred = robustPredictor();

    Comparison cmp(wl, &pred, optionsFor(OptMode::EnergyEfficient));
    const Schedule &plain = cmp.sparseAdaptSchedule();
    const auto robust =
        cmp.sparseAdaptRobust(FaultSpec{}, /*guarded=*/false);

    RobustAdaptOptions ro;
    ro.useGuard = false;
    const RobustAdaptResult direct = robustSparseAdaptSchedule(
        cmp.db(), pred, Policy(PolicyKind::Conservative),
        OptMode::EnergyEfficient, cmp.costModel(),
        cmp.initialConfig(), nullptr, ro);
    ASSERT_EQ(direct.schedule.configs.size(), plain.configs.size());
    for (std::size_t e = 0; e < plain.configs.size(); ++e)
        EXPECT_EQ(direct.schedule.configs[e], plain.configs[e]);
    EXPECT_EQ(robust.faults.faultsInjected, 0u);
}

TEST(RobustControllers, GuardedNoFaultStaysCloseToPlain)
{
    // On clean telemetry the guard should be near-transparent; a small
    // loss from occasionally imputing a legitimate phase change is
    // acceptable, a collapse is not.
    Workload wl = controllerWorkload();
    const Predictor &pred = robustPredictor();
    Comparison cmp(wl, &pred, optionsFor(OptMode::EnergyEfficient));

    const double plain =
        cmp.sparseAdapt().metric(OptMode::EnergyEfficient);
    const auto guarded = cmp.sparseAdaptRobust(FaultSpec{}, true);
    EXPECT_GE(guarded.eval.metric(OptMode::EnergyEfficient),
              0.9 * plain);
}

TEST(RobustControllers, DeterministicUnderFixedSeed)
{
    Workload wl = controllerWorkload();
    const Predictor &pred = robustPredictor();
    Comparison cmp(wl, &pred, optionsFor(OptMode::EnergyEfficient));

    const FaultSpec spec = FaultSpec::uniform(0.1, 5);
    const auto a = cmp.sparseAdaptRobust(spec, true);
    const auto b = cmp.sparseAdaptRobust(spec, true);
    EXPECT_DOUBLE_EQ(a.eval.metric(OptMode::EnergyEfficient),
                     b.eval.metric(OptMode::EnergyEfficient));
    EXPECT_EQ(a.faults.faultsInjected, b.faults.faultsInjected);
    EXPECT_EQ(a.guard.samplesClamped, b.guard.samplesClamped);
    EXPECT_EQ(a.watchdogReverts, b.watchdogReverts);
}

TEST(RobustControllers, AllTelemetryLostHoldsInitialConfig)
{
    Workload wl = controllerWorkload();
    const Predictor &pred = robustPredictor();
    Comparison cmp(wl, &pred, optionsFor(OptMode::EnergyEfficient));

    FaultSpec spec;
    spec.dropRate = 1.0;
    RobustAdaptOptions ro;
    FaultInjector injector(spec);
    const RobustAdaptResult r = robustSparseAdaptSchedule(
        cmp.db(), pred, Policy(PolicyKind::Conservative),
        OptMode::EnergyEfficient, cmp.costModel(),
        cmp.initialConfig(), &injector, ro);
    EXPECT_EQ(r.guard.samplesMissing, cmp.db().numEpochs());
    for (const HwConfig &cfg : r.schedule.configs)
        EXPECT_EQ(cfg, cmp.initialConfig());
}

TEST(RobustControllers, GuardedNotWorseThanUnguardedUnderHeavyFaults)
{
    Workload wl = controllerWorkload();
    const Predictor &pred = robustPredictor();
    Comparison cmp(wl, &pred, optionsFor(OptMode::EnergyEfficient));

    double guarded_sum = 0.0, unguarded_sum = 0.0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const FaultSpec spec = FaultSpec::uniform(0.05, seed);
        guarded_sum += cmp.sparseAdaptRobust(spec, true)
                           .eval.metric(OptMode::EnergyEfficient);
        unguarded_sum += cmp.sparseAdaptRobust(spec, false)
                             .eval.metric(OptMode::EnergyEfficient);
    }
    EXPECT_GE(guarded_sum, unguarded_sum);
}
