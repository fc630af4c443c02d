/**
 * @file
 * Validation of the epoch-stitching methodology (Appendix A.7)
 * against ground-truth live execution: Transmuter::runSchedule
 * actually switches configurations mid-run, carrying cache state and
 * applying flush penalties in-band, while evaluateSchedule composes
 * independent per-config runs. The two must agree on work exactly and
 * on time/energy closely (stitching ignores warm-cache carryover).
 */

#include <gtest/gtest.h>

#include "adapt/controllers.hh"
#include "common/rng.hh"
#include "sparse/generators.hh"

using namespace sadapt;

namespace {

Workload
validationWorkload()
{
    static Rng rng(61);
    static const CsrMatrix a = makeRmat(512, 5000, rng);
    static const SparseVector x =
        SparseVector::random(512, 0.5, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 100; // ~8 epochs for this input
    return makeSpMSpVWorkload("validate", a, x, wo);
}

} // namespace

TEST(StitchingValidation, UniformScheduleMatchesPlainRunExactly)
{
    Workload wl = validationWorkload();
    Transmuter sim(wl.params);
    ReconfigCostModel cost(wl.params);
    const HwConfig cfg = bestAvgConfig(MemType::Cache);
    const SimResult plain = sim.run(wl.trace, cfg);
    const SimResult live = sim.runSchedule(
        wl.trace, Schedule::uniform(cfg, plain.epochs.size()), cost,
        true);
    ASSERT_EQ(live.epochs.size(), plain.epochs.size());
    EXPECT_DOUBLE_EQ(live.totalSeconds(), plain.totalSeconds());
    EXPECT_DOUBLE_EQ(live.totalEnergy(), plain.totalEnergy());
}

TEST(StitchingValidation, LiveRunPreservesWorkAndEpochCount)
{
    Workload wl = validationWorkload();
    EpochDb db(wl);
    Transmuter sim(wl.params);
    ReconfigCostModel cost(wl.params);
    // An adversarial schedule: alternate two very different configs.
    Schedule s;
    const HwConfig a = baselineConfig();
    const HwConfig b = maxConfig();
    for (std::size_t e = 0; e < db.numEpochs(); ++e)
        s.configs.push_back(e % 2 ? b : a);
    const SimResult live = sim.runSchedule(wl.trace, s, cost, true);
    EXPECT_EQ(live.epochs.size(), db.numEpochs());
    EXPECT_DOUBLE_EQ(live.totalFlops(), wl.trace.totalFlops());
}

TEST(StitchingValidation, StitchedTotalsCloseToLiveExecution)
{
    Workload wl = validationWorkload();
    EpochDb db(wl);
    Transmuter sim(wl.params);
    ReconfigCostModel cost(wl.params);

    // A realistic dynamic schedule: the energy oracle over a few
    // candidates (switches a handful of times).
    ConfigSpace space(MemType::Cache);
    Rng rng(7);
    std::vector<HwConfig> candidates = space.sample(6, rng);
    candidates.push_back(baselineConfig());
    const Schedule s = oracleSchedule(
        db, candidates, OptMode::EnergyEfficient, cost,
        baselineConfig());

    const auto stitched = evaluateSchedule(
        db, s, cost, OptMode::EnergyEfficient, baselineConfig());
    // The live run starts in s.configs.front(); align the stitched
    // frame by using the same initial (no extra first switch).
    const auto stitched_aligned = evaluateSchedule(
        db, s, cost, OptMode::EnergyEfficient, s.configs.front());
    const SimResult live = sim.runSchedule(wl.trace, s, cost, true);

    EXPECT_DOUBLE_EQ(live.totalFlops(), stitched.flops);
    // Stitching ignores cross-epoch cache carryover (cold-start per
    // segment) and the live run pays real flush effects; agreement
    // within 50% both ways validates the methodology's assumptions at
    // this epoch granularity.
    EXPECT_LT(live.totalSeconds(), 1.5 * stitched_aligned.seconds);
    EXPECT_GT(live.totalSeconds(), stitched_aligned.seconds / 1.5);
    EXPECT_LT(live.totalEnergy(), 1.5 * stitched_aligned.energy);
    EXPECT_GT(live.totalEnergy(), stitched_aligned.energy / 1.5);
}

TEST(StitchingValidation, LiveReconfigurationChangesClockDomain)
{
    Workload wl = validationWorkload();
    EpochDb db(wl);
    Transmuter sim(wl.params);
    ReconfigCostModel cost(wl.params);
    ASSERT_GE(db.numEpochs(), 3u);
    // Switch the clock down after the first epoch.
    Schedule s = Schedule::uniform(baselineConfig(), db.numEpochs());
    HwConfig slow = withParam(baselineConfig(), Param::Clock, 2);
    for (std::size_t e = 1; e < s.configs.size(); ++e)
        s.configs[e] = slow;
    const SimResult live = sim.runSchedule(wl.trace, s, cost, false);
    EXPECT_DOUBLE_EQ(live.epochs.front().counters.clockNorm, 1.0);
    EXPECT_DOUBLE_EQ(live.epochs.back().counters.clockNorm, 0.125);
}

TEST(StitchingValidation, LiveFlushCausesColdMisses)
{
    Workload wl = validationWorkload();
    EpochDb db(wl);
    Transmuter sim(wl.params);
    ReconfigCostModel cost(wl.params);
    ASSERT_GE(db.numEpochs(), 4u);
    // Mid-run L1 sharing flip forces a flush; the following epoch's
    // miss rate should not be lower than the static run's.
    const std::size_t flip = db.numEpochs() / 2;
    Schedule s = Schedule::uniform(baselineConfig(), db.numEpochs());
    for (std::size_t e = flip; e < s.configs.size(); ++e)
        s.configs[e] = withParam(baselineConfig(),
                                 Param::L1Sharing, 1);
    const SimResult live = sim.runSchedule(wl.trace, s, cost, true);
    EXPECT_GT(live.epochs[flip].counters.l1MissRate, 0.0);
}
