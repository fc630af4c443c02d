/**
 * @file
 * Tests for the epoch database and the schedule stitching engine
 * (Appendix A.7 methodology).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "adapt/epoch_db.hh"
#include "common/rng.hh"
#include "epoch_records.hh"
#include "sparse/generators.hh"

using namespace sadapt;

namespace {

Workload
smallWorkload(std::uint64_t epoch_fp = 100)
{
    static Rng rng(1);
    CsrMatrix a = makeUniformRandom(128, 1200, rng);
    WorkloadOptions wo;
    wo.epochFpOps = epoch_fp;
    SparseVector x = SparseVector::random(128, 0.5, rng);
    return makeSpMSpVWorkload("test", a, x, wo);
}

} // namespace

TEST(EpochDb, MemoizesSimulations)
{
    Workload wl = smallWorkload();
    EpochDb db(wl);
    EXPECT_EQ(db.simulatedConfigs(), 0u);
    db.result(baselineConfig());
    EXPECT_EQ(db.simulatedConfigs(), 1u);
    db.result(baselineConfig());
    EXPECT_EQ(db.simulatedConfigs(), 1u);
    db.result(maxConfig());
    EXPECT_EQ(db.simulatedConfigs(), 2u);
}

TEST(EpochDb, EpochCountsAlign)
{
    Workload wl = smallWorkload();
    EpochDb db(wl);
    const std::size_t n = db.numEpochs();
    EXPECT_GT(n, 2u);
    EXPECT_EQ(db.epochs(maxConfig()).size(), n);
    EXPECT_EQ(db.epochs(bestAvgConfig(MemType::Cache)).size(), n);
}

TEST(EpochDb, EnsureDeduplicatesWithinOneBatch)
{
    // A candidate batch routinely names the same configuration more
    // than once (e.g. the incumbent plus sampled neighbors); ensure()
    // must replay each distinct configuration exactly once, in any
    // jobs mode.
    Workload wl = smallWorkload();
    for (unsigned jobs : {1u, 4u}) {
        EpochDb db(wl);
        db.setJobs(jobs);
        const std::vector<HwConfig> batch = {
            baselineConfig(), maxConfig(), baselineConfig(),
            maxConfig(),      baselineConfig()};
        db.ensure(batch);
        EXPECT_EQ(db.simulatedConfigs(), 2u) << "jobs=" << jobs;
    }
}

TEST(EpochDb, InterleavedEnsureAndResultCalls)
{
    // Mixing direct result() lookups with ensure() batches (the real
    // sweep pattern: oracle prefetch, then per-epoch queries) must
    // neither re-simulate nor diverge from the pure-serial database.
    Workload wl = smallWorkload();
    EpochDb serial(wl);

    EpochDb db(wl);
    db.setJobs(4);
    db.result(baselineConfig()); // cached before the batch arrives
    const std::vector<HwConfig> batch = {
        baselineConfig(), maxConfig(), bestAvgConfig(MemType::Cache)};
    db.ensure(batch);
    EXPECT_EQ(db.simulatedConfigs(), 3u);

    const SimResult &mid = db.result(maxConfig());
    EXPECT_DOUBLE_EQ(mid.totalSeconds(),
                     serial.result(maxConfig()).totalSeconds());
    EXPECT_DOUBLE_EQ(mid.totalEnergy(),
                     serial.result(maxConfig()).totalEnergy());

    db.ensure(batch); // fully cached: a no-op, not a re-simulation
    EXPECT_EQ(db.simulatedConfigs(), 3u);
    EXPECT_DOUBLE_EQ(
        db.result(baselineConfig()).totalFlops(),
        serial.result(baselineConfig()).totalFlops());
}

/*
 * A budgeted database records the first min(budget, N) epochs of each
 * full run, on both the serial and the parallel ensure() path.
 */
TEST(EpochDb, BudgetKeepsABitExactPrefixOfEveryConfig)
{
    for (const test::PrefixCase &c : test::prefixCases()) {
        SCOPED_TRACE(c.what);
        const Workload &wl = c.workload;
        Rng rng(17);
        std::vector<HwConfig> cfgs = ConfigSpace(wl.l1Type).sample(4, rng);
        cfgs.push_back(c.cfg);
        cfgs.push_back(baselineConfig(wl.l1Type));

        EpochDb full(wl);
        const std::size_t n = full.numEpochs();
        ASSERT_GE(n, 3u);
        EXPECT_EQ(full.epochBudget(), 0u);
        for (std::size_t budget : {std::size_t{1}, n / 2, n, n + 3}) {
            SCOPED_TRACE("budget " + std::to_string(budget));
            EpochDb serial(wl, budget);
            EXPECT_EQ(serial.epochBudget(), budget);
            EXPECT_EQ(serial.numEpochs(), std::min(budget, n));
            serial.ensure(cfgs);

            EpochDb wide(wl, budget);
            wide.setJobs(4);
            wide.ensure(cfgs);
            EXPECT_EQ(wide.numEpochs(), std::min(budget, n));
            EXPECT_EQ(wide.simulatedConfigs(),
                      serial.simulatedConfigs());
            for (const HwConfig &cfg : cfgs) {
                const auto &want = serial.epochs(cfg);
                ASSERT_EQ(want.size(), std::min(budget, n));
                ASSERT_EQ(wide.epochs(cfg).size(), want.size());
                test::expectPrefixOf(wide.epochs(cfg), want);
                test::expectPrefixOf(want, full.epochs(cfg));
            }
        }
    }
}

TEST(Schedule, UniformAndSwitchCount)
{
    Schedule s = Schedule::uniform(baselineConfig(), 5);
    EXPECT_EQ(s.configs.size(), 5u);
    EXPECT_EQ(s.switchCount(), 0u);
    s.configs[2] = maxConfig();
    EXPECT_EQ(s.switchCount(), 2u); // in and out
}

TEST(EvaluateSchedule, StaticMatchesRawSimulation)
{
    Workload wl = smallWorkload();
    EpochDb db(wl);
    ReconfigCostModel cost(wl.params);
    const HwConfig cfg = baselineConfig();
    ScheduleEval ev = evaluateSchedule(
        db, Schedule::uniform(cfg, db.numEpochs()), cost,
        OptMode::EnergyEfficient, cfg);
    const SimResult &raw = db.result(cfg);
    EXPECT_DOUBLE_EQ(ev.flops, raw.totalFlops());
    EXPECT_DOUBLE_EQ(ev.seconds, raw.totalSeconds());
    EXPECT_DOUBLE_EQ(ev.energy, raw.totalEnergy());
    EXPECT_EQ(ev.reconfigCount, 0u);
}

TEST(EvaluateSchedule, ChargesReconfigurationAtSeams)
{
    Workload wl = smallWorkload();
    EpochDb db(wl);
    ReconfigCostModel cost(wl.params);
    Schedule s = Schedule::uniform(baselineConfig(), db.numEpochs());
    ASSERT_GE(s.configs.size(), 3u);
    s.configs[1] = maxConfig(); // two seams
    ScheduleEval ev = evaluateSchedule(db, s, cost,
                                       OptMode::EnergyEfficient,
                                       baselineConfig());
    EXPECT_EQ(ev.reconfigCount, 2u);
    EXPECT_GT(ev.reconfigSeconds, 0.0);
    EXPECT_GT(ev.reconfigEnergy, 0.0);

    // Totals exceed the stitched epochs alone by exactly the penalty.
    ScheduleEval base = evaluateSchedule(
        db, Schedule::uniform(baselineConfig(), db.numEpochs()), cost,
        OptMode::EnergyEfficient, baselineConfig());
    EXPECT_GT(ev.seconds - ev.reconfigSeconds, 0.0);
    EXPECT_NE(ev.seconds, base.seconds);
}

TEST(EvaluateSchedule, InitialSwitchCharged)
{
    Workload wl = smallWorkload();
    EpochDb db(wl);
    ReconfigCostModel cost(wl.params);
    ScheduleEval ev = evaluateSchedule(
        db, Schedule::uniform(maxConfig(), db.numEpochs()), cost,
        OptMode::EnergyEfficient, baselineConfig());
    EXPECT_EQ(ev.reconfigCount, 1u);
}

TEST(ScheduleEval, MetricConsistency)
{
    ScheduleEval ev;
    ev.flops = 4e9;
    ev.seconds = 2.0;
    ev.energy = 8.0;
    EXPECT_DOUBLE_EQ(ev.gflops(), 2.0);
    EXPECT_DOUBLE_EQ(ev.gflopsPerWatt(), 0.5);
    EXPECT_DOUBLE_EQ(ev.metric(OptMode::EnergyEfficient), 0.5);
    EXPECT_DOUBLE_EQ(ev.metric(OptMode::PowerPerformance), 2.0);
}

/*
 * Without a store or metrics, an entry replays only as far as it is
 * read: epoch(cfg, e) resumes the configuration's replay up to record
 * e, a read behind that replays nothing, and result() finishes it.
 * Every record equals the one-shot run's, bit for bit.
 */
TEST(EpochDb, PartialReadsReplayOnlyWhatIsRead)
{
    for (const test::PrefixCase &c : test::prefixCases()) {
        SCOPED_TRACE(c.what);
        const Workload &wl = c.workload;
        const SimResult want = Transmuter(wl.params).run(wl.trace, c.cfg);
        const std::size_t n = want.epochs.size();
        ASSERT_GE(n, 4u);

        EpochDb db(wl);
        EXPECT_EQ(db.numEpochs(), n);
        EXPECT_EQ(db.epochsReplayed(), 0u);
        EXPECT_EQ(db.simulatedConfigs(), 0u);

        test::expectSameRecord(db.epoch(c.cfg, 0), want.epochs[0]);
        EXPECT_EQ(db.epochsReplayed(), 1u);
        const EpochRecord &third = db.epoch(c.cfg, 2);
        test::expectSameRecord(third, want.epochs[2]);
        EXPECT_EQ(db.epochsReplayed(), 3u);
        test::expectSameRecord(db.epoch(c.cfg, 1), want.epochs[1]);
        EXPECT_EQ(db.epochsReplayed(), 3u);
        EXPECT_EQ(db.simulatedConfigs(), 1u);

        // Completing the entry keeps earlier references valid.
        test::expectPrefixOf(db.epochs(c.cfg), want.epochs);
        EXPECT_EQ(db.epochs(c.cfg).size(), n);
        EXPECT_EQ(&third, &db.epochs(c.cfg)[2]);
        EXPECT_EQ(db.epochsReplayed(), n);
        db.epoch(c.cfg, n - 1);
        EXPECT_EQ(db.epochsReplayed(), n);
    }
}

/*
 * A database with metrics attached completes every replay at first
 * touch, and its first numEpochs() replays the baseline, so the
 * exported sim/ metrics do not depend on how the records are read.
 */
TEST(EpochDb, AttachedMetricsCompleteEveryReplayAtFirstTouch)
{
    Workload wl = smallWorkload();
    const std::size_t n = EpochDb(wl).numEpochs();

    obs::MetricRegistry metrics;
    EpochDb db(wl);
    db.attachMetrics(&metrics);
    EXPECT_EQ(db.numEpochs(), n);
    EXPECT_EQ(db.simulatedConfigs(), 1u);
    EXPECT_EQ(db.epochsReplayed(), n);
    db.epoch(maxConfig(), 0);
    EXPECT_EQ(db.epochsReplayed(), 2 * n);

    obs::MetricRegistry whole;
    EpochDb ref(wl);
    ref.attachMetrics(&whole);
    ref.result(baselineConfig());
    ref.result(maxConfig());
    std::ostringstream a, b;
    metrics.writeText(a);
    whole.writeText(b);
    EXPECT_EQ(a.str(), b.str());
}

/*
 * Stitching a schedule prefix reads each configuration only up to the
 * last epoch the schedule runs it in, and gives the same evaluation
 * as a database that replayed everything.
 */
TEST(EpochDb, StitchedPrefixReplaysOnlyTheEpochsItReads)
{
    Workload wl = smallWorkload(40);
    const ReconfigCostModel cost(wl.params);
    EpochDb full(wl);
    ASSERT_GE(full.numEpochs(), 6u);
    Schedule s;
    s.configs = {baselineConfig(), baselineConfig(), maxConfig(),
                 baselineConfig(), maxConfig()};
    for (const HwConfig &cfg : s.configs)
        full.result(cfg);

    EpochDb lazy(wl);
    const ScheduleEval got = evaluateSchedulePrefix(
        lazy, s, cost, OptMode::EnergyEfficient, baselineConfig());
    const ScheduleEval want = evaluateSchedulePrefix(
        full, s, cost, OptMode::EnergyEfficient, baselineConfig());
    // Baseline up to epoch 3, max up to epoch 4.
    EXPECT_EQ(lazy.epochsReplayed(), 4u + 5u);
    EXPECT_EQ(got.seconds, want.seconds);
    EXPECT_EQ(got.energy, want.energy);
    EXPECT_EQ(got.flops, want.flops);
    EXPECT_EQ(got.reconfigCount, want.reconfigCount);
}
