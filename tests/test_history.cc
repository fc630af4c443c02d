/**
 * @file
 * Tests for the history-based prediction extension (Section 7).
 */

#include <gtest/gtest.h>

#include "adapt/history.hh"
#include "adapt/telemetry.hh"
#include "common/rng.hh"
#include "sparse/generators.hh"

using namespace sadapt;

namespace {

Workload
historyWorkload()
{
    static Rng rng(21);
    CsrMatrix a = makeRmat(256, 2500, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 50;
    SparseVector x = SparseVector::random(256, 0.5, rng);
    return makeSpMSpVWorkload("hist", a, x, wo);
}

} // namespace

TEST(HistoryFeatures, LayoutExtendsTelemetry)
{
    EXPECT_EQ(numHistoryFeatures(),
              numParams + 2 * PerfCounterSample::count());
    EXPECT_EQ(historyFeatureNames().size(), numHistoryFeatures());
    EXPECT_EQ(historyFeatureNames().back(),
              "delta_mem_write_bw_util");
}

TEST(HistoryFeatures, DeltaIsDifferenceOfCounters)
{
    PerfCounterSample cur, prev;
    cur.l1MissRate = 0.7;
    prev.l1MissRate = 0.2;
    const auto f =
        buildHistoryFeatures(baselineConfig(), cur, prev);
    ASSERT_EQ(f.size(), numHistoryFeatures());
    const auto &names = historyFeatureNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == "delta_l1_miss_rate") {
            EXPECT_NEAR(f[i], 0.5, 1e-12);
        }
        if (names[i] == "l1_miss_rate") {
            EXPECT_NEAR(f[i], 0.7, 1e-12);
        }
    }
}

TEST(HistoryFeatures, IdenticalEpochsHaveZeroDeltas)
{
    PerfCounterSample c;
    c.gpeIpc = 0.4;
    const auto f = buildHistoryFeatures(maxConfig(), c, c);
    for (std::size_t i = numTelemetryFeatures(); i < f.size(); ++i)
        EXPECT_DOUBLE_EQ(f[i], 0.0);
}

TEST(HistoryTrainer, HarvestsSequenceExamples)
{
    Workload wl = historyWorkload();
    EpochDb db(wl);
    Rng rng(1);
    TrainingSet set =
        buildHistoryTrainingSet(db, OptMode::EnergyEfficient, 5, rng);
    // 5 samples x (epochs - 2) examples.
    EXPECT_EQ(set.size(), 5 * (db.numEpochs() - 2));
    EXPECT_EQ(set.perParam[0].numFeatures(), numHistoryFeatures());
}

TEST(HistoryTrainer, MergeAppendsRows)
{
    Workload wl = historyWorkload();
    EpochDb db(wl);
    Rng rng(2);
    TrainingSet a =
        buildHistoryTrainingSet(db, OptMode::EnergyEfficient, 4, rng);
    TrainingSet b =
        buildHistoryTrainingSet(db, OptMode::EnergyEfficient, 3, rng);
    const std::size_t na = a.size();
    mergeTrainingSets(a, b);
    EXPECT_EQ(a.size(), na + b.size());
}

TEST(HistoryPredictor, TrainsAndPredictsValidConfigs)
{
    Workload wl = historyWorkload();
    EpochDb db(wl);
    Rng rng(3);
    TrainingSet set =
        buildHistoryTrainingSet(db, OptMode::EnergyEfficient, 6, rng);
    HistoryPredictor pred;
    TreeParams tp;
    tp.maxDepth = 10;
    pred.train(set, tp);
    EXPECT_TRUE(pred.trained());
    PerfCounterSample cur, prev;
    cur.memReadBwUtil = 0.95;
    const HwConfig out =
        pred.predict(baselineConfig(), cur, prev);
    EXPECT_LT(out.encode(), ConfigSpace(MemType::Cache).size());
}

TEST(HistoryPredictor, ScheduleHasEpochLengthAndStartsAtInitial)
{
    Workload wl = historyWorkload();
    EpochDb db(wl);
    ReconfigCostModel cost(wl.params);
    Rng rng(4);
    TrainingSet set =
        buildHistoryTrainingSet(db, OptMode::EnergyEfficient, 6, rng);
    HistoryPredictor pred;
    pred.train(set, TreeParams{});
    const Schedule s = sparseAdaptHistorySchedule(
        db, pred, Policy(PolicyKind::Hybrid, 0.4),
        OptMode::EnergyEfficient, cost, baselineConfig());
    ASSERT_EQ(s.configs.size(), db.numEpochs());
    EXPECT_EQ(s.configs.front(), baselineConfig());
    // The stitched schedule must be evaluable.
    const auto ev = evaluateSchedule(db, s, cost,
                                     OptMode::EnergyEfficient,
                                     baselineConfig());
    EXPECT_GT(ev.flops, 0.0);
}

TEST(HistoryPredictor, SequenceTrainingBeatsBaselineStatic)
{
    // End-to-end sanity: the history-driven schedule should improve on
    // the static baseline it starts from (it was trained on this very
    // workload, so this is a fitting check, not generalization).
    Workload wl = historyWorkload();
    EpochDb db(wl);
    ReconfigCostModel cost(wl.params);
    Rng rng(5);
    TrainingSet set =
        buildHistoryTrainingSet(db, OptMode::EnergyEfficient, 8, rng);
    HistoryPredictor pred;
    pred.train(set, TreeParams{});
    const Schedule s = sparseAdaptHistorySchedule(
        db, pred, Policy(PolicyKind::Hybrid, 0.4),
        OptMode::EnergyEfficient, cost, baselineConfig());
    const auto adaptive = evaluateSchedule(
        db, s, cost, OptMode::EnergyEfficient, baselineConfig());
    const auto base = evaluateSchedule(
        db, Schedule::uniform(baselineConfig(), db.numEpochs()), cost,
        OptMode::EnergyEfficient, baselineConfig());
    EXPECT_GT(adaptive.metric(OptMode::EnergyEfficient),
              base.metric(OptMode::EnergyEfficient));
}
