/**
 * @file
 * Tests for the Figure 4 best-config search and the Section 4.4
 * hysteresis policies.
 */

#include <gtest/gtest.h>

#include "adapt/policy.hh"
#include "adapt/search.hh"
#include "common/rng.hh"
#include "sparse/generators.hh"

using namespace sadapt;

namespace {

Workload
searchWorkload()
{
    static Rng rng(3);
    CsrMatrix a = makeUniformRandom(128, 1000, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 200;
    SparseVector x = SparseVector::random(128, 0.5, rng);
    return makeSpMSpVWorkload("search", a, x, wo);
}

} // namespace

TEST(Search, ReturnsKSamples)
{
    Workload wl = searchWorkload();
    EpochDb db(wl);
    Rng rng(1);
    SearchParams sp;
    sp.randomSamples = 6;
    sp.neighborEval = false;
    sp.dimensionSweep = false;
    auto out = findBestConfig(db, OptMode::EnergyEfficient, -1, sp,
                              rng);
    EXPECT_EQ(out.sampled.size(), 6u);
    EXPECT_EQ(out.best, out.bestNeighbor);
    EXPECT_EQ(out.best, out.bestRandom);
}

TEST(Search, EachStepNeverRegresses)
{
    Workload wl = searchWorkload();
    EpochDb db(wl);
    Rng rng(2);
    SearchParams sp;
    sp.randomSamples = 6;
    sp.neighborCap = 12;
    auto out = findBestConfig(db, OptMode::EnergyEfficient, -1, sp,
                              rng);
    const double m_rand =
        staticPhaseMetric(db, out.bestRandom,
                          OptMode::EnergyEfficient, -1);
    const double m_neigh =
        staticPhaseMetric(db, out.bestNeighbor,
                          OptMode::EnergyEfficient, -1);
    EXPECT_GE(m_neigh, m_rand);
    // The final dimension-sweep point combines per-dimension argmaxes
    // under a conditional-independence assumption; it is not
    // guaranteed to beat Y_neigh, but must be a valid config.
    EXPECT_LT(out.best.encode(), ConfigSpace(MemType::Cache).size());
}

TEST(Search, StaticPhaseMetricAllEpochsMatchesResult)
{
    Workload wl = searchWorkload();
    EpochDb db(wl);
    const HwConfig cfg = baselineConfig();
    const SimResult &res = db.result(cfg);
    EXPECT_DOUBLE_EQ(
        staticPhaseMetric(db, cfg, OptMode::EnergyEfficient, -1),
        metricValue(OptMode::EnergyEfficient, res.totalFlops(),
                    res.totalSeconds(), res.totalEnergy()));
}

TEST(Policy, AggressiveAlwaysFollowsPrediction)
{
    ReconfigCostModel cost(SystemShape{2, 8}, 1e9, EnergyParams{});
    Policy policy(PolicyKind::Aggressive);
    const HwConfig cur = maxConfig();
    const HwConfig pred = baselineConfig();
    EXPECT_EQ(policy.apply(cur, pred, 1e-6, cost, true), pred);
}

TEST(Policy, ConservativeAllowsSuperFineOnly)
{
    ReconfigCostModel cost(SystemShape{2, 8}, 1e9, EnergyParams{});
    Policy policy(PolicyKind::Conservative);
    HwConfig cur = maxConfig();
    // Prediction changes the clock (super-fine) AND drops L1 capacity
    // (flush): only the clock change should be taken.
    HwConfig pred = withParam(cur, Param::Clock, 2);
    pred = withParam(pred, Param::L1Cap, 0);
    const HwConfig out = policy.apply(cur, pred, 1e-6, cost, true);
    EXPECT_EQ(paramValue(out, Param::Clock), 2u);
    EXPECT_EQ(paramValue(out, Param::L1Cap),
              paramValue(cur, Param::L1Cap));
}

TEST(Policy, ConservativeAllowsCapacityIncrease)
{
    ReconfigCostModel cost(SystemShape{2, 8}, 1e9, EnergyParams{});
    Policy policy(PolicyKind::Conservative);
    const HwConfig cur = baselineConfig();
    const HwConfig pred = withParam(cur, Param::L2Cap, 4);
    EXPECT_EQ(policy.apply(cur, pred, 1e-6, cost, true), pred);
}

TEST(Policy, HybridGatesOnEpochTime)
{
    ReconfigCostModel cost(SystemShape{2, 8}, 1e9, EnergyParams{});
    Policy policy(PolicyKind::Hybrid, 0.4);
    HwConfig cur = maxConfig();
    const HwConfig pred = withParam(cur, Param::L1Sharing, 1); // flush
    // Short epoch: the flush dwarfs 40% of the epoch -> rejected.
    EXPECT_EQ(policy.apply(cur, pred, 1e-6, cost, false), cur);
    // Very long epoch: accepted.
    EXPECT_EQ(policy.apply(cur, pred, 10.0, cost, false), pred);
}

TEST(Policy, HybridToleranceOrdering)
{
    // A larger tolerance accepts everything a smaller one accepts.
    ReconfigCostModel cost(SystemShape{2, 8}, 1e9, EnergyParams{});
    HwConfig cur = maxConfig();
    HwConfig pred = withParam(cur, Param::L2Sharing, 1);
    pred = withParam(pred, Param::Clock, 1);
    const Seconds epoch = 2e-4;
    const HwConfig tight =
        Policy(PolicyKind::Hybrid, 0.05).apply(cur, pred, epoch, cost,
                                               false);
    const HwConfig loose =
        Policy(PolicyKind::Hybrid, 10.0).apply(cur, pred, epoch, cost,
                                               false);
    EXPECT_EQ(loose, pred);
    // The tight policy keeps the clock change (cheap) only.
    EXPECT_EQ(paramValue(tight, Param::Clock), 1u);
    EXPECT_EQ(paramValue(tight, Param::L2Sharing),
              paramValue(cur, Param::L2Sharing));
}

TEST(Policy, NoChangeIsIdentity)
{
    ReconfigCostModel cost(SystemShape{2, 8}, 1e9, EnergyParams{});
    for (PolicyKind k : {PolicyKind::Conservative,
                         PolicyKind::Aggressive, PolicyKind::Hybrid}) {
        Policy policy(k);
        const HwConfig cur = bestAvgConfig(MemType::Cache);
        EXPECT_EQ(policy.apply(cur, cur, 1e-6, cost, true), cur);
    }
}
