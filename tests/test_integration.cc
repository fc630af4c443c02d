/**
 * @file
 * End-to-end integration tests: the full Figure 3a loop (train on a
 * Table 3 style sweep, predict from telemetry, filter with a policy,
 * stitch and evaluate) on workloads with explicit and implicit
 * phases.
 */

#include <gtest/gtest.h>

#include "adapt/runner.hh"
#include "common/rng.hh"
#include "sparse/generators.hh"

using namespace sadapt;

namespace {

/** One small trained predictor, shared across this file's tests. */
const Predictor &
sharedPredictor()
{
    static const Predictor pred = [] {
        TrainerOptions opts;
        opts.mode = OptMode::EnergyEfficient;
        opts.includeSpMSpM = false;
        opts.spmspvDims = {256};
        opts.densities = {0.01, 0.04};
        opts.bandwidths = {1e9};
        opts.search.randomSamples = 10;
        opts.search.neighborCap = 12;
        opts.seed = 77;
        Predictor p;
        Rng rng(78);
        p.train(buildTrainingSet(opts), rng);
        return p;
    }();
    return pred;
}

} // namespace

TEST(Integration, SparseAdaptBeatsBaselineOnHeldOutWorkload)
{
    // Held-out input: power-law instead of the uniform training data.
    Rng rng(80);
    CsrMatrix a = makeRmat(512, 6000, rng);
    SparseVector x = SparseVector::random(512, 0.5, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 200;
    Workload wl = makeSpMSpVWorkload("heldout", a, x, wo);

    ComparisonOptions co;
    co.mode = OptMode::EnergyEfficient;
    co.oracleSamples = 8;
    co.policy = Policy(PolicyKind::Hybrid, 0.4);
    Comparison cmp(wl, &sharedPredictor(), co);
    const auto base = cmp.baseline();
    const auto sa = cmp.sparseAdapt();
    EXPECT_GT(sa.metric(OptMode::EnergyEfficient),
              base.metric(OptMode::EnergyEfficient));
}

TEST(Integration, ConservativePolicyNeverCatastrophic)
{
    // The hysteresis policy must bound the downside: even with a
    // predictor trained on a different kernel class, SparseAdapt with
    // the conservative policy stays close to or above the baseline.
    Rng rng(81);
    CsrMatrix a = makeUniformRandom(256, 3000, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 300;
    Workload wl = makeSpMSpMWorkload("mm-guard", a, wo);

    ComparisonOptions co;
    co.mode = OptMode::EnergyEfficient;
    co.oracleSamples = 8;
    co.policy = Policy(PolicyKind::Conservative);
    Comparison cmp(wl, &sharedPredictor(), co);
    const auto base = cmp.baseline();
    const auto sa = cmp.sparseAdapt();
    EXPECT_GT(sa.metric(OptMode::EnergyEfficient),
              0.75 * base.metric(OptMode::EnergyEfficient));
}

TEST(Integration, ScheduleAccessorConsistentWithEval)
{
    Rng rng(82);
    CsrMatrix a = makeRmat(256, 2500, rng);
    SparseVector x = SparseVector::random(256, 0.5, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 150;
    Workload wl = makeSpMSpVWorkload("sched", a, x, wo);
    ComparisonOptions co;
    co.policy = Policy(PolicyKind::Hybrid, 0.4);
    Comparison cmp(wl, &sharedPredictor(), co);
    const Schedule &s = cmp.sparseAdaptSchedule();
    const auto ev = cmp.sparseAdapt();
    ReconfigCostModel cost(wl.params);
    const auto manual = evaluateSchedule(
        cmp.db(), s, cost, co.mode, cmp.initialConfig());
    EXPECT_DOUBLE_EQ(ev.energy, manual.energy);
    EXPECT_DOUBLE_EQ(ev.seconds, manual.seconds);
}

TEST(Integration, StrongImplicitPhasesGiveDynamicHeadroom)
{
    // The Figure 1 premise: strip-structured SpMSpM has implicit
    // phases strong enough that the oracle beats the best static
    // configuration on energy.
    Rng rng(83);
    CsrMatrix a = makeStripStructured(96, 0.2, 5, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 600;
    Workload wl = makeSpMSpMWorkload("strip", a, wo);
    ComparisonOptions co;
    co.mode = OptMode::EnergyEfficient;
    co.oracleSamples = 16;
    co.seed = 5;
    Comparison cmp(wl, nullptr, co);
    const auto oracle = cmp.oracle();
    const auto stat = cmp.idealStatic();
    EXPECT_LT(oracle.energy, stat.energy);
}
