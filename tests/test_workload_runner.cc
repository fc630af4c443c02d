/**
 * @file
 * Integration tests of the workload factories and the high-level
 * Comparison runner, including the SPM compile-time path end to end.
 */

#include <gtest/gtest.h>

#include "adapt/runner.hh"
#include "common/rng.hh"
#include "sparse/generators.hh"

using namespace sadapt;

namespace {

CsrMatrix
testMatrix()
{
    static Rng rng(41);
    return makeRmat(128, 1200, rng);
}

} // namespace

TEST(WorkloadFactory, SpMSpMDefaultsMatchPaper)
{
    Workload wl = makeSpMSpMWorkload("mm", testMatrix(),
                                     WorkloadOptions{});
    EXPECT_EQ(wl.params.epochFpOps, 5000u); // Section 5.4
    EXPECT_EQ(wl.params.shape.numGpes(), 16u); // 2x8, Section 5.2
    EXPECT_DOUBLE_EQ(wl.params.memBandwidth, 1e9);
    EXPECT_EQ(wl.l1Type, MemType::Cache);
    EXPECT_EQ(wl.trace.phaseNames().size(), 2u);
}

TEST(WorkloadFactory, SpMSpVDefaultsMatchPaper)
{
    Rng rng(2);
    SparseVector x = SparseVector::random(128, 0.5, rng);
    Workload wl = makeSpMSpVWorkload("mv", testMatrix(), x,
                                     WorkloadOptions{});
    EXPECT_EQ(wl.params.epochFpOps, 500u); // Section 5.4
    EXPECT_EQ(wl.trace.phaseNames().size(), 1u);
}

TEST(WorkloadFactory, OptionsPlumbThrough)
{
    WorkloadOptions wo;
    wo.shape = SystemShape{4, 4};
    wo.memBandwidth = 5e9;
    wo.l1Type = MemType::Spm;
    wo.epochFpOps = 123;
    Rng rng(3);
    SparseVector x = SparseVector::random(128, 0.5, rng);
    Workload wl = makeSpMSpVWorkload("mv", testMatrix(), x, wo);
    EXPECT_EQ(wl.params.epochFpOps, 123u);
    EXPECT_EQ(wl.params.shape, (SystemShape{4, 4}));
    EXPECT_DOUBLE_EQ(wl.params.memBandwidth, 5e9);
    EXPECT_EQ(wl.l1Type, MemType::Spm);
    // SPM traces carry scratchpad ops.
    bool has_spm_op = false;
    for (std::uint32_t g = 0; g < 16; ++g) {
        const StreamView s = wl.trace.gpeStream(g);
        for (std::size_t i = 0; i < s.size; ++i)
            has_spm_op |= s.op(i).kind == OpKind::SpmLoad ||
                s.op(i).kind == OpKind::SpmStore;
    }
    EXPECT_TRUE(has_spm_op);
}

TEST(ComparisonRunner, SpmWorkloadEndToEnd)
{
    WorkloadOptions wo;
    wo.l1Type = MemType::Spm;
    wo.epochFpOps = 100;
    Rng rng(4);
    SparseVector x = SparseVector::random(128, 0.5, rng);
    Workload wl = makeSpMSpVWorkload("spm", testMatrix(), x, wo);
    ComparisonOptions co;
    co.oracleSamples = 6;
    Comparison cmp(wl, nullptr, co);
    // All schemes run on the SPM config space and produce sane evals.
    for (auto ev : {cmp.baseline(), cmp.bestAvg(), cmp.maxCfg(),
                    cmp.idealStatic(), cmp.idealGreedy(),
                    cmp.oracle()}) {
        EXPECT_GT(ev.flops, 0.0);
        EXPECT_GT(ev.seconds, 0.0);
        EXPECT_GT(ev.energy, 0.0);
    }
    // Candidates respect the workload's L1 type.
    for (const auto &cfg : cmp.candidates())
        EXPECT_EQ(cfg.l1Type, MemType::Spm);
}

TEST(ComparisonRunner, StaticEvalsAreDeterministic)
{
    Rng rng(5);
    SparseVector x = SparseVector::random(128, 0.5, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 100;
    Workload wl = makeSpMSpVWorkload("det", testMatrix(), x, wo);
    ComparisonOptions co;
    co.oracleSamples = 4;
    Comparison a(wl, nullptr, co);
    Comparison b(wl, nullptr, co);
    EXPECT_DOUBLE_EQ(a.baseline().energy, b.baseline().energy);
    EXPECT_DOUBLE_EQ(a.oracle().energy, b.oracle().energy);
}

TEST(ComparisonRunner, ProfilingFractionAffectsNaivePa)
{
    Rng rng(6);
    SparseVector x = SparseVector::random(128, 0.5, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 100;
    Workload wl = makeSpMSpVWorkload("pa", testMatrix(), x, wo);
    ComparisonOptions lo, hi;
    lo.oracleSamples = hi.oracleSamples = 4;
    lo.profilingFraction = 0.1;
    hi.profilingFraction = 0.6;
    Comparison cl(wl, nullptr, lo), ch(wl, nullptr, hi);
    // Spending longer in the profiling (max) configuration burns more
    // energy per epoch.
    EXPECT_LT(cl.profileAdapt(false).energy,
              ch.profileAdapt(false).energy);
}
