/**
 * @file
 * Shared fixtures for the replay-prefix tests: bit-exact EpochRecord
 * comparison, and one small workload per replay path the engine has
 * (SpMSpM on cache L1, SpMSpV on cache L1, SpMSpV on SPM L1).
 */

#ifndef SADAPT_TESTS_EPOCH_RECORDS_HH
#define SADAPT_TESTS_EPOCH_RECORDS_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "adapt/workload.hh"
#include "common/rng.hh"
#include "sim/config.hh"
#include "sparse/generators.hh"

namespace sadapt::test {

inline std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Every field of two records equal, doubles by bit pattern. */
inline void
expectSameRecord(const EpochRecord &got, const EpochRecord &want)
{
    EXPECT_EQ(got.index, want.index);
    EXPECT_EQ(got.phase, want.phase);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(bits(got.seconds), bits(want.seconds));
    EXPECT_EQ(bits(got.flops), bits(want.flops));
    EXPECT_EQ(bits(got.energy.core), bits(want.energy.core));
    EXPECT_EQ(bits(got.energy.cache), bits(want.energy.cache));
    EXPECT_EQ(bits(got.energy.xbar), bits(want.energy.xbar));
    EXPECT_EQ(bits(got.energy.dram), bits(want.energy.dram));
    EXPECT_EQ(bits(got.energy.background),
              bits(want.energy.background));
    EXPECT_EQ(got.telemetryValid, want.telemetryValid);
    const std::vector<double> g = got.counters.toVector();
    const std::vector<double> w = want.counters.toVector();
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t i = 0; i < g.size(); ++i)
        EXPECT_EQ(bits(g[i]), bits(w[i]))
            << PerfCounterSample::names()[i];
}

/** `got` holds exactly the first got.size() records of `want`. */
inline void
expectPrefixOf(const std::vector<EpochRecord> &got,
               const std::vector<EpochRecord> &want)
{
    ASSERT_LE(got.size(), want.size());
    for (std::size_t e = 0; e < got.size(); ++e) {
        SCOPED_TRACE("epoch " + std::to_string(e));
        expectSameRecord(got[e], want[e]);
    }
}

/** One workload plus a configuration to replay it under. */
struct PrefixCase
{
    std::string what;
    Workload workload;
    HwConfig cfg;
};

/**
 * The three replay paths at a few to a dozen epochs each: the epoch
 * sizes are small so every trace closes several epochs.
 */
inline std::vector<PrefixCase>
prefixCases()
{
    Rng rng(43);
    const CsrMatrix a = makeUniformRandom(96, 700, rng);
    const SparseVector x = SparseVector::random(96, 0.5, rng);
    std::vector<PrefixCase> cases;

    WorkloadOptions spmspm;
    spmspm.epochFpOps = 150;
    cases.push_back({"spmspm cache L1",
                     makeSpMSpMWorkload("prefix_spmspm", a, spmspm),
                     bestAvgConfig(MemType::Cache)});

    WorkloadOptions spmspv;
    spmspv.epochFpOps = 10;
    cases.push_back({"spmspv cache L1",
                     makeSpMSpVWorkload("prefix_spmspv", a, x, spmspv),
                     maxConfig()});

    WorkloadOptions spm = spmspv;
    spm.l1Type = MemType::Spm;
    cases.push_back({"spmspv SPM L1",
                     makeSpMSpVWorkload("prefix_spm", a, x, spm),
                     bestAvgConfig(MemType::Spm)});
    return cases;
}

} // namespace sadapt::test

#endif // SADAPT_TESTS_EPOCH_RECORDS_HH
