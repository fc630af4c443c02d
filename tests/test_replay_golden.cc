/**
 * @file
 * Golden replay pin: every EpochRecord field of a set of replays,
 * folded into one 64-bit digest per case and compared against a
 * committed value.
 *
 * The replay engine's contract is bit-exactness: the global op
 * execution order (earliest core-local cycle first, ties to the lower
 * core id) fixes every integer timing and every floating-point
 * accumulation order. Any change to event ordering, barrier release,
 * epoch closing or the reconfiguration rescale moves a digest here,
 * so an engine rewrite that claims "same bits" is checked against the
 * pinned values instead of against itself. The cases cover both
 * kernels (SpMSpM has barrier phases, SpMSpV has none), the 2x8 and
 * 4x16 shapes, SPM mode, the first three steps of a Replay, a
 * switching runSchedule (the rescale path) and the replay profile
 * counters of an attached metrics registry.
 *
 * On a mismatch the test prints the digest it computed. A new value
 * is only ever committed together with the simulator change that
 * explains it.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/workload.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "sim/config.hh"
#include "sim/reconfig.hh"
#include "sim/schedule.hh"
#include "sim/transmuter.hh"
#include "sparse/generators.hh"

using namespace sadapt;

namespace {

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    word(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }

    void
    text(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
};

std::uint64_t
digestOf(const std::vector<EpochRecord> &epochs)
{
    Digest d;
    d.word(epochs.size());
    for (const EpochRecord &r : epochs) {
        d.word(r.index);
        d.word(static_cast<std::uint64_t>(r.phase));
        d.word(r.cycles);
        d.real(r.seconds);
        d.real(r.flops);
        d.real(r.energy.core);
        d.real(r.energy.cache);
        d.real(r.energy.xbar);
        d.real(r.energy.dram);
        d.real(r.energy.background);
        d.word(r.telemetryValid ? 1 : 0);
        for (double v : r.counters.toVector())
            d.real(v);
    }
    return d.h;
}

void
expectDigest(const std::vector<EpochRecord> &epochs, std::uint64_t want)
{
    ASSERT_FALSE(epochs.empty());
    const std::uint64_t got = digestOf(epochs);
    EXPECT_EQ(got, want) << "computed digest 0x" << std::hex << got
                         << " over " << std::dec << epochs.size()
                         << " epochs";
}

constexpr SystemShape smallShape{2, 8};
constexpr SystemShape bigShape{4, 16};

CsrMatrix
goldenMatrix(std::uint32_t dim, std::uint64_t nnz)
{
    Rng rng(2024);
    return makeUniformRandom(dim, nnz, rng);
}

Workload
spmspm(SystemShape shape, std::uint64_t epoch_fp_ops)
{
    WorkloadOptions wo;
    wo.shape = shape;
    wo.epochFpOps = epoch_fp_ops;
    return makeSpMSpMWorkload("golden_spmspm", goldenMatrix(128, 900),
                              wo);
}

Workload
spmspv(SystemShape shape, MemType l1, std::uint64_t epoch_fp_ops)
{
    const CsrMatrix a = goldenMatrix(192, 1600);
    Rng rng(77);
    const SparseVector x = SparseVector::random(192, 0.5, rng);
    WorkloadOptions wo;
    wo.shape = shape;
    wo.l1Type = l1;
    wo.epochFpOps = epoch_fp_ops;
    return makeSpMSpVWorkload("golden_spmspv", a, x, wo);
}

/** A schedule that switches clock, capacities and sharing modes. */
Schedule
switchingSchedule(MemType l1, std::size_t epochs)
{
    const HwConfig a = baselineConfig(l1);
    const HwConfig b = maxConfig(l1);
    HwConfig c = bestAvgConfig(l1);
    c.clockIdx = 1; // a slow clock: the rescale shrinks every time
    Schedule s;
    for (std::size_t e = 0; e < epochs; ++e)
        s.configs.push_back(e % 3 == 0 ? a : e % 3 == 1 ? b : c);
    return s;
}

} // namespace

TEST(ReplayGolden, SpMSpMSmallShape)
{
    const Workload wl = spmspm(smallShape, 150);
    const SimResult r =
        Transmuter(wl.params).run(wl.trace, bestAvgConfig(MemType::Cache));
    expectDigest(r.epochs, 0xc87f2a01f4f96f0bull);
}

TEST(ReplayGolden, SpMSpMBigShape)
{
    const Workload wl = spmspm(bigShape, 40);
    const SimResult r =
        Transmuter(wl.params).run(wl.trace, maxConfig(MemType::Cache));
    expectDigest(r.epochs, 0x4cdbcd4dbaa26402ull);
}

TEST(ReplayGolden, SpMSpVSmallShape)
{
    const Workload wl = spmspv(smallShape, MemType::Cache, 20);
    const SimResult r =
        Transmuter(wl.params).run(wl.trace, maxConfig(MemType::Cache));
    expectDigest(r.epochs, 0xbc4ed7bc7f55d38full);
}

TEST(ReplayGolden, SpMSpVBigShape)
{
    const Workload wl = spmspv(bigShape, MemType::Cache, 5);
    const SimResult r = Transmuter(wl.params).run(
        wl.trace, baselineConfig(MemType::Cache));
    expectDigest(r.epochs, 0x5e3380c2cc04cab8ull);
}

TEST(ReplayGolden, SpMSpVSpmMode)
{
    const Workload wl = spmspv(smallShape, MemType::Spm, 20);
    const SimResult r =
        Transmuter(wl.params).run(wl.trace, bestAvgConfig(MemType::Spm));
    expectDigest(r.epochs, 0x9ae1ce4d1e274462ull);
}

TEST(ReplayGolden, EpochBudgetPrefix)
{
    const Workload wl = spmspm(smallShape, 150);
    const Transmuter sim(wl.params);
    Replay replay(sim, wl.trace, bestAvgConfig(MemType::Cache));
    std::vector<EpochRecord> prefix;
    for (int e = 0; e < 3; ++e) {
        const std::optional<EpochRecord> rec = replay.step();
        ASSERT_TRUE(rec.has_value());
        prefix.push_back(*rec);
    }
    expectDigest(prefix, 0x21e2181018c87d09ull);
}

TEST(ReplayGolden, SwitchingScheduleSpMSpM)
{
    const Workload wl = spmspm(bigShape, 40);
    const Transmuter sim(wl.params);
    const std::size_t n =
        sim.run(wl.trace, baselineConfig(MemType::Cache)).epochs.size();
    const ReconfigCostModel cost(wl.params);
    const SimResult r = sim.runSchedule(
        wl.trace, switchingSchedule(MemType::Cache, n), cost, true);
    expectDigest(r.epochs, 0xcf90c113dbf44380ull);
}

TEST(ReplayGolden, SwitchingScheduleSpmMode)
{
    const Workload wl = spmspv(smallShape, MemType::Spm, 20);
    const Transmuter sim(wl.params);
    const std::size_t n =
        sim.run(wl.trace, baselineConfig(MemType::Spm)).epochs.size();
    const ReconfigCostModel cost(wl.params);
    const SimResult r = sim.runSchedule(
        wl.trace, switchingSchedule(MemType::Spm, n), cost, false);
    expectDigest(r.epochs, 0xe5307a2b9d54f112ull);
}

TEST(ReplayGolden, ReplayProfileMetrics)
{
    const Workload wl = spmspm(smallShape, 150);
    obs::MetricRegistry metrics;
    Transmuter sim(wl.params);
    sim.setMetrics(&metrics);
    const SimResult r = sim.run(wl.trace, bestAvgConfig(MemType::Cache));
    std::ostringstream snap;
    metrics.writeText(snap);
    Digest d;
    d.word(digestOf(r.epochs));
    d.text(snap.str());
    EXPECT_EQ(d.h, 0xa509a66c1ed26f24ull)
        << "computed digest 0x" << std::hex << d.h;
}
