/**
 * @file
 * Tests for the reconfiguration cost model (Sections 3.4 and 5.2).
 */

#include <gtest/gtest.h>

#include "sim/reconfig.hh"
#include "sim/transmuter.hh"

using namespace sadapt;

namespace {

ReconfigCostModel
model()
{
    return ReconfigCostModel(SystemShape{2, 8}, 1e9, EnergyParams{});
}

} // namespace

TEST(Reconfig, IdenticalConfigsCostNothing)
{
    auto rc = model().cost(baselineConfig(), baselineConfig(), true);
    EXPECT_TRUE(rc.isZero());
}

TEST(Reconfig, ClockChangeIsSuperFine)
{
    HwConfig from = baselineConfig();
    HwConfig to = withParam(from, Param::Clock, 2);
    auto rc = model().cost(from, to, false);
    EXPECT_FALSE(rc.flushL1);
    EXPECT_FALSE(rc.flushL2);
    // ~100 cycles at 1 GHz + host overhead: well under a microsecond.
    EXPECT_LT(rc.seconds, 1e-6);
    EXPECT_GT(rc.seconds, 0.0);
}

TEST(Reconfig, CapacityIncreaseIsSuperFine)
{
    HwConfig from = baselineConfig();
    HwConfig to = withParam(from, Param::L1Cap, 3);
    auto rc = model().cost(from, to, false);
    EXPECT_FALSE(rc.flushL1);
    EXPECT_LT(rc.seconds, 1e-6);
}

TEST(Reconfig, CapacityDecreaseFlushes)
{
    HwConfig from = withParam(baselineConfig(), Param::L1Cap, 4);
    HwConfig to = withParam(from, Param::L1Cap, 0);
    auto rc = model().cost(from, to, false);
    EXPECT_TRUE(rc.flushL1);
    EXPECT_GT(rc.seconds, 1e-5);
    EXPECT_GT(rc.energy, 0.0);
}

TEST(Reconfig, SharingChangeFlushesThatLevel)
{
    HwConfig from = baselineConfig();
    HwConfig to1 = withParam(from, Param::L1Sharing, 1);
    auto rc1 = model().cost(from, to1, false);
    EXPECT_TRUE(rc1.flushL1);
    EXPECT_FALSE(rc1.flushL2);

    HwConfig to2 = withParam(from, Param::L2Sharing, 1);
    auto rc2 = model().cost(from, to2, false);
    EXPECT_FALSE(rc2.flushL1);
    EXPECT_TRUE(rc2.flushL2);
}

TEST(Reconfig, FlushCostsMatchPaperMagnitudes)
{
    // Section 5.2: L1 flush 100 - 961k cycles (up to ~157 uJ); L2 flush
    // 100 - 122k cycles (up to ~22 uJ) at 1 GB/s.
    auto m = model();
    // Max L1: 16 banks x 64 kB = 1 MB, all dirty.
    HwConfig from = maxConfig();
    HwConfig to = withParam(from, Param::L1Cap, 0);
    auto rc = m.cost(from, to, false);
    const double cycles = rc.seconds * 1e9;
    EXPECT_GT(cycles, 3e5);
    EXPECT_LT(cycles, 3e6);
    EXPECT_GT(rc.energy, 1e-5);  // tens of uJ
    EXPECT_LT(rc.energy, 1e-3);

    // Max L2: 2 banks x 64 kB = 128 kB at 1 GB/s ~ 131 us ~ 131k cyc.
    HwConfig to2 = withParam(from, Param::L2Cap, 0);
    auto rc2 = m.cost(from, to2, false);
    const double cycles2 = rc2.seconds * 1e9;
    EXPECT_GT(cycles2, 0.5e5);
    EXPECT_LT(cycles2, 3e5);
    EXPECT_LT(rc2.energy, 1e-4);
}

TEST(Reconfig, SpmL1NeverFlushesL1)
{
    HwConfig from = bestAvgConfig(MemType::Spm);
    HwConfig to = withParam(from, Param::L1Sharing, 0);
    auto rc = model().cost(from, to, true);
    EXPECT_FALSE(rc.flushL1);
}

TEST(Reconfig, EnergyEfficientModeDrainsAtLowerClock)
{
    auto m = model();
    EXPECT_LT(m.flushClock(baselineConfig(), true),
              m.flushClock(baselineConfig(), false));
    // Bigger caches pick a faster drain clock in EE mode.
    EXPECT_LE(m.flushClock(baselineConfig(), true),
              m.flushClock(maxConfig(), true));
}

TEST(Reconfig, DimensionCostMatchesSingleParamSwitch)
{
    auto m = model();
    HwConfig from = withParam(baselineConfig(), Param::L2Cap, 4);
    const Seconds d =
        m.dimensionCost(from, Param::L2Cap, 0, false);
    const Seconds full =
        m.cost(from, withParam(from, Param::L2Cap, 0), false).seconds;
    EXPECT_DOUBLE_EQ(d, full);
}

TEST(Reconfig, LowerBandwidthRaisesFlushCost)
{
    ReconfigCostModel fast(SystemShape{2, 8}, 10e9, EnergyParams{});
    ReconfigCostModel slow(SystemShape{2, 8}, 0.1e9, EnergyParams{});
    HwConfig from = maxConfig();
    HwConfig to = withParam(from, Param::L2Cap, 0);
    EXPECT_GT(slow.cost(from, to, false).seconds,
              fast.cost(from, to, false).seconds);
}

TEST(Reconfig, BiggerSystemsFlushMore)
{
    ReconfigCostModel small(SystemShape{2, 8}, 1e9, EnergyParams{});
    ReconfigCostModel big(SystemShape{4, 16}, 1e9, EnergyParams{});
    HwConfig from = maxConfig();
    HwConfig to = withParam(from, Param::L1Sharing, 1);
    EXPECT_GT(big.cost(from, to, false).seconds,
              small.cost(from, to, false).seconds);
}

TEST(Reconfig, RunParamsCarryTheWorkloadsEnergyConstants)
{
    RunParams params;
    params.shape = SystemShape{4, 16};
    params.memBandwidth = 2e9;
    params.energy.dramPerByte *= 3.0;
    params.energy.sramRead4k *= 2.0;
    const ReconfigCostModel from_params(params);
    const ReconfigCostModel explicit_args(params.shape,
                                          params.memBandwidth,
                                          params.energy);
    const ReconfigCostModel defaults(params.shape, params.memBandwidth,
                                     EnergyParams{});
    const HwConfig from = maxConfig();
    const HwConfig to = withParam(from, Param::L2Cap, 0);
    const ReconfigCost a = from_params.cost(from, to, true);
    const ReconfigCost b = explicit_args.cost(from, to, true);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_GT(a.energy, defaults.cost(from, to, true).energy);
}
