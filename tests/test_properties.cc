/**
 * @file
 * Parameterized property tests: invariants that must hold across
 * sweeps of hardware configurations, cache capacities, clock points
 * and dataset shapes.
 */

#include <gtest/gtest.h>

#include "adapt/epoch_db.hh"
#include "common/rng.hh"
#include "sim/cache.hh"
#include "sim/dvfs.hh"
#include "sim/reconfig.hh"
#include "sparse/generators.hh"
#include "sparse/stats.hh"

using namespace sadapt;

// ---------------------------------------------------------------
// Cache invariants across every Table 1 capacity.
// ---------------------------------------------------------------

class CacheCapacityProperty
    : public testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheCapacityProperty, ColdMissesEqualWorkingSetLines)
{
    CacheBank bank(GetParam());
    const std::uint32_t lines =
        std::min<std::uint32_t>(GetParam(), 2048) / lineSize;
    int misses = 0;
    for (std::uint32_t l = 0; l < lines; ++l)
        misses += !bank.access(l * lineSize, false).hit;
    EXPECT_EQ(misses, static_cast<int>(lines));
    // Second pass over a fitting working set: all hits.
    for (std::uint32_t l = 0; l < lines; ++l)
        EXPECT_TRUE(bank.access(l * lineSize, false).hit);
}

TEST_P(CacheCapacityProperty, OccupancyBoundedAndMonotone)
{
    CacheBank bank(GetParam());
    double prev = bank.occupancy();
    Rng rng(GetParam());
    for (int i = 0; i < 500; ++i) {
        bank.access(rng.below(1u << 22) * 8, rng.chance(0.5));
        const double occ = bank.occupancy();
        EXPECT_GE(occ, prev - 1e-12); // never shrinks on accesses
        EXPECT_LE(occ, 1.0);
        prev = occ;
    }
}

TEST_P(CacheCapacityProperty, DirtyLinesNeverExceedCapacity)
{
    CacheBank bank(GetParam());
    Rng rng(1);
    for (int i = 0; i < 2000; ++i)
        bank.access(rng.below(1u << 20) * 8, true);
    EXPECT_LE(bank.dirtyLines(), GetParam() / lineSize);
}

INSTANTIATE_TEST_SUITE_P(TableOneCapacities, CacheCapacityProperty,
                         testing::Values(4096u, 8192u, 16384u, 32768u,
                                         65536u));

// ---------------------------------------------------------------
// DVFS invariants across every Table 1 clock point.
// ---------------------------------------------------------------

class DvfsClockProperty : public testing::TestWithParam<int>
{
};

TEST_P(DvfsClockProperty, ScalesBoundedAndOrdered)
{
    DvfsModel m;
    HwConfig cfg;
    cfg.clockIdx = static_cast<std::uint8_t>(GetParam());
    const Hertz f = cfg.clockHz();
    EXPECT_GE(m.voltageFor(f), 1.3 * m.thresholdV());
    EXPECT_LE(m.voltageFor(f), m.nominalVdd() + 1e-9);
    EXPECT_LE(m.dynamicScale(f), 1.0 + 1e-9);
    EXPECT_GT(m.dynamicScale(f), 0.0);
    // Dynamic scale (V^2) falls at least as fast as leakage (V).
    EXPECT_LE(m.dynamicScale(f), m.leakageScale(f) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(TableOneClocks, DvfsClockProperty,
                         testing::Range(0, 6));

// ---------------------------------------------------------------
// Simulator invariants across a sample of hardware configurations.
// ---------------------------------------------------------------

namespace {

const Workload &
propertyWorkload()
{
    static const Workload wl = [] {
        Rng rng(11);
        CsrMatrix a = makeRmat(256, 2000, rng);
        SparseVector x = SparseVector::random(256, 0.5, rng);
        WorkloadOptions wo;
        wo.epochFpOps = 150;
        return makeSpMSpVWorkload("prop", a, x, wo);
    }();
    return wl;
}

} // namespace

class ConfigSweepProperty : public testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ConfigSweepProperty, SimulationInvariants)
{
    const HwConfig cfg =
        ConfigSpace(MemType::Cache).decode(GetParam());
    Transmuter sim(propertyWorkload().params);
    const SimResult res = sim.run(propertyWorkload().trace, cfg);

    // FP work is functional: identical under every configuration.
    EXPECT_DOUBLE_EQ(res.totalFlops(),
                     propertyWorkload().trace.totalFlops());
    EXPECT_GT(res.totalSeconds(), 0.0);
    EXPECT_GT(res.totalEnergy(), 0.0);
    for (const auto &e : res.epochs) {
        EXPECT_GE(e.counters.l1MissRate, 0.0);
        EXPECT_LE(e.counters.l1MissRate, 1.0);
        EXPECT_LE(e.counters.memReadBwUtil, 1.0 + 1e-9);
        EXPECT_LE(e.counters.gpeFpIpc, e.counters.gpeIpc + 1e-12);
        EXPECT_GT(e.totalEnergy(), 0.0);
        EXPECT_DOUBLE_EQ(e.counters.clockNorm, cfg.clockHz() / 1e9);
    }
    // Physical sanity: runtime at least the DRAM serialization time
    // of the bytes actually moved.
    double dram_energy = 0.0;
    for (const auto &e : res.epochs)
        dram_energy += e.energy.dram;
    const double bytes_moved =
        dram_energy / propertyWorkload().params.energy.dramPerByte;
    // 3% slack: non-blocking prefetch transfers may still be draining
    // the channel after the last core retires.
    EXPECT_GE(res.totalSeconds() * 1.03,
              bytes_moved / propertyWorkload().params.memBandwidth);
}

INSTANTIATE_TEST_SUITE_P(SampledConfigs, ConfigSweepProperty,
                         testing::Values(0u, 137u, 421u, 777u, 1024u,
                                         1333u, 1626u, 1799u));

// ---------------------------------------------------------------
// Reconfiguration cost invariants across every parameter.
// ---------------------------------------------------------------

class ReconfigParamProperty : public testing::TestWithParam<int>
{
};

TEST_P(ReconfigParamProperty, SingleDimensionCostsAreSane)
{
    const Param p = allParams()[GetParam()];
    ReconfigCostModel model(SystemShape{2, 8}, 1e9);
    const HwConfig mid = withParam(
        withParam(baselineConfig(), Param::L1Cap, 2), Param::L2Cap,
        2);
    for (std::uint32_t v = 0; v < paramCardinality(p); ++v) {
        const HwConfig to = withParam(mid, p, v);
        const ReconfigCost rc = model.cost(mid, to, true);
        if (to == mid) {
            EXPECT_TRUE(rc.isZero());
            continue;
        }
        EXPECT_GT(rc.seconds, 0.0);
        // Super-fine dimensions never flush.
        if (paramCostClass(p) == CostClass::SuperFine) {
            EXPECT_FALSE(rc.flushL1);
            EXPECT_FALSE(rc.flushL2);
            EXPECT_LT(rc.seconds, 1e-5);
        }
        // The cost reported for a dimension matches the full model.
        EXPECT_DOUBLE_EQ(model.dimensionCost(mid, p, v, true),
                         rc.seconds);
    }
}

INSTANTIATE_TEST_SUITE_P(AllParams, ReconfigParamProperty,
                         testing::Range(0,
                                        static_cast<int>(numParams)));

// ---------------------------------------------------------------
// Generator invariants across dataset shapes (Table 3 style sweep).
// ---------------------------------------------------------------

struct GenCase
{
    std::uint32_t dim;
    std::uint64_t nnz;
};

// Names each case by its fields; the default byte dump would include
// the uninitialised padding after `dim` and vary from run to run.
void
PrintTo(const GenCase &c, std::ostream *os)
{
    *os << "dim" << c.dim << "_nnz" << c.nnz;
}

class GeneratorSweepProperty : public testing::TestWithParam<GenCase>
{
};

TEST_P(GeneratorSweepProperty, UniformAndRmatWellFormed)
{
    const auto [dim, nnz] = GetParam();
    Rng rng(dim + nnz);
    for (const CsrMatrix &m :
         {makeUniformRandom(dim, nnz, rng), makeRmat(dim, nnz, rng)}) {
        EXPECT_EQ(m.rows(), dim);
        EXPECT_EQ(m.cols(), dim);
        EXPECT_LE(m.nnz(), nnz);
        EXPECT_GE(m.nnz(), std::min<std::uint64_t>(
                      nnz * 9 / 10, std::uint64_t(dim) * dim));
        const MatrixStats s = computeStats(m);
        EXPECT_GE(s.rowNnzGini, 0.0);
        EXPECT_LE(s.rowNnzGini, 1.0);
        EXPECT_NEAR(s.meanRowNnz * dim, double(m.nnz()), 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(
    TableThreeShapes, GeneratorSweepProperty,
    testing::Values(GenCase{128, 500}, GenCase{256, 2000},
                    GenCase{512, 4000}, GenCase{1024, 20000}));

// ---------------------------------------------------------------
// Stitching invariant: for any schedule over simulated configs, the
// stitched totals equal the per-epoch sums plus transition costs.
// ---------------------------------------------------------------

class StitchProperty : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(StitchProperty, TotalsDecomposeExactly)
{
    EpochDb db(propertyWorkload());
    ReconfigCostModel cost(propertyWorkload().params.shape,
                           propertyWorkload().params.memBandwidth);
    ConfigSpace space(MemType::Cache);
    Rng rng(GetParam());
    Schedule s;
    const std::size_t n = db.numEpochs();
    auto pool = space.sample(4, rng);
    for (std::size_t e = 0; e < n; ++e)
        s.configs.push_back(pool[rng.below(pool.size())]);

    const auto ev = evaluateSchedule(db, s, cost,
                                     OptMode::EnergyEfficient,
                                     baselineConfig());
    double flops = 0.0;
    Seconds secs = ev.reconfigSeconds;
    Joules energy = ev.reconfigEnergy;
    for (std::size_t e = 0; e < n; ++e) {
        const auto &rec = db.epochs(s.configs[e])[e];
        flops += rec.flops;
        secs += rec.seconds;
        energy += rec.totalEnergy();
    }
    EXPECT_NEAR(ev.flops, flops, 1e-9);
    EXPECT_NEAR(ev.seconds, secs, 1e-15);
    EXPECT_NEAR(ev.energy, energy, 1e-15);
    EXPECT_EQ(ev.reconfigCount,
              s.switchCount() +
                  (s.configs.front() == baselineConfig() ? 0 : 1));
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, StitchProperty,
                         testing::Values(1ull, 2ull, 3ull, 5ull,
                                         8ull));
