/**
 * @file
 * Tests for the metrics registry: instrument semantics, name collision
 * handling, log2 bucket edges, and snapshot determinism (two identical
 * instrumented runs must produce byte-identical text dumps).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "adapt/epoch_db.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "sparse/generators.hh"

using namespace sadapt;
using namespace sadapt::obs;

TEST(Metrics, CounterGaugeHistogramBasics)
{
    MetricRegistry reg;
    Counter &c = reg.counter("sim/l1/accesses");
    c.add();
    c.add(9);
    EXPECT_EQ(c.value(), 10u);

    Gauge &g = reg.gauge("sim/dvfs/clock_norm");
    g.set(0.25);
    g.set(0.5);
    EXPECT_DOUBLE_EQ(g.value(), 0.5);

    Histogram &h = reg.histogram("sim/epoch_cycles");
    h.observe(0);
    h.observe(7);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.sum(), 7u);
    EXPECT_EQ(reg.size(), 3u);
}

TEST(Metrics, AccessorsReturnTheSameInstrument)
{
    MetricRegistry reg;
    Counter &a = reg.counter("adapt/policy/accepted");
    a.add(3);
    Counter &b = reg.counter("adapt/policy/accepted");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
    ASSERT_TRUE(reg.kindOf("adapt/policy/accepted").has_value());
    EXPECT_EQ(*reg.kindOf("adapt/policy/accepted"),
              MetricKind::Counter);
    EXPECT_FALSE(reg.kindOf("never/registered").has_value());
}

TEST(MetricsDeathTest, CrossKindCollisionPanics)
{
    MetricRegistry reg;
    reg.counter("sim/mem/bytes_read");
    EXPECT_DEATH(reg.gauge("sim/mem/bytes_read"),
                 "already registered");
    EXPECT_DEATH(reg.histogram("sim/mem/bytes_read"),
                 "already registered");
}

TEST(MetricsDeathTest, SpacesInNamesPanic)
{
    MetricRegistry reg;
    EXPECT_DEATH(reg.counter("sim/l1 accesses"), "space");
}

TEST(Metrics, HistogramBucketEdges)
{
    // Bucket 0 holds only the value 0; bucket i >= 1 holds
    // [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(7), 3u);
    EXPECT_EQ(Histogram::bucketOf(8), 4u);
    EXPECT_EQ(Histogram::bucketOf((1ull << 32) - 1), 32u);
    EXPECT_EQ(Histogram::bucketOf(1ull << 32), 33u);
    EXPECT_EQ(Histogram::bucketOf(~0ull), 64u);

    EXPECT_EQ(Histogram::bucketLo(0), 0u);
    EXPECT_EQ(Histogram::bucketLo(1), 1u);
    EXPECT_EQ(Histogram::bucketLo(2), 2u);
    EXPECT_EQ(Histogram::bucketLo(3), 4u);
    EXPECT_EQ(Histogram::bucketLo(64), 1ull << 63);

    // Every value lands in the bucket whose edges contain it.
    for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1023ull, 1024ull,
                            1025ull, (1ull << 50) - 1, 1ull << 50}) {
        const std::size_t b = Histogram::bucketOf(v);
        EXPECT_GE(v, Histogram::bucketLo(b)) << v;
        if (b < Histogram::numBuckets - 1) {
            EXPECT_LT(v, Histogram::bucketLo(b + 1)) << v;
        }
    }
}

TEST(Metrics, QuantileInterpolationIsPinned)
{
    Histogram h;
    // Empty histogram: quantiles defined as exactly 0.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);

    // 10 samples of 12 all land in bucket 4 ([8, 16)). rank = q * 10
    // interpolates linearly across the bucket's edge range.
    for (int i = 0; i < 10; ++i)
        h.observe(12);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 8.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 12.0);  // 8 + 8 * (5/10)
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 16.0);

    // Two occupied buckets: 4 samples in bucket 1 ([1, 2)), 4 in
    // bucket 3 ([4, 8)). p50 has rank 4, the top of bucket 1; p75
    // has rank 6, halfway into bucket 3's count.
    Histogram h2;
    for (int i = 0; i < 4; ++i) {
        h2.observe(1);
        h2.observe(5);
    }
    EXPECT_DOUBLE_EQ(h2.quantile(0.50), 2.0);
    EXPECT_DOUBLE_EQ(h2.quantile(0.75), 6.0);  // 4 + 4 * (2/4)
    EXPECT_DOUBLE_EQ(h2.quantile(1.00), 8.0);

    // Ranks landing in bucket 0 return exactly 0.
    Histogram h3;
    h3.observe(0);
    h3.observe(0);
    h3.observe(100);
    EXPECT_DOUBLE_EQ(h3.quantile(0.5), 0.0);
    EXPECT_GT(h3.quantile(0.99), 64.0);

    // Out-of-range q is clamped.
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Metrics, SnapshotCarriesQuantileSummary)
{
    MetricRegistry reg;
    Histogram &h = reg.histogram("sim/epoch_cycles");
    for (int i = 0; i < 10; ++i)
        h.observe(12);
    reg.histogram("sim/empty");

    std::ostringstream out;
    reg.writeText(out);
    const std::string text = out.str();
    // rank = q * 10 inside bucket 4's [8, 16): p50 -> 8 + 8 * 0.5,
    // p90 -> 8 + 8 * 0.9, p99 -> 8 + 8 * 0.99.
    EXPECT_NE(text.find("hist sim/epoch_cycles count 10 sum 120 "
                        "p50 12 p90 15.2 p99 15.92 buckets 4:10"),
              std::string::npos)
        << text;
    // Empty histograms keep the quantile-free form.
    EXPECT_NE(text.find("hist sim/empty count 0 sum 0 buckets"),
              std::string::npos)
        << text;

    std::istringstream in(text);
    const auto parsed = readMetricsText(in);
    ASSERT_TRUE(parsed.isOk()) << parsed.message();
    const auto &samples = parsed.value();
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_FALSE(samples[0].histHasQuantiles);
    ASSERT_TRUE(samples[1].histHasQuantiles);
    EXPECT_DOUBLE_EQ(samples[1].histP50, 12.0);
    EXPECT_DOUBLE_EQ(samples[1].histP90, 15.2);
    EXPECT_DOUBLE_EQ(samples[1].histP99, 15.92);
}

TEST(Metrics, TextSnapshotIsSortedAndRoundTrips)
{
    MetricRegistry reg;
    reg.counter("sim/l2/misses").add(42);
    reg.counter("adapt/controller/epochs").add(7);
    reg.gauge("adapt/watchdog/reference").set(0.9375);
    Histogram &h = reg.histogram("sim/epoch_cycles");
    h.observe(0);
    h.observe(12);
    h.observe(13);

    std::ostringstream out;
    reg.writeText(out);
    const std::string text = out.str();

    // Sorted by name, independent of registration order.
    EXPECT_LT(text.find("adapt/controller/epochs"),
              text.find("adapt/watchdog/reference"));
    EXPECT_LT(text.find("adapt/watchdog/reference"),
              text.find("sim/epoch_cycles"));
    EXPECT_LT(text.find("sim/epoch_cycles"),
              text.find("sim/l2/misses"));

    std::istringstream in(text);
    const auto parsed = readMetricsText(in);
    ASSERT_TRUE(parsed.isOk()) << parsed.message();
    const auto &samples = parsed.value();
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples[0].name, "adapt/controller/epochs");
    EXPECT_EQ(samples[0].kind, MetricKind::Counter);
    EXPECT_EQ(samples[0].counterValue, 7u);
    EXPECT_EQ(samples[1].kind, MetricKind::Gauge);
    EXPECT_DOUBLE_EQ(samples[1].gaugeValue, 0.9375);
    EXPECT_EQ(samples[2].kind, MetricKind::Histogram);
    EXPECT_EQ(samples[2].histCount, 3u);
    EXPECT_EQ(samples[2].histSum, 25u);
    // Buckets: 0 -> bucket 0; 12, 13 -> bucket 4 ([8, 16)).
    ASSERT_EQ(samples[2].histBuckets.size(), 2u);
    EXPECT_EQ(samples[2].histBuckets[0],
              (std::pair<std::size_t, std::uint64_t>{0, 1}));
    EXPECT_EQ(samples[2].histBuckets[1],
              (std::pair<std::size_t, std::uint64_t>{4, 2}));
}

TEST(Metrics, ReadRejectsMalformedSnapshots)
{
    {
        std::istringstream in("not-a-snapshot\nend\n");
        EXPECT_FALSE(readMetricsText(in).isOk());
    }
    {
        // Missing "end" terminator (torn write).
        std::istringstream in("sadapt-metrics v1\ncounter a/b 1\n");
        EXPECT_FALSE(readMetricsText(in).isOk());
    }
    {
        std::istringstream in(
            "sadapt-metrics v1\nbogus a/b 1\nend\n");
        EXPECT_FALSE(readMetricsText(in).isOk());
    }
}

namespace {

/** Run one instrumented workload replay and return the snapshot. */
std::string
instrumentedRunSnapshot()
{
    Rng rng(21);
    CsrMatrix a = makeRmat(128, 900, rng);
    SparseVector x = SparseVector::random(128, 0.5, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 60;
    Workload wl = makeSpMSpVWorkload("det", a, x, wo);

    MetricRegistry reg;
    EpochDb db(wl);
    db.attachMetrics(&reg);
    const HwConfig cfg = baselineConfig();
    ReconfigCostModel cost(wl.params);
    (void)evaluateSchedule(db, Schedule::uniform(cfg, db.numEpochs()),
                           cost, OptMode::EnergyEfficient, cfg);
    std::ostringstream out;
    reg.writeText(out);
    return out.str();
}

} // namespace

TEST(Metrics, SnapshotDeterministicAcrossIdenticalRuns)
{
    const std::string first = instrumentedRunSnapshot();
    const std::string second = instrumentedRunSnapshot();
    EXPECT_FALSE(first.empty());
    EXPECT_NE(first.find("sim/l1/accesses"), std::string::npos);
    EXPECT_NE(first.find("sim/epoch_cycles"), std::string::npos);
    EXPECT_EQ(first, second);
}
