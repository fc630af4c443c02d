/**
 * @file
 * Tests for the BENCH_<name>.json reader and the best-of-N /
 * comparability helpers behind tools/bench_trend.
 */

#include <gtest/gtest.h>

#include "obs/bench_json.hh"

using namespace sadapt;
using namespace sadapt::obs;

namespace {

/** A report shaped exactly like BenchReport::write() output. */
const char *const kSampleReport = R"({
  "bench": "replay_speed",
  "git_rev": "be59e9d",
  "host_wall_seconds": 12.5,
  "scale": 0.05,
  "samples": 8,
  "jobs": 1,
  "sweep_wall_seconds": 9.25,
  "configs_simulated": 3,
  "store_hits": 0,
  "store_misses": 0,
  "store_path": "",
  "results": [
    {"kernel": "spmspv/P3/replay", "config": "baseline", "gflops": 2.5, "gflops_per_watt": 1.25},
    {"kernel": "spmspv/P3/replay", "config": "baseline", "gflops": 2.5, "gflops_per_watt": 1.25}
  ]
})";

BenchRun
sampleRun(double sweepWall, double gflops, double scale = 0.05,
          std::uint64_t samples = 8)
{
    BenchRun run;
    run.bench = "replay_speed";
    run.scale = scale;
    run.samples = samples;
    run.sweepWallSeconds = sweepWall;
    run.hostWallSeconds = sweepWall + 1.0;
    BenchResultEntry e;
    e.kernel = "spmspv/P3/replay";
    e.config = "baseline";
    e.gflops = gflops;
    run.results.push_back(e);
    return run;
}

TEST(BenchJson, ParsesHarnessReport)
{
    const Result<BenchRun> parsed = parseBenchJson(kSampleReport);
    ASSERT_TRUE(parsed.isOk()) << parsed.message();
    const BenchRun &run = parsed.value();
    EXPECT_EQ(run.bench, "replay_speed");
    EXPECT_EQ(run.gitRev, "be59e9d");
    EXPECT_DOUBLE_EQ(run.hostWallSeconds, 12.5);
    EXPECT_DOUBLE_EQ(run.sweepWallSeconds, 9.25);
    EXPECT_DOUBLE_EQ(run.scale, 0.05);
    EXPECT_EQ(run.samples, 8u);
    EXPECT_EQ(run.jobs, 1u);
    EXPECT_EQ(run.configsSimulated, 3u);
    EXPECT_EQ(run.storePath, "");
    ASSERT_EQ(run.results.size(), 2u);
    EXPECT_EQ(run.results[0].kernel, "spmspv/P3/replay");
    EXPECT_EQ(run.results[0].config, "baseline");
    EXPECT_DOUBLE_EQ(run.results[0].gflops, 2.5);
    EXPECT_DOUBLE_EQ(run.results[0].gflopsPerWatt, 1.25);
}

TEST(BenchJson, IgnoresUnknownKeysAndEscapes)
{
    const Result<BenchRun> parsed = parseBenchJson(
        "{\"bench\": \"x\\ty\", \"future_key\": [1, {\"a\": true}], "
        "\"host_wall_seconds\": 1e-2, \"nothing\": null}");
    ASSERT_TRUE(parsed.isOk()) << parsed.message();
    EXPECT_EQ(parsed.value().bench, "x\ty");
    EXPECT_DOUBLE_EQ(parsed.value().hostWallSeconds, 0.01);
    EXPECT_TRUE(parsed.value().results.empty());
}

TEST(BenchJson, RejectsMalformedInput)
{
    EXPECT_FALSE(parseBenchJson("").isOk());
    EXPECT_FALSE(parseBenchJson("[1, 2]").isOk());
    EXPECT_FALSE(parseBenchJson("{\"bench\": \"x\"").isOk());
    EXPECT_FALSE(parseBenchJson("{\"bench\": \"x\"} trailing").isOk());
    // A report without a bench name is unusable for grouping.
    EXPECT_FALSE(parseBenchJson("{\"scale\": 1}").isOk());
}

TEST(BenchJson, WallSecondsPrefersSweepTime)
{
    BenchRun run = sampleRun(9.0, 2.0);
    EXPECT_DOUBLE_EQ(benchWallSeconds(run), 9.0);
    run.sweepWallSeconds = 0.0;
    EXPECT_DOUBLE_EQ(benchWallSeconds(run), 10.0);
}

TEST(BenchJson, GeomeanSkipsUnmeasuredEntries)
{
    BenchRun run = sampleRun(1.0, 4.0);
    BenchResultEntry e;
    e.gflops = 16.0;
    run.results.push_back(e);
    e.gflops = 0.0; // "not measured" sentinel
    run.results.push_back(e);
    EXPECT_DOUBLE_EQ(benchGeomeanGflops(run), 8.0);
    run.results.clear();
    EXPECT_DOUBLE_EQ(benchGeomeanGflops(run), 0.0);
}

TEST(BenchJson, BestOfNPicksFastestRep)
{
    std::vector<BenchRun> runs;
    runs.push_back(sampleRun(5.0, 2.0));
    runs.push_back(sampleRun(3.0, 2.0));
    runs.push_back(sampleRun(4.0, 2.0));
    EXPECT_EQ(bestRunIndex(runs), 1u);
    // Ties break toward the earlier run.
    runs[2].sweepWallSeconds = 3.0;
    EXPECT_EQ(bestRunIndex(runs), 1u);
    EXPECT_EQ(bestRunIndex({}), static_cast<std::size_t>(-1));
}

TEST(BenchJson, ComparabilityRequiresMatchingScaleKnobs)
{
    const BenchRun a = sampleRun(1.0, 2.0);
    EXPECT_TRUE(benchComparable(a, sampleRun(9.0, 7.0)));
    EXPECT_FALSE(benchComparable(a, sampleRun(1.0, 2.0, 0.12)));
    EXPECT_FALSE(benchComparable(a, sampleRun(1.0, 2.0, 0.05, 24)));
    BenchRun other = sampleRun(1.0, 2.0);
    other.bench = "fig08_oracle_comparison";
    EXPECT_FALSE(benchComparable(a, other));
}

} // namespace
