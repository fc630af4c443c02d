/**
 * @file
 * Golden-file test for the sadapt_report renderers plus shape checks
 * on the Chrome-trace export. Regenerate the golden with
 *   SADAPT_UPDATE_GOLDEN=1 ./sadapt_obs_tests \
 *       --gtest_filter=Report.GoldenReport
 * and review the diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report.hh"

using namespace sadapt;
using namespace sadapt::obs;

namespace {

/** A small, fully deterministic journal covering every event type. */
std::vector<JournalEvent>
sampleEvents()
{
    std::vector<JournalEvent> events;
    auto add = [&](std::uint64_t epoch, double t, const char *path,
                   const char *type,
                   std::vector<std::pair<std::string, FieldValue>>
                       fields) {
        JournalEvent ev;
        ev.seq = events.size();
        ev.epoch = epoch;
        ev.simTime = t;
        ev.path = path;
        ev.type = type;
        ev.fields = std::move(fields);
        events.push_back(std::move(ev));
    };

    const std::string base =
        "type=cache,l1_sharing=private,l2_sharing=shared,l1_cap=4,"
        "l2_cap=64,clock=250,prefetch=0";
    const std::string fast =
        "type=cache,l1_sharing=private,l2_sharing=shared,l1_cap=16,"
        "l2_cap=64,clock=1000,prefetch=8";

    add(0, 0.0, "cli", "run",
        {{"kernel", std::string("spmspv")},
         {"dataset", std::string("P3")},
         {"mode", std::string("ee")},
         {"policy", std::string("hybrid")},
         {"seed", std::int64_t{1}}});
    add(0, 0.0, "adapt/controller", "epoch",
        {{"cfg", base}, {"seconds", 0.5}, {"flops", 1.0e6},
         {"energy_j", 0.25}, {"metric", 8.0}});
    add(0, 0.5, "adapt/predictor", "prediction",
        {{"cfg", fast}, {"l1_capacity", std::int64_t{2}},
         {"clock", std::int64_t{3}}});
    add(0, 0.5, "adapt/policy", "policy",
        {{"param", std::string("l1_capacity")},
         {"from", std::int64_t{0}}, {"to", std::int64_t{2}},
         {"accepted", true}, {"cost_s", 0.001}, {"cost_j", 0.0005},
         {"flush", true}});
    add(0, 0.5, "adapt/policy", "policy",
        {{"param", std::string("clock")}, {"from", std::int64_t{1}},
         {"to", std::int64_t{3}}, {"accepted", false},
         {"cost_s", 0.0}, {"cost_j", 0.0}, {"flush", false}});
    add(0, 0.5, "adapt/controller", "reconfig",
        {{"from", base}, {"to", fast}, {"cost_s", 0.001},
         {"cost_j", 0.0005}, {"flush_l1", true},
         {"flush_l2", false}});
    add(1, 0.501, "adapt/controller", "epoch",
        {{"cfg", fast}, {"seconds", 0.25}, {"flops", 1.0e6},
         {"energy_j", 0.2}, {"metric", 10.0}});
    add(1, 0.751, "adapt/guard", "guard",
        {{"verdict", std::string("suspect")},
         {"flagged", std::int64_t{2}}});
    add(1, 0.751, "sim/faults", "fault",
        {{"kind", std::string("corrupt")},
         {"detail", std::string("l1MissRate")}});
    add(2, 0.751, "adapt/controller", "epoch",
        {{"cfg", fast}, {"seconds", 0.3}, {"flops", 1.0e6},
         {"energy_j", 0.3}, {"metric", 6.0}});
    add(2, 1.051, "adapt/watchdog", "watchdog",
        {{"from", std::string("normal")},
         {"to", std::string("reverted")},
         {"reverts", std::int64_t{1}},
         {"held_epochs", std::int64_t{0}}});
    return events;
}

std::vector<MetricSample>
sampleMetrics()
{
    auto counter = [](const char *name, std::uint64_t v) {
        MetricSample s;
        s.name = name;
        s.kind = MetricKind::Counter;
        s.counterValue = v;
        return s;
    };
    MetricSample gauge;
    gauge.name = "sim/dvfs/clock_norm";
    gauge.kind = MetricKind::Gauge;
    gauge.gaugeValue = 0.875;
    MetricSample hist;
    hist.name = "sim/epoch_cycles";
    hist.kind = MetricKind::Histogram;
    hist.histCount = 3;
    hist.histSum = 900;
    hist.histBuckets = {{9, 2}, {10, 1}};
    return {counter("adapt/policy/accepted", 1),
            counter("adapt/policy/proposed", 2),
            counter("adapt/policy/vetoed", 1),
            gauge,
            hist,
            counter("sim/l1/accesses", 4096),
            counter("sim/l1/misses", 512)};
}

/** Deterministic profile/ samples, attribution summing to total. */
std::vector<MetricSample>
sampleProfileMetrics()
{
    auto counter = [](const char *name, std::uint64_t v) {
        MetricSample s;
        s.name = name;
        s.kind = MetricKind::Counter;
        s.counterValue = v;
        return s;
    };
    MetricSample hist;
    hist.name = "profile/epoch_ops";
    hist.kind = MetricKind::Histogram;
    hist.histCount = 4;
    hist.histSum = 1000;
    hist.histHasQuantiles = true;
    hist.histP50 = 256.0;
    hist.histP90 = 460.8;
    hist.histP99 = 506.88;
    hist.histBuckets = {{9, 4}};
    return {counter("profile/component/barrier/ops", 20),
            counter("profile/component/core/ops", 900),
            counter("profile/component/l1/ops", 60),
            counter("profile/component/l2/ops", 20),
            counter("profile/component/mem/line_reads", 12),
            counter("profile/component/xbar/requests", 90),
            hist,
            counter("profile/op/fp", 300),
            counter("profile/op/int", 600),
            counter("profile/op/ld", 80),
            counter("profile/op/phase", 20),
            counter("profile/phase/spmspv/ops", 1000),
            counter("profile/total_ops", 1000)};
}


std::string
goldenPath()
{
    return std::string(SADAPT_TEST_DATA_DIR) +
        "/obs/report_golden.txt";
}

std::string
jsonGoldenPath()
{
    return std::string(SADAPT_TEST_DATA_DIR) +
        "/obs/report_json_golden.json";
}

} // namespace

TEST(Report, GoldenReport)
{
    std::ostringstream out;
    renderReport(sampleEvents(), sampleMetrics(), out);
    const std::string got = out.str();

    if (std::getenv("SADAPT_UPDATE_GOLDEN") != nullptr) {
        std::ofstream f(goldenPath());
        ASSERT_TRUE(f.is_open()) << goldenPath();
        f << got;
        GTEST_SKIP() << "golden regenerated: " << goldenPath();
    }

    std::ifstream f(goldenPath());
    ASSERT_TRUE(f.is_open())
        << goldenPath()
        << " missing; regenerate with SADAPT_UPDATE_GOLDEN=1";
    std::ostringstream want;
    want << f.rdbuf();
    EXPECT_EQ(got, want.str());
}

TEST(Report, TimelineListsEveryEpochAndDecision)
{
    std::ostringstream out;
    renderTimeline(sampleEvents(), out);
    const std::string text = out.str();
    for (const char *needle :
         {"epoch 0", "epoch 1", "epoch 2", "prediction", "policy",
          "reconfig", "guard", "watchdog", "fault"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST(Report, ReconfigSummaryCountsProposedAcceptedVetoed)
{
    std::ostringstream out;
    renderReconfigSummary(sampleEvents(), out);
    const std::string text = out.str();
    EXPECT_NE(text.find("l1_capacity"), std::string::npos);
    EXPECT_NE(text.find("clock"), std::string::npos);
    EXPECT_NE(text.find("applied reconfigurations: 1"),
              std::string::npos)
        << text;
}

TEST(Report, EmptyInputsRenderGracefully)
{
    std::ostringstream out;
    renderReport({}, {}, out);
    EXPECT_NE(out.str().find("no events"), std::string::npos);
}

TEST(Report, ProfileSectionBreaksDownCosts)
{
    std::ostringstream out;
    ASSERT_TRUE(renderProfileSection(sampleProfileMetrics(), out));
    const std::string text = out.str();
    EXPECT_NE(text.find("== replay profile =="), std::string::npos);
    EXPECT_NE(text.find("total ops: 1000"), std::string::npos);
    // Every op kind is attributed: coverage is exactly 100%.
    EXPECT_NE(text.find("attributed: 1000 of 1000 ops (100%)"),
              std::string::npos)
        << text;
    for (const char *needle :
         {"ops by kind", "ops by component", "ops by phase", "spmspv",
          "core", "mem/line_reads = 12",
          "epochs: 4 (mean ops 250, p50 256, p90 460.8, p99 506.88)"})
        EXPECT_NE(text.find(needle), std::string::npos) << needle;

    // No profile/ samples -> no section at all.
    std::ostringstream none;
    EXPECT_FALSE(renderProfileSection(sampleMetrics(), none));
    EXPECT_TRUE(none.str().empty());
}

TEST(Report, GoldenReportJson)
{
    std::vector<MetricSample> metrics = sampleMetrics();
    const std::vector<MetricSample> prof = sampleProfileMetrics();
    metrics.insert(metrics.end(), prof.begin(), prof.end());
    ReportOptions opts;
    opts.profile = true;
    std::ostringstream out;
    renderReportJson(sampleEvents(), metrics, opts, out);
    const std::string got = out.str();

    if (std::getenv("SADAPT_UPDATE_GOLDEN") != nullptr) {
        std::ofstream f(jsonGoldenPath());
        ASSERT_TRUE(f.is_open()) << jsonGoldenPath();
        f << got;
        GTEST_SKIP() << "golden regenerated: " << jsonGoldenPath();
    }

    std::ifstream f(jsonGoldenPath());
    ASSERT_TRUE(f.is_open())
        << jsonGoldenPath()
        << " missing; regenerate with SADAPT_UPDATE_GOLDEN=1";
    std::ostringstream want;
    want << f.rdbuf();
    EXPECT_EQ(got, want.str());

    // Byte-stability: rendering the same inputs twice is identical.
    std::ostringstream again;
    renderReportJson(sampleEvents(), metrics, opts, again);
    EXPECT_EQ(got, again.str());
}

TEST(Report, JsonRendersEmptyInputs)
{
    std::ostringstream out;
    renderReportJson({}, {}, ReportOptions{}, out);
    const std::string text = out.str();
    EXPECT_NE(text.find("\"version\": 1"), std::string::npos);
    EXPECT_NE(text.find("\"run\": null"), std::string::npos);
    EXPECT_NE(text.find("\"profile\": null"), std::string::npos);
    EXPECT_EQ(text.back(), '\n');
}

TEST(Report, ChromeTraceHasSlicesAndInstants)
{
    std::ostringstream out;
    writeChromeTrace(sampleEvents(), out);
    const std::string text = out.str();
    EXPECT_EQ(text.rfind("{\"traceEvents\":", 0), 0u) << text;
    // Three epochs -> three duration slices; reconfig + watchdog +
    // fault -> three instants.
    auto count = [&](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t pos = text.find(needle);
             pos != std::string::npos;
             pos = text.find(needle, pos + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count("\"ph\":\"X\""), 3u);
    EXPECT_EQ(count("\"ph\":\"i\""), 3u);
    EXPECT_GE(count("\"ph\":\"M\""), 2u); // process/thread names
    // Balanced braces (cheap well-formedness proxy).
    EXPECT_EQ(count("{"), count("}"));
    EXPECT_EQ(text.back(), '\n');
}
