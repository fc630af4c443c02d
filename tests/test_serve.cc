/**
 * @file
 * The serving contract: traffic-script round-trips, re-entrant
 * session interleaving, and the byte-identity of the multi-tenant
 * server's merged artifacts (journal, metrics) for any admission
 * window, and its exact decision-latency quantiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adapt/epoch_db.hh"
#include "adapt/session.hh"
#include "adapt/trainer.hh"
#include "analysis/journal_check.hh"
#include "common/rng.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"
#include "sim/config.hh"
#include "sparse/suite.hh"

using namespace sadapt;

namespace {

/** Tiny deterministic model (tests/test_obs_determinism.cc recipe). */
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
        opts.seed = 5;
        Predictor p;
        Rng rng(13);
        p.train(buildTrainingSet(opts), rng);
        return p;
    }();
    return pred;
}

constexpr double kScale = 0.04;

serve::TrafficScript
testScript(std::size_t sessions = 6)
{
    return serve::makeTrafficScript(sessions, 7);
}

serve::ServeOptions
testOptions(unsigned window)
{
    serve::ServeOptions so;
    so.sessions = window;
    so.scale = kScale;
    so.predictor = &sharedPredictor();
    return so;
}

} // namespace

TEST(TrafficScript, GenerateIsDeterministicAndRoundTrips)
{
    const serve::TrafficScript a = serve::makeTrafficScript(16, 7);
    const serve::TrafficScript b = serve::makeTrafficScript(16, 7);
    ASSERT_EQ(a.sessions.size(), 16u);
    const std::string text = serve::writeTrafficScript(a);
    EXPECT_EQ(text, serve::writeTrafficScript(b));

    std::istringstream in(text);
    auto parsed = serve::parseTrafficScript(in);
    ASSERT_TRUE(parsed.isOk()) << parsed.message();
    ASSERT_EQ(parsed.value().sessions.size(), a.sessions.size());
    for (std::size_t i = 0; i < a.sessions.size(); ++i) {
        const serve::SessionSpec &want = a.sessions[i];
        const serve::SessionSpec &got = parsed.value().sessions[i];
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(got.dataset, want.dataset);
        EXPECT_EQ(got.kernel, want.kernel);
        EXPECT_EQ(got.arrivalTick, want.arrivalTick);
        EXPECT_EQ(got.maxEpochs, want.maxEpochs);
    }

    // Different seeds give different scripts (arrival jitter at the
    // very least).
    EXPECT_NE(text,
              serve::writeTrafficScript(serve::makeTrafficScript(16, 8)));
}

TEST(TrafficScript, ParserRejectsMalformedScripts)
{
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"bad header", "sadapt-traffic v9\nend\n"},
        {"unknown kernel",
         "sadapt-traffic v1\nsession 0 P3 dense 0 4\nend\n"},
        {"id out of order",
         "sadapt-traffic v1\nsession 1 P3 spmspv 0 4\nend\n"},
        {"tick regression",
         "sadapt-traffic v1\nsession 0 P3 spmspv 5 4\n"
         "session 1 U1 spmspv 2 4\nend\n"},
        {"trailing token",
         "sadapt-traffic v1\nsession 0 P3 spmspv 0 4 extra\nend\n"},
        {"missing end", "sadapt-traffic v1\nsession 0 P3 spmspv 0 4\n"},
        {"content after end",
         "sadapt-traffic v1\nend\nsession 0 P3 spmspv 0 4\n"},
    };
    for (const auto &[what, text] : cases) {
        std::istringstream in(text);
        EXPECT_FALSE(serve::parseTrafficScript(in).isOk()) << what;
    }
}

/*
 * Serve workers claim sessions in largestFirst() order: SpMSpM first,
 * then by nonzero count, dataset id and session id. The order names
 * the same sessions for any arrival order of them, including datasets
 * of equal nonzero count (U1 and P1).
 */
TEST(TrafficScript, LargestFirstDependsOnTheSessionsNotTheirOrder)
{
    const serve::TrafficScript a = serve::makeTrafficScript(16, 7);
    const std::vector<std::size_t> order = serve::largestFirst(a);
    ASSERT_EQ(order.size(), a.sessions.size());
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);
    const auto size = [&](std::size_t i) {
        const serve::SessionSpec &s = a.sessions[i];
        return std::pair(s.kernel == "spmspm", suiteEntry(s.dataset).nnz);
    };
    for (std::size_t k = 1; k < order.size(); ++k) {
        const std::size_t prev = order[k - 1], cur = order[k];
        EXPECT_GE(size(prev), size(cur)) << "position " << k;
        if (size(prev) == size(cur)) {
            EXPECT_LE(a.sessions[prev].dataset, a.sessions[cur].dataset)
                << "position " << k;
        }
    }
    EXPECT_EQ(a.sessions[order.front()].kernel, "spmspm");

    // The same sessions arriving in reverse: the claim order names the
    // same kernel and dataset at every position.
    serve::TrafficScript b;
    for (auto it = a.sessions.rbegin(); it != a.sessions.rend(); ++it) {
        b.sessions.push_back(*it);
        b.sessions.back().id = b.sessions.size() - 1;
    }
    const std::vector<std::size_t> reversed = serve::largestFirst(b);
    ASSERT_EQ(reversed.size(), order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
        EXPECT_EQ(b.sessions[reversed[k]].kernel,
                  a.sessions[order[k]].kernel);
        EXPECT_EQ(b.sessions[reversed[k]].dataset,
                  a.sessions[order[k]].dataset);
    }
}

/**
 * The satellite regression for the stepEpoch() extraction: two
 * sessions advanced in lockstep from one loop make exactly the
 * decisions each makes when driven to completion alone. A
 * function-local static (or any other hidden shared state) in the
 * step path would couple them and break this.
 */
TEST(SessionStep, InterleavedSessionsMatchSequentialRuns)
{
    const serve::TrafficScript script = testScript(2);
    ASSERT_EQ(script.sessions.size(), 2u);

    struct Lane
    {
        Workload wl;
        EpochDb db;
        ReconfigCostModel cost;
        Policy policy;
        SessionContext ctx;
        SessionState state;
        std::size_t total;

        explicit Lane(const serve::SessionSpec &spec)
            : wl(serve::buildSessionWorkload(spec, kScale)),
              db(wl),
              cost(wl.params),
              policy(PolicyKind::Hybrid, 0.4),
              ctx{&sharedPredictor(), &policy,
                  OptMode::EnergyEfficient, &cost, nullptr, false,
                  nullptr},
              state(makeSessionState(baselineConfig(wl.l1Type), ctx)),
              total(std::min(spec.maxEpochs, db.numEpochs()))
        {
        }

        void
        step()
        {
            stepEpoch(state, ctx,
                      db.epochs(state.current)[state.epoch]);
        }
    };

    // Sequential reference: each session runs start-to-finish alone.
    std::vector<Schedule> want;
    for (const serve::SessionSpec &spec : script.sessions) {
        Lane lane(spec);
        for (std::size_t e = 0; e < lane.total; ++e)
            lane.step();
        want.push_back(lane.state.schedule);
    }

    // Interleaved: alternate one epoch at a time from a single loop.
    Lane a(script.sessions[0]);
    Lane b(script.sessions[1]);
    while (a.state.epoch < a.total || b.state.epoch < b.total) {
        if (a.state.epoch < a.total)
            a.step();
        if (b.state.epoch < b.total)
            b.step();
    }

    ASSERT_EQ(a.state.schedule.configs.size(),
              want[0].configs.size());
    ASSERT_EQ(b.state.schedule.configs.size(),
              want[1].configs.size());
    for (std::size_t e = 0; e < want[0].configs.size(); ++e)
        EXPECT_EQ(a.state.schedule.configs[e].encode(),
                  want[0].configs[e].encode())
            << "session 0 diverged at epoch " << e;
    for (std::size_t e = 0; e < want[1].configs.size(); ++e)
        EXPECT_EQ(b.state.schedule.configs[e].encode(),
                  want[1].configs[e].encode())
            << "session 1 diverged at epoch " << e;
}

/*
 * Serve replays each configuration only as far as its session reads,
 * and a session stops at its epoch budget. Driving the same sessions
 * to their budget on whole-trace replays (EpochDb::epochs()) must give
 * the same decisions and the same outcome rows bit for bit, so
 * stopping early cannot change a decision.
 */
TEST(Serve, BudgetedReplaysMatchFullTraceGroundTruth)
{
    const serve::TrafficScript script = testScript(4);
    auto served = serve::runServe(script, testOptions(2));
    ASSERT_TRUE(served.isOk()) << served.message();
    const serve::ServeResult &res = served.value();
    ASSERT_EQ(res.outcomes.size(), script.sessions.size());

    // The decisions runServe journaled, per session.
    std::vector<std::vector<std::string>> journaled(
        script.sessions.size());
    std::istringstream in(res.journalText);
    auto read = obs::readJournal(in);
    ASSERT_TRUE(read.isOk()) << read.message();
    for (const obs::JournalEvent &ev : read.value().events) {
        if (ev.type != "session" ||
            ev.strField("op").value_or("") != "decision")
            continue;
        const auto id = static_cast<std::size_t>(
            ev.intField("session").value_or(-1));
        ASSERT_LT(id, journaled.size());
        journaled[id].push_back(ev.strField("cfg").value_or(""));
    }

    std::size_t truncated = 0; //!< sessions whose budget cut a replay
    for (const serve::SessionSpec &spec : script.sessions) {
        SCOPED_TRACE("session " + std::to_string(spec.id));
        const Workload wl = serve::buildSessionWorkload(spec, kScale);
        EpochDb db(wl);
        const ReconfigCostModel cost(wl.params);
        const Policy policy(PolicyKind::Hybrid, 0.4);
        const SessionContext ctx{&sharedPredictor(), &policy,
                                 OptMode::EnergyEfficient, &cost,
                                 nullptr, false, nullptr};
        const HwConfig initial = baselineConfig(wl.l1Type);
        SessionState state = makeSessionState(initial, ctx);
        const std::size_t n = db.numEpochs();
        const std::size_t total =
            spec.maxEpochs > 0 ? std::min(spec.maxEpochs, n) : n;
        truncated += total < n;
        std::vector<std::string> decisions;
        while (state.epoch < total) {
            stepEpoch(state, ctx,
                      db.epochs(state.current)[state.epoch]);
            decisions.push_back(state.current.toSpec());
        }
        EXPECT_EQ(db.numEpochs(), n);
        EXPECT_EQ(decisions, journaled[spec.id]);

        const ScheduleEval ev = evaluateSchedulePrefix(
            db, state.schedule, cost, OptMode::EnergyEfficient,
            initial);
        const serve::SessionOutcome &row = res.outcomes[spec.id];
        EXPECT_EQ(row.id, spec.id);
        EXPECT_EQ(row.epochs, state.epoch);
        EXPECT_EQ(row.reconfigs, ev.reconfigCount);
        EXPECT_EQ(row.seconds, ev.seconds);
        EXPECT_EQ(row.gflops, ev.gflops());
        EXPECT_EQ(row.metricValue, ev.metric(OptMode::EnergyEfficient));
    }
    EXPECT_GT(truncated, 0u);
}

TEST(Serve, RejectsBadInput)
{
    serve::TrafficScript script = testScript(1);
    serve::ServeOptions so = testOptions(0);
    so.predictor = nullptr;
    EXPECT_FALSE(serve::runServe(script, so).isOk());

    script.sessions[0].dataset = "NOPE";
    EXPECT_FALSE(
        serve::runServe(script, testOptions(0)).isOk());
}

TEST(Serve, MergedArtifactsAreByteIdenticalAcrossWindows)
{
    const serve::TrafficScript script = testScript(4);

    auto ref = serve::runServe(script, testOptions(1));
    ASSERT_TRUE(ref.isOk()) << ref.message();
    ASSERT_FALSE(ref.value().journalText.empty());
    ASSERT_EQ(ref.value().outcomes.size(), 4u);

    for (const unsigned window : {4u, 4u, 2u, 0u}) {
        auto got = serve::runServe(script, testOptions(window));
        ASSERT_TRUE(got.isOk()) << got.message();
        EXPECT_EQ(got.value().journalText, ref.value().journalText)
            << "window " << window;
        EXPECT_EQ(got.value().metricsText, ref.value().metricsText)
            << "window " << window;
        EXPECT_EQ(got.value().epochsServed,
                  ref.value().epochsServed);
        EXPECT_EQ(got.value().decisions, ref.value().decisions);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_DOUBLE_EQ(got.value().outcomes[i].gflops,
                             ref.value().outcomes[i].gflops);
            EXPECT_EQ(got.value().outcomes[i].epochs,
                      ref.value().outcomes[i].epochs);
        }
    }
}

/*
 * Decision latency is reported as exact nearest-rank quantiles of the
 * raw samples. A sample is the session's own fetch plus its own step,
 * each bracketed by two clock reads. With a window of one, every tick
 * reads the clock four times, so a clock returning k^2 us on its k-th
 * call makes the i-th decision take (8i + 1) + (8i + 5) = 16i + 6 us.
 */
TEST(Serve, DecisionLatencyQuantilesAreExactNearestRank)
{
    const serve::TrafficScript script = testScript(3);
    serve::ServeOptions so = testOptions(1);
    std::uint64_t calls = 0;
    so.nowNs = [&calls] {
        const std::uint64_t k = calls++;
        return k * k * 1000;
    };
    auto r = serve::runServe(script, so);
    ASSERT_TRUE(r.isOk()) << r.message();
    const std::uint64_t n = r.value().epochsServed;
    ASSERT_GT(n, 2u);
    ASSERT_EQ(calls, 4 * n);

    auto wantMs = [n](std::uint64_t pct) {
        const std::uint64_t rank = (n * pct + 99) / 100;
        return static_cast<double>((16 * (rank - 1) + 6) * 1000) / 1e6;
    };
    EXPECT_EQ(r.value().decisionP50Ms, wantMs(50));
    EXPECT_EQ(r.value().decisionP99Ms, wantMs(99));
}

/*
 * With two sessions open per tick, one session's sample must not
 * include the other's fetch or step. Every fetch and every step is
 * bracketed by its own two clock reads, so a span that covered another
 * session's work would also cover that work's reads. A clock that
 * advances 1 us per call therefore reads exactly 1 us per timed
 * interval, 2 us per sample, only if no sample spans foreign work.
 */
TEST(Serve, DecisionLatencyExcludesOtherSessionsWork)
{
    const serve::TrafficScript script = testScript(4);
    serve::ServeOptions so = testOptions(2);
    std::uint64_t calls = 0;
    so.nowNs = [&calls] { return 1000 * calls++; };
    auto r = serve::runServe(script, so);
    ASSERT_TRUE(r.isOk()) << r.message();
    const serve::ServeResult &res = r.value();
    // Some tick served two sessions at once.
    ASSERT_LT(res.ticks, res.epochsServed);
    EXPECT_EQ(calls, 4 * res.epochsServed);
    EXPECT_EQ(res.decisionP50Ms, 0.002);
    EXPECT_EQ(res.decisionP99Ms, 0.002);
}

TEST(Serve, MergedJournalPassesTheValidator)
{
    const serve::TrafficScript script = testScript(3);
    auto r = serve::runServe(script, testOptions(2));
    ASSERT_TRUE(r.isOk()) << r.message();

    std::istringstream in(r.value().journalText);
    auto read = obs::readJournal(in);
    ASSERT_TRUE(read.isOk()) << read.message();
    EXPECT_FALSE(read.value().truncated);

    const analysis::Report report =
        analysis::checkJournalEvents(read.value().events, "serve");
    EXPECT_TRUE(report.clean()) << report.findings().size()
                                << " findings";

    // Sanity on the shape: one open/close pair per session, plus one
    // decision per served epoch.
    std::size_t opens = 0, closes = 0, decisions = 0;
    for (const obs::JournalEvent &ev : read.value().events) {
        if (ev.type != "session")
            continue;
        const std::string op = ev.strField("op").value_or("");
        opens += op == "open";
        closes += op == "close";
        decisions += op == "decision";
    }
    EXPECT_EQ(opens, script.sessions.size());
    EXPECT_EQ(closes, script.sessions.size());
    EXPECT_EQ(decisions, r.value().epochsServed);
}
