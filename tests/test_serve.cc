/**
 * @file
 * The serving contract: traffic-script round-trips, re-entrant
 * session interleaving, and the byte-identity of the multi-tenant
 * server's merged artifacts (journal, metrics, compacted store) for
 * any admission window and any prediction-batch job count — including
 * after a SIGKILL lands mid-replay and a warm rerun finishes the job.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "adapt/epoch_db.hh"
#include "adapt/session.hh"
#include "adapt/trainer.hh"
#include "analysis/journal_check.hh"
#include "common/rng.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"
#include "sim/config.hh"
#include "store/epoch_store.hh"

using namespace sadapt;

namespace fs = std::filesystem;

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
testOptions(unsigned window, unsigned jobs,
            store::EpochStore *st = nullptr)
{
    serve::ServeOptions so;
    so.sessions = window;
    so.jobs = jobs;
    so.scale = kScale;
    so.predictor = &sharedPredictor();
    so.store = st;
    return so;
}

std::string
tempPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    fs::remove(path);
    fs::remove(path + ".compact");
    return path;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Replay into a fresh store at `path`, flush + compact it. */
serve::ServeResult
replayWithStore(const serve::TrafficScript &script, unsigned window,
                unsigned jobs, const std::string &path)
{
    store::EpochStore st;
    EXPECT_TRUE(st.open(path).isOk());
    auto r = serve::runServe(script, testOptions(window, jobs, &st));
    EXPECT_TRUE(r.isOk()) << r.message();
    st.flush();
    EXPECT_TRUE(st.compact().isOk());
    return std::move(r.value());
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
              cost(wl.params.shape, wl.params.memBandwidth,
                   wl.params.energy),
              policy(PolicyKind::Hybrid, 0.4),
              ctx{&sharedPredictor(), &policy,
                  OptMode::EnergyEfficient, &cost, nullptr, false,
                  true, nullptr},
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

TEST(Serve, RejectsBadInput)
{
    serve::TrafficScript script = testScript(1);
    serve::ServeOptions so = testOptions(0, 1);
    so.predictor = nullptr;
    EXPECT_FALSE(serve::runServe(script, so).isOk());

    script.sessions[0].dataset = "NOPE";
    EXPECT_FALSE(
        serve::runServe(script, testOptions(0, 1)).isOk());
}

TEST(Serve, MergedArtifactsAreByteIdenticalAcrossWindowAndJobs)
{
    const serve::TrafficScript script = testScript(4);

    auto ref = serve::runServe(script, testOptions(1, 1));
    ASSERT_TRUE(ref.isOk()) << ref.message();
    ASSERT_FALSE(ref.value().journalText.empty());
    ASSERT_EQ(ref.value().outcomes.size(), 4u);

    const std::vector<std::pair<unsigned, unsigned>> variants = {
        {4, 2}, {4, 2}, {2, 3}, {0, 4}};
    for (const auto &[window, jobs] : variants) {
        auto got = serve::runServe(script, testOptions(window, jobs));
        ASSERT_TRUE(got.isOk()) << got.message();
        EXPECT_EQ(got.value().journalText, ref.value().journalText)
            << "window " << window << " jobs " << jobs;
        EXPECT_EQ(got.value().metricsText, ref.value().metricsText)
            << "window " << window << " jobs " << jobs;
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

TEST(Serve, MergedJournalPassesTheValidator)
{
    const serve::TrafficScript script = testScript(3);
    auto r = serve::runServe(script, testOptions(2, 2));
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

TEST(Serve, SharedStoreCompactsToIdenticalBytes)
{
    const serve::TrafficScript script = testScript(4);

    const std::string serial = tempPath("serve_serial.store");
    const serve::ServeResult ref =
        replayWithStore(script, 1, 1, serial);

    const std::string wide = tempPath("serve_wide.store");
    const serve::ServeResult got =
        replayWithStore(script, 0, 3, wide);

    EXPECT_EQ(got.journalText, ref.journalText);
    EXPECT_EQ(got.metricsText, ref.metricsText);
    const std::string canonical = fileBytes(serial);
    ASSERT_FALSE(canonical.empty());
    EXPECT_EQ(fileBytes(wide), canonical);

    // A warm rerun on the surviving store changes nothing.
    const serve::ServeResult warm =
        replayWithStore(script, 2, 2, wide);
    EXPECT_EQ(warm.journalText, ref.journalText);
    EXPECT_EQ(warm.metricsText, ref.metricsText);
    EXPECT_EQ(fileBytes(wide), canonical);
}

/**
 * Kill-mid-session drill: SIGKILL a replay partway through, then
 * finish the job warm on whatever the store kept. The final merged
 * journal/metrics and the compacted store must be byte-identical to
 * an uninterrupted cold run. (Tests may fork; lint-process-control
 * scopes src/ only.)
 */
TEST(ServeCrash, Kill9MidReplayThenWarmRerunMatchesCold)
{
    const serve::TrafficScript script = testScript(4);

    const std::string cold = tempPath("serve_cold.store");
    const serve::ServeResult ref =
        replayWithStore(script, 2, 2, cold);
    const std::string canonical = fileBytes(cold);
    ASSERT_FALSE(canonical.empty());

    for (unsigned trial = 0; trial < 6; ++trial) {
        const std::string path = tempPath("serve_kill9.store");
        std::fflush(nullptr); // no duplicated stdio in the child
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: replay with the store until killed. _Exit codes
            // mark setup errors; SIGKILL is the expected way out.
            store::EpochStore st;
            if (!st.open(path).isOk())
                std::_Exit(2);
            auto r =
                serve::runServe(script, testOptions(2, 2, &st));
            if (!r.isOk())
                std::_Exit(3);
            st.flush();
            for (;;) {
                // Finished early: keep compacting so late kills
                // still land somewhere interesting.
                if (!st.compact().isOk())
                    std::_Exit(4);
            }
        }
        ::usleep(30000 * trial); // sweep the kill across the replay
        ASSERT_EQ(::kill(pid, SIGKILL), 0);
        int wstatus = 0;
        ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(wstatus))
            << "child exited with " << WEXITSTATUS(wstatus);

        // Warm rerun on the survivor: everything must converge to
        // the cold run, byte for byte.
        const serve::ServeResult warm =
            replayWithStore(script, 3, 2, path);
        EXPECT_EQ(warm.journalText, ref.journalText)
            << "trial " << trial;
        EXPECT_EQ(warm.metricsText, ref.metricsText)
            << "trial " << trial;
        EXPECT_EQ(fileBytes(path), canonical) << "trial " << trial;
        fs::remove(path);
        fs::remove(path + ".compact");
    }
}
