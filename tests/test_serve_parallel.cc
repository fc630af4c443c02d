/**
 * @file
 * Serve on workers: runServe() runs every session start to finish on
 * one of min(jobs, window) parallelFor workers and merges in session id
 * order. Everything it publishes must be the same at any window and
 * worker count, on every repetition, and the injected clock is called
 * from the workers concurrently. Under the "threading" label, so the
 * ThreadSanitizer stage of tools/run_checks.sh runs these too.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "serve/server.hh"
#include "serve_fixture.hh"

using namespace sadapt;
using namespace sadapt::test;

/*
 * Journal, metrics, outcome rows and replayed-epoch count are equal
 * across windows 0/2/4, jobs 1/4 and three repetitions; the tick count
 * depends on the window only.
 */
TEST(ServeParallel, ArtifactsAreIdenticalAtAnyWindowAndJobCount)
{
    auto ref = serve::runServe(goldenScript(), goldenOptions(1));
    ASSERT_TRUE(ref.isOk()) << ref.message();
    const serve::ServeResult &want = ref.value();
    ASSERT_FALSE(want.journalText.empty());

    std::map<unsigned, std::uint64_t> ticks; //!< per window, jobs 1
    for (int rep = 0; rep < 3; ++rep) {
        for (const unsigned window : {0u, 2u, 4u}) {
            for (const unsigned jobs : {1u, 4u}) {
                auto r = serve::runServe(goldenScript(),
                                         goldenOptions(window, jobs));
                ASSERT_TRUE(r.isOk()) << r.message();
                const serve::ServeResult &got = r.value();
                const std::string at = "window " +
                    std::to_string(window) + " jobs " +
                    std::to_string(jobs) + " rep " + std::to_string(rep);
                EXPECT_EQ(got.journalText, want.journalText) << at;
                EXPECT_EQ(got.metricsText, want.metricsText) << at;
                EXPECT_EQ(outcomeRows(got), outcomeRows(want)) << at;
                EXPECT_EQ(got.epochsReplayed, want.epochsReplayed) << at;
                EXPECT_EQ(got.epochsServed, want.epochsServed) << at;
                const auto [it, first] = ticks.emplace(window, got.ticks);
                EXPECT_EQ(got.ticks, it->second) << at;
            }
        }
    }
}

/*
 * Each decision reads the clock four times: around its own fetch and
 * around its own step. With four workers calling a counting clock at
 * once, the count is still exactly four per served epoch.
 */
TEST(ServeParallel, ClockReadsAreFourPerDecisionOnWorkers)
{
    for (const unsigned window : {0u, 4u}) {
        std::atomic<std::uint64_t> calls{0};
        serve::ServeOptions so = goldenOptions(window, 4);
        so.nowNs = [&calls] { return 1000 * calls.fetch_add(1); };
        auto r = serve::runServe(goldenScript(), so);
        ASSERT_TRUE(r.isOk()) << r.message();
        EXPECT_EQ(calls.load(), 4 * r.value().epochsServed)
            << "window " << window;
        EXPECT_GT(r.value().decisionP50Ms, 0.0);
    }
}
