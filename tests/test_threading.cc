/**
 * @file
 * Units for parallelFor and defaultJobs of src/common/threading:
 * index coverage, the jobs<=1 exact-serial contract, the worker-count
 * bound, and first-exception propagation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/threading.hh"

using namespace sadapt;

TEST(DefaultJobs, HonorsEnvironmentOverride)
{
    ::setenv("SPARSEADAPT_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    ::setenv("SPARSEADAPT_JOBS", "0", 1);
    EXPECT_EQ(defaultJobs(), 1u); // clamped to at least one worker
    ::unsetenv("SPARSEADAPT_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(ParallelFor, SerialPathRunsInOrderOnCallerThread)
{
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallelFor(17, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    std::vector<std::size_t> want(17);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(order, want);
}

TEST(ParallelFor, SingleItemStaysSerialForAnyJobs)
{
    const auto caller = std::this_thread::get_id();
    std::size_t calls = 0;
    parallelFor(1, 8, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++calls;
    });
    EXPECT_EQ(calls, 1u);
}

TEST(ParallelFor, ZeroItemsNeverInvokesBody)
{
    parallelFor(0, 8, [](std::size_t) { FAIL() << "body called"; });
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 200;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, 8, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, PropagatesExceptionSerial)
{
    EXPECT_THROW(parallelFor(10, 1,
                             [](std::size_t i) {
                                 if (i == 4)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, PropagatesExceptionParallel)
{
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(parallelFor(100, 4,
                             [&](std::size_t i) {
                                 ++ran;
                                 if (i == 37)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // Short-circuits: the failure flag stops idle workers early, so
    // not every remaining index needs to run (but some already did).
    EXPECT_GE(ran.load(), 1u);
}

TEST(ParallelFor, UsesAtMostMinJobsNThreads)
{
    for (const auto &[n, jobs] :
         std::vector<std::pair<std::size_t, unsigned>>{
             {100, 3}, {5, 8}, {2, 4}}) {
        std::mutex mu;
        std::set<std::thread::id> seen;
        parallelFor(n, jobs, [&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            std::lock_guard<std::mutex> lock(mu);
            seen.insert(std::this_thread::get_id());
        });
        EXPECT_GE(seen.size(), 1u);
        EXPECT_LE(seen.size(), std::min<std::size_t>(jobs, n))
            << "n " << n << " jobs " << jobs;
    }
}

TEST(ParallelFor, NoBodyRunsAfterItThrows)
{
    // Every worker joins before the exception reaches the caller, so
    // the body count is final the moment the catch block runs.
    std::atomic<std::size_t> ran{0};
    std::size_t at_catch = 0;
    try {
        parallelFor(1000, 4, [&](std::size_t i) {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
            ++ran;
            if (i == 10)
                throw std::runtime_error("boom");
        });
        FAIL() << "no exception";
    } catch (const std::runtime_error &) {
        at_catch = ran.load();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(ran.load(), at_catch);
}
