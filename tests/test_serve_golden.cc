/**
 * @file
 * Golden serve pin: one FNV-1a digest over everything a serve run
 * publishes — the merged journal, the merged metrics snapshot and the
 * outcome rows (doubles printed with %a, so every bit counts) — for a
 * fixed mixed traffic script (tests/serve_fixture.hh), at several
 * admission windows and worker counts.
 *
 * The script revisits a configuration, so a change to how a session's
 * epochs are fetched or replayed is caught here. On a mismatch the test
 * prints the digest it computed; a new value is only committed
 * together with the change that explains it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/journal.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"
#include "serve_fixture.hh"

using namespace sadapt;
using namespace sadapt::test;

namespace {

/** FNV-1a over bytes. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

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
digestOf(const serve::ServeResult &res)
{
    Fnv d;
    d.text(res.journalText);
    d.text(res.metricsText);
    d.text(outcomeRows(res));
    return d.h;
}

/** Per session, the configuration spec of every served epoch. */
std::map<std::int64_t, std::vector<std::string>>
servedConfigs(const serve::ServeResult &res)
{
    std::istringstream in(res.journalText);
    auto read = obs::readJournal(in);
    EXPECT_TRUE(read.isOk()) << read.message();
    std::map<std::int64_t, std::vector<std::string>> cfgs;
    if (!read.isOk())
        return cfgs;
    const std::string initial = baselineConfig(MemType::Cache).toSpec();
    for (const obs::JournalEvent &ev : read.value().events) {
        if (ev.type != "session")
            continue;
        const std::string op = ev.strField("op").value_or("");
        const std::int64_t id = ev.intField("session").value_or(-1);
        if (op == "open")
            cfgs[id].push_back(initial);
        else if (op == "decision")
            cfgs[id].push_back(ev.strField("cfg").value_or(""));
    }
    // The last decision answers an epoch that is never served.
    for (auto &[id, seq] : cfgs)
        if (!seq.empty())
            seq.pop_back();
    return cfgs;
}

constexpr std::uint64_t kGoldenRun = 0xd15ae8cc69116767ull;

} // namespace

TEST(ServeGolden, ScriptRevisitsAConfiguration)
{
    auto r = serve::runServe(goldenScript(), goldenOptions(0));
    ASSERT_TRUE(r.isOk()) << r.message();
    bool revisits = false;
    for (const auto &[id, seq] : servedConfigs(r.value())) {
        for (std::size_t e = 2; e < seq.size() && !revisits; ++e)
            for (std::size_t j = 0; j + 1 < e && !revisits; ++j)
                revisits = seq[j] == seq[e] && seq[e - 1] != seq[e];
    }
    EXPECT_TRUE(revisits);
}

TEST(ServeGolden, MergedArtifactsArePinnedAtEveryWindow)
{
    for (const unsigned window : {0u, 1u, 4u}) {
        for (const unsigned jobs : {1u, 4u}) {
            auto r = serve::runServe(goldenScript(),
                                     goldenOptions(window, jobs));
            ASSERT_TRUE(r.isOk()) << r.message();
            const std::uint64_t got = digestOf(r.value());
            EXPECT_EQ(got, kGoldenRun)
                << "window " << window << " jobs " << jobs
                << ": computed digest 0x" << std::hex << got;
        }
    }
}

/*
 * The out-of-band counts of the golden script: the scheduling ticks
 * the admission window implies and the epoch records replayed. Both
 * depend only on the script, the window and the simulator, never on
 * the worker count.
 */
TEST(ServeGolden, TickScheduleAndReplayCountArePinned)
{
    struct Pin
    {
        unsigned window;
        std::uint64_t ticks;
        std::uint64_t replayed;
    };
    const Pin pins[] = {
        {0, 17, 83}, {1, 61, 83}, {2, 31, 83}, {4, 23, 83},
    };
    for (const Pin &p : pins) {
        for (const unsigned jobs : {1u, 4u}) {
            auto r = serve::runServe(goldenScript(),
                                     goldenOptions(p.window, jobs));
            ASSERT_TRUE(r.isOk()) << r.message();
            EXPECT_EQ(r.value().ticks, p.ticks)
                << "window " << p.window << " jobs " << jobs;
            EXPECT_EQ(r.value().epochsReplayed, p.replayed)
                << "window " << p.window << " jobs " << jobs;
        }
    }
}

/*
 * A session replays each configuration it visits up to the last epoch
 * it reads under it, and no further. The count is deterministic and
 * out of band: it never reaches the journal or the metrics.
 */
TEST(ServeGolden, ReplaysOnlyTheEpochsSessionsRead)
{
    std::uint64_t read = 0;   //!< sum of (last epoch read + 1)
    std::uint64_t budget = 0; //!< served epochs x visited configs
    for (const unsigned window : {0u, 1u, 4u}) {
        auto r = serve::runServe(goldenScript(), goldenOptions(window));
        ASSERT_TRUE(r.isOk()) << r.message();
        if (window == 0) {
            for (const auto &[id, seq] : servedConfigs(r.value())) {
                std::map<std::string, std::size_t> last;
                for (std::size_t e = 0; e < seq.size(); ++e)
                    last[seq[e]] = e;
                for (const auto &[cfg, e] : last)
                    read += e + 1;
                budget += seq.size() * last.size();
            }
            EXPECT_LT(read, budget);
        }
        EXPECT_EQ(r.value().epochsReplayed, read) << "window " << window;
    }
}
