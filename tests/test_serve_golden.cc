/**
 * @file
 * Golden serve pin: one FNV-1a digest over everything a serve run
 * publishes — the merged journal, the merged metrics snapshot and the
 * outcome rows (doubles printed with %a, so every bit counts) — for a
 * fixed mixed traffic script, at several admission windows, plus the
 * compacted bytes of a store the run filled.
 *
 * The script mixes the three serve families with budgets 8 and 30 (30
 * runs some sessions to the end of their trace), and at least one
 * session returns to a configuration it left earlier, so a change to
 * how a session's epochs are fetched or replayed is caught here. On a
 * mismatch the test prints the digest it computed; a new value is only
 * committed together with the change that explains it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/trainer.hh"
#include "common/rng.hh"
#include "obs/journal.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"
#include "store/epoch_store.hh"

using namespace sadapt;

namespace fs = std::filesystem;

namespace {

/** The serve suite's tiny deterministic model. */
const Predictor &
goldenPredictor()
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

/** Fixed arrivals: (dataset, kernel, arrival tick, epoch budget). */
serve::TrafficScript
goldenScript()
{
    struct Row
    {
        const char *dataset;
        const char *kernel;
        std::uint64_t tick;
        std::size_t budget;
    };
    const Row rows[] = {
        {"U1", "spmspv", 0, 30}, {"R02", "spmspm", 0, 8},
        {"R09", "spmspv", 1, 30}, {"P3", "spmspv", 2, 8},
        {"R08", "spmspm", 2, 30}, {"R14", "spmspv", 4, 8},
    };
    serve::TrafficScript script;
    for (const Row &r : rows) {
        serve::SessionSpec s;
        s.id = script.sessions.size();
        s.dataset = r.dataset;
        s.kernel = r.kernel;
        s.arrivalTick = r.tick;
        s.maxEpochs = r.budget;
        script.sessions.push_back(s);
    }
    return script;
}

serve::ServeOptions
goldenOptions(unsigned window, store::EpochStore *st = nullptr)
{
    serve::ServeOptions so;
    so.sessions = window;
    so.scale = kScale;
    so.predictor = &goldenPredictor();
    so.store = st;
    return so;
}

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

std::string
outcomeRows(const serve::ServeResult &res)
{
    std::string out;
    char line[512];
    for (const serve::SessionOutcome &o : res.outcomes) {
        std::snprintf(line, sizeof line, "%llu %s %s %zu %u %a %a %a\n",
                      static_cast<unsigned long long>(o.id),
                      o.dataset.c_str(), o.kernel.c_str(), o.epochs,
                      o.reconfigs, o.seconds, o.gflops, o.metricValue);
        out += line;
    }
    return out;
}

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

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * A fixed simulator salt: the default one hashes the git revision the
 * build was configured at, which would move the store bytes with
 * every commit.
 */
store::StoreOptions
storeOptions()
{
    store::StoreOptions o;
    o.simSalt = 0x5e77e;
    return o;
}

constexpr std::uint64_t kGoldenRun = 0xd15ae8cc69116767ull;
constexpr std::uint64_t kGoldenStore = 0xaed35a77ba4fe35eull;

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
        auto r = serve::runServe(goldenScript(), goldenOptions(window));
        ASSERT_TRUE(r.isOk()) << r.message();
        const std::uint64_t got = digestOf(r.value());
        EXPECT_EQ(got, kGoldenRun)
            << "window " << window << ": computed digest 0x" << std::hex
            << got;
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

    // With a store attached every replay runs to the session's epoch
    // count at first touch, so the store holds whole results.
    const std::string path =
        ::testing::TempDir() + "serve_golden_count.store";
    fs::remove(path);
    store::EpochStore st;
    ASSERT_TRUE(st.open(path).isOk());
    auto r = serve::runServe(goldenScript(), goldenOptions(4, &st));
    ASSERT_TRUE(r.isOk()) << r.message();
    EXPECT_EQ(r.value().epochsReplayed, budget);
    st.close();
    fs::remove(path);
}

TEST(ServeGolden, CompactedStoreBytesArePinned)
{
    const std::string path =
        ::testing::TempDir() + "serve_golden.store";
    fs::remove(path);
    fs::remove(path + ".compact");
    {
        store::EpochStore st;
        ASSERT_TRUE(st.open(path, storeOptions()).isOk());
        auto r = serve::runServe(goldenScript(), goldenOptions(2, &st));
        ASSERT_TRUE(r.isOk()) << r.message();
        EXPECT_EQ(digestOf(r.value()), kGoldenRun);
        st.flush();
        ASSERT_TRUE(st.compact().isOk());
    }
    const std::string bytes = fileBytes(path);
    ASSERT_FALSE(bytes.empty());
    Fnv d;
    d.text(bytes);
    EXPECT_EQ(d.h, kGoldenStore)
        << "computed digest 0x" << std::hex << d.h;
    fs::remove(path);
    fs::remove(path + ".compact");
}
