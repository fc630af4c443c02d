/**
 * @file
 * Determinism-analyzer tests: every seeded fixture class is flagged
 * with its full source->sink call chain, legitimate uses pass via
 * scoped allowances (not baseline entries), the negatives stay
 * quiet, stale baseline entries are detected, and the JSON output is
 * byte-stable against a committed golden file.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/determinism_check.hh"

using namespace sadapt::analysis;

namespace {

std::string
fixturePath(const std::string &name)
{
    return std::string(SADAPT_TEST_DATA_DIR) + "/analysis/det/" +
        name;
}

Report
checkFixture(const std::string &name)
{
    return checkDeterminismTree(
        {fixturePath(name)},
        std::string(SADAPT_TEST_DATA_DIR) + "/analysis");
}

const Finding *
findCheck(const Report &r, const std::string &check_id)
{
    for (const auto &f : r.findings())
        if (f.checkId == check_id)
            return &f;
    return nullptr;
}

} // namespace

TEST(Determinism, MutableGlobalFixtureFlaggedWithChain)
{
    const Report r = checkFixture("mutable_global.cc");
    const Finding *lint = findCheck(r, "lint-mutable-global");
    ASSERT_NE(lint, nullptr);
    EXPECT_EQ(lint->line, 9u);

    const Finding *taint = findCheck(r, "det-taint-mutable-global");
    ASSERT_NE(taint, nullptr);
    ASSERT_EQ(taint->chain.size(), 2u);
    EXPECT_EQ(taint->chain[0], "fix::recordEpoch");
    EXPECT_EQ(taint->chain[1], "RunObserver::emit");
    EXPECT_NE(taint->message.find("epochCounter"),
              std::string::npos);
}

TEST(Determinism, UnorderedIterFixtureFlagged)
{
    const Report r = checkFixture("unordered_iter.cc");
    ASSERT_NE(findCheck(r, "lint-unordered-iter"), nullptr);
    const Finding *taint = findCheck(r, "det-taint-unordered-iter");
    ASSERT_NE(taint, nullptr);
    ASSERT_EQ(taint->chain.size(), 2u);
    EXPECT_EQ(taint->chain[0], "fix::flushCells");
    EXPECT_EQ(taint->chain[1], "EpochStore::put");
}

TEST(Determinism, PointerOrderFixtureFlagged)
{
    const Report r = checkFixture("pointer_order.cc");
    ASSERT_NE(findCheck(r, "lint-pointer-order"), nullptr);
    const Finding *taint = findCheck(r, "det-taint-pointer-order");
    ASSERT_NE(taint, nullptr);
    EXPECT_EQ(taint->chain.back(), "BenchReport::add");
}

TEST(Determinism, WallclockFixtureHasMultiHopChain)
{
    const Report r = checkFixture("wallclock.cc");
    ASSERT_NE(findCheck(r, "lint-wallclock"), nullptr);
    const Finding *taint = findCheck(r, "det-taint-wallclock");
    ASSERT_NE(taint, nullptr);
    // The clock read lives in a helper; the chain must span the hop.
    EXPECT_EQ(taint->chain,
              (std::vector<std::string>{"fix::nowNs",
                                        "fix::recordEpoch",
                                        "RunObserver::emit"}));
    EXPECT_NE(taint->format().find(
                  "fix::nowNs -> fix::recordEpoch -> "
                  "RunObserver::emit"),
              std::string::npos);
}

TEST(Determinism, ThreadIdFixtureFlagged)
{
    const Report r = checkFixture("thread_id.cc");
    const Finding *taint = findCheck(r, "det-taint-thread-id");
    ASSERT_NE(taint, nullptr);
    EXPECT_EQ(taint->chain.back(), "RunObserver::emit");
}

TEST(Determinism, ServeSessionStateRuleConfinesServeGlobals)
{
    const std::string globalCode =
        "int pendingSessions = 0;\n"
        "void bump()\n"
        "{\n"
        "    ++pendingSessions;\n"
        "}\n";
    // Inside a serve/ component the stricter session-isolation rule
    // fires (and the generic rule does not double-report).
    {
        const Report r = checkDeterminism(
            {{"src/serve/server.cc", globalCode}});
        const Finding *f = findCheck(r, "lint-serve-session-state");
        ASSERT_NE(f, nullptr);
        EXPECT_NE(f->message.find("pendingSessions"),
                  std::string::npos);
        EXPECT_EQ(findCheck(r, "lint-mutable-global"), nullptr);
    }
    // Only a component literally named "serve" qualifies: neighbours
    // keep the generic mutable-global rule.
    for (const char *path :
         {"src/server/server.cc", "src/sim/serve_utils.cc"}) {
        const Report r = checkDeterminism({{path, globalCode}});
        EXPECT_EQ(findCheck(r, "lint-serve-session-state"), nullptr)
            << path;
        EXPECT_NE(findCheck(r, "lint-mutable-global"), nullptr)
            << path;
    }
    const Report fixture = checkDeterminismTree(
        {std::string(SADAPT_TEST_DATA_DIR) + "/analysis/serve"},
        std::string(SADAPT_TEST_DATA_DIR) + "/analysis");
    EXPECT_NE(findCheck(fixture, "lint-serve-session-state"),
              nullptr);
}

TEST(Determinism, CleanFixtureStaysQuiet)
{
    const Report r = checkFixture("clean.cc");
    EXPECT_TRUE(r.clean()) << [&] {
        std::ostringstream os;
        r.print(os);
        return os.str();
    }();
}

TEST(Determinism, AllowancesScopeLegitimateUses)
{
    const std::string randCode =
        "void draw(Obs &obs)\n"
        "{\n"
        "    obs.emit(\"draw\", rand());\n"
        "}\n";
    // The one home of randomness carries an allowance...
    EXPECT_TRUE(
        checkDeterminism({{"src/common/rng.cc", randCode}}).clean());
    // ...the same code anywhere else is a finding.
    const Report r =
        checkDeterminism({{"src/sim/engine.cc", randCode}});
    EXPECT_NE(findCheck(r, "det-taint-random"), nullptr);
}

TEST(Determinism, AllowanceAlsoStopsTaintSeeding)
{
    // A random draw in an allowed file must not taint callers into
    // findings either: the allowance covers the seed, not just the
    // lint line.
    const Report r = checkDeterminism(
        {{"src/common/rng.cc",
          "double draw() { return rand() * 1e-6; }\n"},
         {"src/obs/metrics.cc",
          "void snapshot(Obs &o) { o.emit(\"t\", draw()); }\n"}});
    EXPECT_TRUE(r.clean());
}

TEST(Determinism, EveryAllowanceCarriesAJustification)
{
    for (const RuleAllowance &a : determinismAllowances()) {
        EXPECT_FALSE(a.rule.empty());
        EXPECT_FALSE(a.pathPrefix.empty());
        // The why is the audit trail: a sentence, not a token.
        EXPECT_GE(a.why.size(), 20u) << a.rule << " " << a.pathPrefix;
    }
}

TEST(Determinism, SortAfterIterationIsCanonicalization)
{
    const Report r = checkDeterminism(
        {{"src/sim/x.cc",
          "void flush(Store &s,\n"
          "           const std::unordered_set<std::string> &keys)\n"
          "{\n"
          "    std::vector<std::string> v;\n"
          "    for (const auto &k : keys)\n"
          "        v.push_back(k);\n"
          "    std::sort(v.begin(), v.end());\n"
          "    for (const auto &k : v)\n"
          "        s.put(k, 1.0);\n"
          "}\n"}});
    EXPECT_TRUE(r.clean());
}

TEST(Determinism, AllowanceAnchorsAtPathComponentBoundary)
{
    // "common/rng" is a component-anchored prefix: it must not
    // silence a file whose path merely contains it as a substring.
    const std::string randCode =
        "void draw(Obs &obs)\n"
        "{\n"
        "    obs.emit(\"draw\", rand());\n"
        "}\n";
    const Report r = checkDeterminism(
        {{"src/mycommon/rng_x.cc", randCode}});
    EXPECT_NE(findCheck(r, "det-taint-random"), nullptr);
}

TEST(Determinism, UnrelatedMemberCallsAreNotSinks)
{
    // cache.add() is someone else's add, not BenchReport::add: the
    // clock read is still linted, but no taint finding claims the
    // value reaches a deterministic artifact.
    const Report r = checkDeterminism(
        {{"src/sim/x.cc",
          "void stamp(Cache &cache)\n"
          "{\n"
          "    const auto t = std::chrono::steady_clock::now();\n"
          "    cache.add(t.time_since_epoch().count());\n"
          "}\n"}});
    EXPECT_NE(findCheck(r, "lint-wallclock"), nullptr);
    EXPECT_EQ(findCheck(r, "det-taint-wallclock"), nullptr);
}

TEST(Determinism, QualifiedSinkCallStillCounts)
{
    const Report r = checkDeterminism(
        {{"src/sim/x.cc",
          "void stamp(BenchReport &report)\n"
          "{\n"
          "    const auto t = std::chrono::steady_clock::now();\n"
          "    BenchReport::add(t.time_since_epoch().count());\n"
          "}\n"}});
    EXPECT_NE(findCheck(r, "det-taint-wallclock"), nullptr);
}

TEST(Determinism, SortOfUnrelatedContainerDoesNotDefuse)
{
    // The sort after the loop touches a different container, so the
    // hash-order write to the store is still a finding.
    const Report r = checkDeterminism(
        {{"src/sim/x.cc",
          "void flush(Store &store, Idx &other,\n"
          "           const std::unordered_map<std::string, double>"
          " &cells)\n"
          "{\n"
          "    for (const auto &kv : cells)\n"
          "        store.put(kv.first, kv.second);\n"
          "    std::sort(other.begin(), other.end());\n"
          "}\n"}});
    EXPECT_NE(findCheck(r, "lint-unordered-iter"), nullptr);
    EXPECT_NE(findCheck(r, "det-taint-unordered-iter"), nullptr);
}

TEST(Determinism, SortInsideLoopBodyDoesNotDefuse)
{
    // A sort inside the body sorts per-entry data; the iteration
    // order feeding the store is still hash order.
    const Report r = checkDeterminism(
        {{"src/sim/x.cc",
          "void flush(Store &store,\n"
          "           std::unordered_map<std::string, Cell> &cells)\n"
          "{\n"
          "    for (auto &kv : cells) {\n"
          "        std::sort(kv.second.ids.begin(),"
          " kv.second.ids.end());\n"
          "        store.put(kv.first, kv.second.ids.front());\n"
          "    }\n"
          "}\n"}});
    EXPECT_NE(findCheck(r, "lint-unordered-iter"), nullptr);
}

TEST(Determinism, StaleBaselineEntriesReported)
{
    Report r;
    r.add("det-taint-wallclock", "src/x.cc", 10, Severity::Error,
          "m");
    const std::vector<BaselineEntry> entries = {
        {"det-taint-wallclock src/x.cc:10", 3},
        {"lint-mutable-global src/gone.cc:7", 9},
    };
    const std::vector<BaselineEntry> stale = r.applyBaseline(entries);
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.suppressedCount(), 1u);
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0].key, "lint-mutable-global src/gone.cc:7");
    EXPECT_EQ(stale[0].line, 9u);
}

TEST(Determinism, JsonOutputMatchesGoldenFile)
{
    std::ifstream in(fixturePath("wallclock.cc"));
    ASSERT_TRUE(in);
    std::ostringstream src;
    src << in.rdbuf();
    Report r =
        checkDeterminism({{"det/wallclock.cc", src.str()}});
    r.sort();
    std::ostringstream json;
    r.printJson(json);

    std::ifstream gf(fixturePath("wallclock_findings.golden.json"));
    ASSERT_TRUE(gf);
    std::ostringstream golden;
    golden << gf.rdbuf();
    EXPECT_EQ(json.str(), golden.str());
}

TEST(Determinism, JsonEscapesSpecialCharacters)
{
    Report r;
    r.add("x", "a\"b\\c.cc", 1, Severity::Warning, "tab\there");
    std::ostringstream os;
    r.printJson(os);
    EXPECT_NE(os.str().find("a\\\"b\\\\c.cc"), std::string::npos);
    EXPECT_NE(os.str().find("tab\\there"), std::string::npos);
}
