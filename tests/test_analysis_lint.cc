/**
 * @file
 * Source-lint tests: each token rule fires on its target pattern,
 * stays quiet on the idiomatic alternative, baseline suppression
 * hides accepted findings (and reports stale entries), and the JSON
 * output is byte-stable against a committed golden file.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/lint.hh"

using namespace sadapt::analysis;

namespace {

bool
hasCheck(const Report &r, const std::string &check_id)
{
    for (const auto &f : r.findings())
        if (f.checkId == check_id)
            return true;
    return false;
}

} // namespace

TEST(Lint, BannedCallsFlagged)
{
    const Report r = lintSource("int x = rand();\n"
                                "std::srand(1);\n"
                                "auto t = ::time(nullptr);\n",
                                "src/sim/x.cc");
    EXPECT_EQ(r.errorCount(), 3u);
    EXPECT_TRUE(hasCheck(r, "lint-banned-call"));
}

TEST(Lint, BannedCallExclusions)
{
    // Member calls and non-std class-qualified statics are fine; so
    // are mentions inside comments and strings.
    const Report r =
        lintSource("clock.time();\n"
                    "timer->time();\n"
                    "Stopwatch::time();\n"
                    "// rand() in a comment\n"
                    "const char *s = \"call time(2) here\";\n"
                    "int random_value = 0; // 'rand' prefix ident\n",
                    "src/sim/x.cc");
    EXPECT_TRUE(r.clean()) << r.errorCount();
    EXPECT_FALSE(hasCheck(r, "lint-banned-call"));
}

TEST(Lint, NakedNewFlagged)
{
    const Report r = lintSource("double *p = new double[4];\n",
                                "src/common/x.cc");
    EXPECT_TRUE(hasCheck(r, "lint-naked-new"));
    EXPECT_TRUE(
        lintSource("auto p = std::make_unique<double[]>(4);\n",
                   "src/common/x.cc")
            .clean());
}

TEST(Lint, NakedThreadFlagged)
{
    const Report r = lintSource("void f() {\n"
                                "    std::thread t([] {});\n"
                                "    t.detach();\n"
                                "    auto fut = std::async(work);\n"
                                "}\n",
                                "src/sim/x.cc");
    EXPECT_EQ(r.errorCount(), 3u);
    EXPECT_TRUE(hasCheck(r, "lint-naked-thread"));
}

TEST(Lint, NakedThreadExemptsThreadingHome)
{
    const std::string code = "std::vector<std::thread> workers;\n";
    // The pool implementation is the one legitimate home.
    EXPECT_FALSE(hasCheck(lintSource(code, "src/common/threading.cc"),
                          "lint-naked-thread"));
    EXPECT_FALSE(hasCheck(lintSource(code, "src/common/threading.hh"),
                          "lint-naked-thread"));
    EXPECT_TRUE(hasCheck(lintSource(code, "src/sim/x.cc"),
                         "lint-naked-thread"));
    // std::this_thread (get_id/yield) is inspection, not spawning,
    // and detach-like member names without a call are not detach().
    EXPECT_FALSE(
        hasCheck(lintSource("std::this_thread::yield();\n"
                            "auto d = opts.detach;\n",
                            "src/sim/x.cc"),
                 "lint-naked-thread"));
}

TEST(Lint, FloatEqScopedToSimAndAdapt)
{
    const std::string code = "if (rate == 0.5) { fix(); }\n";
    EXPECT_TRUE(hasCheck(lintSource(code, "src/sim/x.cc"),
                         "lint-float-eq"));
    EXPECT_TRUE(hasCheck(lintSource(code, "src/adapt/x.cc"),
                         "lint-float-eq"));
    // Out of scope: sparse kernels compare exact sentinel values.
    EXPECT_FALSE(hasCheck(lintSource(code, "src/sparse/x.cc"),
                          "lint-float-eq"));
    // Integer comparisons never fire.
    EXPECT_FALSE(hasCheck(lintSource("if (n == 5) {}\n",
                                     "src/sim/x.cc"),
                          "lint-float-eq"));
}

TEST(Lint, FloatEqLiteralShapes)
{
    for (const char *code :
         {"a == 1.0;", "a != 2.f;", "1e-9 == a;", "a == 0x1.8p3;"}) {
        EXPECT_TRUE(
            hasCheck(lintSource(code, "src/sim/x.cc"), "lint-float-eq"))
            << code;
    }
    for (const char *code : {"a == 0x10;", "a == 42;", "a == 'c';"}) {
        EXPECT_FALSE(
            hasCheck(lintSource(code, "src/sim/x.cc"), "lint-float-eq"))
            << code;
    }
}

TEST(Lint, UncheckedStatusFlagged)
{
    const Report r = lintSource("void f() {\n"
                                "    parseConfig(\"baseline\");\n"
                                "    FaultSpec::parse(\"none\");\n"
                                "}\n",
                                "src/sim/x.cc");
    EXPECT_EQ(r.errorCount(), 2u);
    EXPECT_TRUE(hasCheck(r, "lint-unchecked-status"));
}

TEST(Lint, CheckedStatusNotFlagged)
{
    const Report r =
        lintSource("void f() {\n"
                    "    auto c = parseConfig(\"baseline\");\n"
                    "    if (!parseConfig(\"max\")) { return; }\n"
                    "    return parseConfig(\"bestavg\");\n"
                    "}\n",
                    "src/sim/x.cc");
    EXPECT_FALSE(hasCheck(r, "lint-unchecked-status"));
}

TEST(Lint, StoreRawIoFlaggedInStore)
{
    const Report r = lintSource(
        "std::ofstream out(path, std::ios::binary);\n"
        "FILE *f = fopen(path.c_str(), \"wb\");\n"
        "fwrite(buf, 1, n, f);\n",
        "src/store/epoch_store.cc");
    // ofstream; FILE and fopen; fwrite.
    EXPECT_EQ(r.errorCount(), 4u);
    EXPECT_TRUE(hasCheck(r, "lint-store-raw-io"));
}

TEST(Lint, StoreRawIoAllowedInRecordLog)
{
    // record_log is the single framed-writer home; raw streams are
    // its whole job.
    const Report r = lintSource("std::fstream s(path);\n"
                                "std::ifstream in(path);\n",
                                "src/store/record_log.cc");
    EXPECT_FALSE(hasCheck(r, "lint-store-raw-io"));
}

TEST(Lint, StoreRawIoScopedToStoreOnly)
{
    // Other subsystems (journal writer, trace loader, ...) may use
    // raw streams; the rule protects only the store's crash-safety
    // contract.
    const Report r = lintSource("std::ofstream out(path);\n",
                                "src/obs/journal.cc");
    EXPECT_FALSE(hasCheck(r, "lint-store-raw-io"));
}

TEST(Lint, ProcessControlFlaggedInLibrary)
{
    const Report r = lintSource("const int pid = fork();\n"
                                "execl(\"/bin/true\", \"true\");\n"
                                "::kill(pid, 9);\n"
                                "waitpid(pid, nullptr, 0);\n",
                                "src/adapt/runner.cc");
    EXPECT_EQ(r.errorCount(), 4u);
    EXPECT_TRUE(hasCheck(r, "lint-process-control"));
}

TEST(Lint, ProcessControlExclusions)
{
    // Member calls, class-qualified statics and bare mentions are not
    // process control.
    const Report r = lintSource("task.kill();\n"
                                "Watchdog::kill(token);\n"
                                "int fork = 3; fork += 1;\n",
                                "src/adapt/guard.cc");
    EXPECT_FALSE(hasCheck(r, "lint-process-control"));
}

TEST(Lint, TraceMmapFlaggedAnywhere)
{
    // No TU maps files or does raw-descriptor I/O, the trace reader
    // included, so every directory gets the finding.
    for (const char *path : {"src/sparse/io.cc", "src/sim/trace.cc"}) {
        const Report r = lintSource(
            "void *p = mmap(nullptr, n, PROT_READ, MAP_PRIVATE, fd, 0);\n"
            "munmap(p, n);\n"
            "madvise(p, n, MADV_SEQUENTIAL);\n"
            "pread(fd, buf, n, 0);\n",
            path);
        EXPECT_EQ(r.errorCount(), 4u) << path;
        EXPECT_TRUE(hasCheck(r, "lint-trace-raw-mmap")) << path;
    }
}

TEST(Lint, TraceMmapExclusions)
{
    // Member calls and class-qualified statics are not raw mapping;
    // bare mentions without a call are fine too.
    const Report r = lintSource("mapper.mmap();\n"
                                "Mapping::munmap(region);\n"
                                "int mmap = 3; mmap += 1;\n",
                                "src/sim/cache.cc");
    EXPECT_FALSE(hasCheck(r, "lint-trace-raw-mmap"));
}

TEST(Lint, FixtureFileTripsProcessControlRule)
{
    const Report r = lintFile(
        std::string(SADAPT_TEST_DATA_DIR) +
            "/analysis/process/lint_bad.cc",
        SADAPT_TEST_DATA_DIR);
    EXPECT_TRUE(hasCheck(r, "lint-process-control"));
    EXPECT_GE(r.errorCount(), 4u);
}

TEST(Lint, FixtureFileTripsEveryRule)
{
    const Report r = lintFile(
        std::string(SADAPT_TEST_DATA_DIR) + "/analysis/sim/lint_bad.cc",
        SADAPT_TEST_DATA_DIR);
    EXPECT_TRUE(hasCheck(r, "lint-banned-call"));
    EXPECT_TRUE(hasCheck(r, "lint-naked-new"));
    EXPECT_TRUE(hasCheck(r, "lint-float-eq"));
    EXPECT_TRUE(hasCheck(r, "lint-unchecked-status"));
    EXPECT_TRUE(hasCheck(r, "lint-naked-thread"));
    // Paths are reported relative to the lint root.
    for (const auto &f : r.findings())
        EXPECT_EQ(f.file.rfind("analysis/", 0), 0u) << f.file;
}

TEST(Lint, BaselineSuppressesByKey)
{
    Report r = lintSource("int x = rand();\n", "src/sim/x.cc");
    ASSERT_EQ(r.errorCount(), 1u);
    const std::string key = r.findings()[0].key();
    r.applyBaseline({key});
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.findings().size(), 0u);
    EXPECT_EQ(r.suppressedCount(), 1u);
}

TEST(Lint, LexerSkipsRawStringsAndKeepsLineNumbers)
{
    const Report r = lintSource(
        "const char *doc = R\"(rand() time() new Foo)\";\n"
        "int a = 0;\n"
        "int y = rand();\n",
        "src/sim/x.cc");
    ASSERT_EQ(r.errorCount(), 1u);
    EXPECT_EQ(r.findings()[0].line, 3u);
}

namespace {

std::string
detFixture(const std::string &name)
{
    return std::string(SADAPT_TEST_DATA_DIR) + "/analysis/det/" + name;
}

std::vector<std::uint64_t>
linesOf(const Report &r, const std::string &check_id)
{
    std::vector<std::uint64_t> lines;
    for (const auto &f : r.findings())
        if (f.checkId == check_id)
            lines.push_back(f.line);
    return lines;
}

} // namespace

TEST(Lint, UnorderedIterOverMemberDeclaredInHeader)
{
    // The .cc iterates a member that only its same-stem header
    // declares unordered; lintFile reads the header for it.
    const Report r = lintFile(detFixture("unordered_member.cc"),
                              std::string(SADAPT_TEST_DATA_DIR) +
                                  "/analysis");
    EXPECT_EQ(linesOf(r, "lint-unordered-iter"),
              std::vector<std::uint64_t>{13});
    EXPECT_EQ(r.findings().at(0).file, "det/unordered_member.cc");
    // Without the header, the .cc alone declares nothing unordered.
    EXPECT_FALSE(hasCheck(
        lintSource("void R::f() { for (auto &kv : byName) use(kv); }\n",
                   "src/obs/metrics.cc"),
        "lint-unordered-iter"));
    EXPECT_TRUE(hasCheck(
        lintSource("void R::f() { for (auto &kv : byName) use(kv); }\n",
                   "src/obs/metrics.cc",
                   "std::unordered_map<std::string, Entry *> byName;\n"),
        "lint-unordered-iter"));
}

TEST(Lint, UnorderedIterOverLocalAndParameter)
{
    EXPECT_EQ(linesOf(lintFile(detFixture("unordered_iter.cc"),
                               SADAPT_TEST_DATA_DIR),
                      "lint-unordered-iter"),
              std::vector<std::uint64_t>{20});
    const Report r = lintSource(
        "void f(Journal &j)\n"
        "{\n"
        "    std::unordered_map<int, std::vector<int>> bySession;\n"
        "    const std::unordered_set<int> *seen = nullptr;\n"
        "    for (const auto &[id, evs] : bySession)\n"
        "        j.write(id);\n"
        "    for (int id : *seen)\n"
        "        j.write(id);\n"
        "    for (auto &kv : this->bySession) {}\n"
        "}\n",
        "src/serve/server.cc");
    EXPECT_EQ(linesOf(r, "lint-unordered-iter"),
              (std::vector<std::uint64_t>{5, 7, 9}));
}

TEST(Lint, UnorderedIterNegatives)
{
    // Ordered iteration, lookups into an unordered container and a
    // classic index loop all keep a deterministic order.
    const Report r = lintSource(
        "void f(const std::map<std::string, int> &byName,\n"
        "       const std::unordered_set<std::uint64_t> &seen,\n"
        "       std::vector<int> &out)\n"
        "{\n"
        "    for (const auto &[name, v] : byName)\n"
        "        out.push_back(v);\n"
        "    if (seen.find(3) != seen.end() || seen.contains(4))\n"
        "        return;\n"
        "    for (std::size_t i = 0; i < out.size(); ++i)\n"
        "        out[i] = seen.contains(i) ? 1 : 0;\n"
        "    for (int i = seen.empty() ? 1 : 0; i < 3; ++i)\n"
        "        out.push_back(i);\n"
        "}\n",
        "src/sim/x.cc");
    EXPECT_FALSE(hasCheck(r, "lint-unordered-iter"));
    EXPECT_TRUE(r.clean());
}

TEST(Lint, WallclockFlagged)
{
    EXPECT_EQ(linesOf(lintFile(detFixture("wallclock.cc"),
                               SADAPT_TEST_DATA_DIR),
                      "lint-wallclock"),
              (std::vector<std::uint64_t>{19, 21}));
    const Report r = lintSource(
        "auto a = std::chrono::system_clock::now();\n"
        "using Clock = std::chrono::high_resolution_clock;\n"
        "clock_gettime(CLOCK_MONOTONIC, &ts);\n"
        "::gettimeofday(&tv, nullptr);\n",
        "src/serve/server.cc");
    EXPECT_EQ(linesOf(r, "lint-wallclock"),
              (std::vector<std::uint64_t>{1, 2, 3, 4}));
    // The injected serve clock, member calls and comments are not
    // host clock reads.
    EXPECT_FALSE(hasCheck(
        lintSource("const auto t0 = opt.nowNs ? opt.nowNs() : 0;\n"
                   "timer.clock_gettime();\n"
                   "// std::chrono::steady_clock is thread-safe\n",
                   "src/serve/server.cc"),
        "lint-wallclock"));
}

TEST(Lint, StaleBaselineEntriesReported)
{
    Report r;
    r.add("lint-wallclock", "src/x.cc", 10, Severity::Error, "m");
    const std::vector<BaselineEntry> entries = {
        {"lint-wallclock src/x.cc:10", 3},
        {"lint-unordered-iter src/gone.cc:7", 9},
    };
    const std::vector<BaselineEntry> stale = r.applyBaseline(entries);
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.suppressedCount(), 1u);
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0].key, "lint-unordered-iter src/gone.cc:7");
    EXPECT_EQ(stale[0].line, 9u);
}

TEST(Lint, JsonOutputMatchesGoldenFile)
{
    Report r = lintFile(detFixture("wallclock.cc"),
                        std::string(SADAPT_TEST_DATA_DIR) + "/analysis");
    std::ostringstream json;
    r.printJson(json);

    std::ifstream gf(detFixture("wallclock_findings.golden.json"));
    ASSERT_TRUE(gf);
    std::ostringstream golden;
    golden << gf.rdbuf();
    EXPECT_EQ(json.str(), golden.str());
}

TEST(Lint, JsonEscapesSpecialCharacters)
{
    Report r;
    r.add("x", "a\"b\\c.cc", 1, Severity::Warning, "tab\there");
    std::ostringstream os;
    r.printJson(os);
    EXPECT_NE(os.str().find("a\\\"b\\\\c.cc"), std::string::npos);
    EXPECT_NE(os.str().find("tab\\there"), std::string::npos);
}
