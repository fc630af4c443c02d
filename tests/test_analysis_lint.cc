/**
 * @file
 * Source-lint tests: each token rule fires on its target pattern,
 * stays quiet on the idiomatic alternative, and baseline suppression
 * hides accepted findings.
 */

#include <gtest/gtest.h>

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
