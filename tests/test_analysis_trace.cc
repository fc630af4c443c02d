/**
 * @file
 * Text trace format + trace-validator tests: write/read round-trip,
 * parser rejection of each malformed input class, and the semantic
 * checks layered on top by analysis/trace_check.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/trace_check.hh"
#include "common/logging.hh"
#include "sim/trace.hh"
#include "sim/transmuter.hh"

using namespace sadapt;
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

Result<TraceText>
parse(const std::string &text)
{
    std::istringstream in(text);
    return readTraceText(in);
}

/** Mirrors tests/data/analysis/good.trace. */
std::string
goodText()
{
    return "sadapt-trace v1\n"
           "shape 1 2\n"
           "footprint 256\n"
           "epoch_fpops 2\n"
           "epochs 2\n"
           "phase 0 main\n"
           "stream gpe 0 6\n"
           "0 phase 0 0\n"
           "1 ld 0 1\n"
           "2 fp 0 0\n"
           "3 fp 8 0\n"
           "4 fpld 16 2\n"
           "5 fpst 24 2\n"
           "stream gpe 1 6\n"
           "0 phase 0 0\n"
           "1 ld 64 1\n"
           "2 fp 0 0\n"
           "3 fp 8 0\n"
           "4 fpld 72 2\n"
           "5 fpst 80 2\n"
           "stream lcp 0 2\n"
           "0 phase 0 0\n"
           "1 int 0 0\n"
           "end\n";
}

} // namespace

TEST(TraceText, OpKindNamesRoundTrip)
{
    for (auto k :
         {OpKind::IntOp, OpKind::FpOp, OpKind::Load, OpKind::Store,
          OpKind::FpLoad, OpKind::FpStore, OpKind::SpmLoad,
          OpKind::SpmStore, OpKind::Phase}) {
        const auto back = opKindFromName(opKindName(k));
        ASSERT_TRUE(back.has_value()) << opKindName(k);
        EXPECT_EQ(*back, k);
    }
    EXPECT_FALSE(opKindFromName("bogus").has_value());
}

TEST(TraceText, GoodTextParses)
{
    const auto r = parse(goodText());
    ASSERT_TRUE(r.isOk()) << r.message();
    const TraceText &tt = r.value();
    EXPECT_EQ(tt.trace.shape().numGpes(), 2u);
    EXPECT_EQ(tt.footprint, 256u);
    EXPECT_EQ(tt.epochFpOps, 2u);
    EXPECT_EQ(tt.declaredEpochs, 2u);
    ASSERT_EQ(tt.trace.phaseNames().size(), 1u);
    EXPECT_EQ(tt.trace.phaseNames()[0], "main");
    EXPECT_EQ(tt.trace.totalFlops(), 8.0);
    EXPECT_TRUE(checkTrace(tt, "<good>").clean());
}

TEST(TraceText, WriteReadRoundTrip)
{
    Trace trace(SystemShape{1, 2});
    trace.beginPhase("setup");
    trace.pushGpe(0, {0x10, 1, OpKind::Load});
    trace.pushGpe(0, {0x18, 2, OpKind::FpLoad});
    trace.pushGpe(1, {0x20, 3, OpKind::FpOp});
    trace.beginPhase("compute");
    trace.pushGpe(1, {0x28, 4, OpKind::SpmStore});
    trace.pushLcp(0, {0, 0, OpKind::IntOp});

    std::stringstream buf;
    writeTraceText(trace, buf, /*footprint=*/64, /*epoch_fpops=*/1,
                   /*declared_epochs=*/1);
    const auto r = readTraceText(buf);
    ASSERT_TRUE(r.isOk()) << r.message();
    const Trace &back = r.value().trace;
    EXPECT_EQ(back.shape(), trace.shape());
    EXPECT_EQ(back.totalOps(), trace.totalOps());
    EXPECT_EQ(back.totalFlops(), trace.totalFlops());
    EXPECT_EQ(back.phaseNames(), trace.phaseNames());
    for (std::uint32_t g = 0; g < 2; ++g) {
        const StreamView a = trace.gpeStream(g);
        const StreamView b = back.gpeStream(g);
        ASSERT_EQ(a.size, b.size);
        for (std::size_t i = 0; i < a.size; ++i) {
            EXPECT_EQ(a.addr[i], b.addr[i]);
            EXPECT_EQ(a.pc[i], b.pc[i]);
            EXPECT_EQ(a.kind[i], b.kind[i]);
        }
    }
}

TEST(TraceText, RejectsNonMonotoneTimestamps)
{
    const auto r = parse("sadapt-trace v1\n"
                         "shape 1 1\n"
                         "stream gpe 0 3\n"
                         "0 int 0 0\n"
                         "5 int 0 0\n"
                         "2 int 0 0\n"
                         "end\n");
    ASSERT_FALSE(r.isOk());
    EXPECT_NE(r.message().find("non-monotone"), std::string::npos)
        << r.message();
}

TEST(TraceText, RejectsOutOfRangeGpeId)
{
    const auto r = parse("sadapt-trace v1\n"
                         "shape 1 2\n"
                         "stream gpe 7 1\n"
                         "0 int 0 0\n"
                         "end\n");
    ASSERT_FALSE(r.isOk());
    EXPECT_NE(r.message().find("gpe"), std::string::npos)
        << r.message();
}

TEST(TraceText, RejectsBadMagicUnknownKindAndTruncation)
{
    EXPECT_FALSE(parse("not-a-trace\n").isOk());
    EXPECT_FALSE(parse("sadapt-trace v1\n"
                       "shape 1 1\n"
                       "stream gpe 0 1\n"
                       "0 frob 0 0\n"
                       "end\n")
                     .isOk());
    // Declared 2 ops, provides 1.
    EXPECT_FALSE(parse("sadapt-trace v1\n"
                       "shape 1 1\n"
                       "stream gpe 0 2\n"
                       "0 int 0 0\n"
                       "end\n")
                     .isOk());
    // Missing trailing "end".
    EXPECT_FALSE(parse("sadapt-trace v1\n"
                       "shape 1 1\n"
                       "stream gpe 0 1\n"
                       "0 int 0 0\n")
                     .isOk());
}

TEST(TraceText, RejectsDuplicateStream)
{
    const auto r = parse("sadapt-trace v1\n"
                         "shape 1 1\n"
                         "stream gpe 0 1\n"
                         "0 int 0 0\n"
                         "stream gpe 0 1\n"
                         "0 int 0 0\n"
                         "end\n");
    ASSERT_FALSE(r.isOk());
}

TEST(TraceCheck, FlagsAddressesOutsideFootprint)
{
    auto r = parse("sadapt-trace v1\n"
                   "shape 1 1\n"
                   "footprint 64\n"
                   "stream gpe 0 2\n"
                   "0 ld 1000 0\n"
                   "1 fpld 2048 0\n"
                   "end\n");
    ASSERT_TRUE(r.isOk()) << r.message();
    const Report rep = checkTrace(r.value(), "<t>");
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(hasCheck(rep, "trace-addr-range"));
}

TEST(TraceCheck, FlagsSpmAddressOutsideBank)
{
    auto r = parse("sadapt-trace v1\n"
                   "shape 1 1\n"
                   "stream gpe 0 1\n"
                   "0 spmld 65536 0\n"
                   "end\n");
    ASSERT_TRUE(r.isOk()) << r.message();
    const Report rep = checkTrace(r.value(), "<t>");
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(hasCheck(rep, "trace-spm-range"));
    // Just inside the bank is fine.
    auto ok = parse(str("sadapt-trace v1\n"
                        "shape 1 1\n"
                        "stream gpe 0 1\n"
                        "0 spmld ",
                        spmBankBytes - 8, " 0\nend\n"));
    ASSERT_TRUE(ok.isOk());
    EXPECT_FALSE(
        hasCheck(checkTrace(ok.value(), "<t>"), "trace-spm-range"));
}

TEST(TraceCheck, FlagsMissingPhaseMarker)
{
    // gpe 1 never executes the declared phase barrier.
    auto r = parse("sadapt-trace v1\n"
                   "shape 1 2\n"
                   "phase 0 main\n"
                   "stream gpe 0 2\n"
                   "0 phase 0 0\n"
                   "1 int 0 0\n"
                   "stream gpe 1 1\n"
                   "0 int 0 0\n"
                   "stream lcp 0 1\n"
                   "0 phase 0 0\n"
                   "end\n");
    ASSERT_TRUE(r.isOk()) << r.message();
    const Report rep = checkTrace(r.value(), "<t>");
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(hasCheck(rep, "trace-phase-consistency"));
}

TEST(TraceCheck, FlagsInconsistentEpochCount)
{
    // 4 FP-ops at 2/GPE/epoch over 1 GPE -> 2 epochs, not 5.
    auto r = parse("sadapt-trace v1\n"
                   "shape 1 1\n"
                   "epoch_fpops 2\n"
                   "epochs 5\n"
                   "stream gpe 0 4\n"
                   "0 fp 0 0\n"
                   "1 fp 0 0\n"
                   "2 fp 0 0\n"
                   "3 fp 0 0\n"
                   "end\n");
    ASSERT_TRUE(r.isOk()) << r.message();
    const Report rep = checkTrace(r.value(), "<t>");
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(hasCheck(rep, "trace-epoch-count"));
}

TEST(TraceCheck, EmptyTraceIsOnlyAWarning)
{
    auto r = parse("sadapt-trace v1\n"
                   "shape 1 1\n"
                   "end\n");
    ASSERT_TRUE(r.isOk()) << r.message();
    const Report rep = checkTrace(r.value(), "<t>");
    EXPECT_TRUE(rep.clean());
    EXPECT_TRUE(hasCheck(rep, "trace-empty"));
}

TEST(TraceCheck, FileEntryPointReportsParseErrors)
{
    const Report rep = checkTraceFile("/nonexistent/trace.txt");
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(hasCheck(rep, "trace-parse"));
}

namespace {

std::string
fixture(const std::string &name)
{
    return std::string(SADAPT_TEST_DATA_DIR) + "/analysis/" + name;
}

} // namespace

TEST(TraceCheck, ColumnarGoodFixtureIsClean)
{
    // good.ctrace is good.trace converted by sadapt_tracec: same
    // semantic content, sniffed and validated via the columnar path.
    const Report rep = checkTraceFile(fixture("good.ctrace"));
    EXPECT_TRUE(rep.clean()) << rep.findings().size();
}

TEST(TraceCheck, ColumnarSeededCorruptionsAreFlagged)
{
    // Each fixture is good.ctrace with one seeded defect. A flipped
    // file magic stops the file sniffing as columnar at all, so it
    // falls back to (and fails) the text parser; the rest fail the
    // columnar framing validation with their specific defect.
    {
        const Report rep = checkTraceFile(fixture("bad_magic.ctrace"));
        EXPECT_FALSE(rep.clean());
        EXPECT_TRUE(hasCheck(rep, "trace-parse"));
    }
    const struct
    {
        const char *file;
        const char *needle;
    } cases[] = {
        {"bad_version.ctrace", "unsupported version"},
        {"bad_crc.ctrace", "CRC mismatch"},
        {"torn_tail.ctrace", "torn tail"},
        {"bad_columns.ctrace", "column length disagreement"},
    };
    for (const auto &c : cases) {
        const Report rep = checkTraceFile(fixture(c.file));
        ASSERT_FALSE(rep.clean()) << c.file;
        ASSERT_TRUE(hasCheck(rep, "trace-columnar-framing")) << c.file;
        bool found = false;
        for (const auto &f : rep.findings())
            if (f.message.find(c.needle) != std::string::npos)
                found = true;
        EXPECT_TRUE(found) << c.file << ": expected '" << c.needle
                           << "' in findings";
    }
}

TEST(Trace, TryPushRejectsOutOfRangeIds)
{
    Trace trace(SystemShape{1, 2});
    EXPECT_TRUE(trace.tryPushGpe(1, {0, 0, OpKind::IntOp}).isOk());
    EXPECT_FALSE(trace.tryPushGpe(2, {0, 0, OpKind::IntOp}).isOk());
    EXPECT_TRUE(trace.tryPushLcp(0, {0, 0, OpKind::IntOp}).isOk());
    EXPECT_FALSE(trace.tryPushLcp(1, {0, 0, OpKind::IntOp}).isOk());
}
