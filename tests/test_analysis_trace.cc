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
#include "extreme_trace.hh"
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
    Trace small(SystemShape{1, 2});
    small.beginPhase("setup");
    small.pushGpe(0, {0x10, 1, OpKind::Load});
    small.pushGpe(0, {0x18, 2, OpKind::FpLoad});
    small.pushGpe(1, {0x20, 3, OpKind::FpOp});
    small.beginPhase("compute");
    small.pushGpe(1, {0x28, 4, OpKind::SpmStore});
    small.pushLcp(0, {0, 0, OpKind::IntOp});

    // The small trace, one at the edges of the op model (u64-max
    // addresses, pc 0xffff, every op kind, an empty stream) and an
    // empty one, each with and without file metadata.
    const struct
    {
        const char *name;
        Trace trace;
        std::uint64_t footprint, epochFpOps, epochs;
    } cases[] = {
        {"small", small, 64, 1, 1},
        {"extreme", test::extremeTrace(), 1 << 20, 500, 3},
        {"extreme-bare", test::extremeTrace(), 0, 0, 0},
        {"empty", Trace(SystemShape{1, 1}), 0, 0, 0},
        {"empty-meta", Trace(SystemShape{1, 1}), 8, 2, 1},
    };
    for (const auto &c : cases) {
        const Trace &trace = c.trace;
        std::stringstream buf;
        writeTraceText(trace, buf, c.footprint, c.epochFpOps, c.epochs);
        const auto r = readTraceText(buf);
        ASSERT_TRUE(r.isOk()) << c.name << ": " << r.message();
        const TraceText &tt = r.value();
        EXPECT_EQ(tt.footprint, c.footprint) << c.name;
        EXPECT_EQ(tt.epochFpOps, c.epochFpOps) << c.name;
        EXPECT_EQ(tt.declaredEpochs, c.epochs) << c.name;
        const Trace &back = tt.trace;
        ASSERT_EQ(back.shape(), trace.shape()) << c.name;
        EXPECT_EQ(back.totalOps(), trace.totalOps()) << c.name;
        EXPECT_EQ(back.totalFlops(), trace.totalFlops()) << c.name;
        EXPECT_EQ(back.phaseNames(), trace.phaseNames()) << c.name;
        const TraceView va = trace.view();
        const TraceView vb = back.view();
        for (std::size_t s = 0; s < va.streams.size(); ++s) {
            const StreamView &a = va.streams[s];
            const StreamView &b = vb.streams[s];
            ASSERT_EQ(a.size, b.size) << c.name << " stream " << s;
            for (std::size_t i = 0; i < a.size; ++i) {
                EXPECT_EQ(a.addr[i], b.addr[i]) << c.name;
                EXPECT_EQ(a.pc[i], b.pc[i]) << c.name;
                EXPECT_EQ(a.kind[i], b.kind[i]) << c.name;
            }
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
    // Declares 2^61 ops, provides 1: an error, never a reservation
    // sized from the header.
    EXPECT_FALSE(parse("sadapt-trace v1\n"
                       "shape 1 1\n"
                       "stream gpe 0 2305843009213693952\n"
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

TEST(TraceText, RejectsSignsExtraFieldsAndContentAfterEnd)
{
    // Each case is a one-line edit of an otherwise valid trace. A
    // number is unsigned decimal digits only, a line has exactly its
    // fields (a phase name keeps the rest of its line), and only
    // blanks and comments may follow "end".
    const auto trace = [](const std::string &header,
                          const std::string &op,
                          const std::string &tail) {
        return "sadapt-trace v1\nshape 1 1\n" + header +
            "phase 0 main loop\nstream gpe 0 2\n0 phase 0 0\n" + op +
            "\nend\n" + tail;
    };
    const struct
    {
        const char *name;
        std::string text;
    } bad[] = {
        {"negative address", trace("", "1 ld -5 3", "")},
        {"plus-signed address", trace("", "1 ld +5 3", "")},
        {"negative pc", trace("", "1 ld 5 -3", "")},
        {"negative timestamp", trace("", "-1 ld 5 3", "")},
        {"address past u64",
         trace("", "1 ld 18446744073709551616 3", "")},
        {"hex address", trace("", "1 ld 0x10 3", "")},
        {"junk glued to a field", trace("", "1 ld 5 3x", "")},
        {"extra op field", trace("", "1 ld 5 3 7", "")},
        {"missing op field", trace("", "1 ld 5", "")},
        {"negative footprint", trace("footprint -1\n", "1 ld 5 3", "")},
        {"negative epochs", trace("epochs -2\n", "1 ld 5 3", "")},
        {"extra epoch_fpops field",
         trace("epoch_fpops 2 2\n", "1 ld 5 3", "")},
        {"negative shape",
         "sadapt-trace v1\nshape -1 1\nend\n"},
        {"extra shape field",
         "sadapt-trace v1\nshape 1 1 1\nend\n"},
        {"negative stream count",
         "sadapt-trace v1\nshape 1 1\nstream gpe 0 -1\nend\n"},
        {"extra stream field",
         "sadapt-trace v1\nshape 1 1\nstream gpe 0 0 0\nend\n"},
        {"negative phase id",
         "sadapt-trace v1\nshape 1 1\nphase -0 main\nend\n"},
        {"extra end field", "sadapt-trace v1\nshape 1 1\nend now\n"},
        {"directive after end", trace("", "1 ld 5 3", "epochs 1\n")},
        {"op after end", trace("", "1 ld 5 3", "2 ld 5 3\n")},
    };
    for (const auto &c : bad)
        EXPECT_FALSE(parse(c.text).isOk()) << c.name;

    // The same template with nothing wrong parses, comments and
    // blanks after "end" included, and keeps the whole phase name.
    const auto ok = parse(
        trace("footprint 64\n", "1 ld 5 3", "\n# trailing note\n  \n"));
    ASSERT_TRUE(ok.isOk()) << ok.message();
    EXPECT_EQ(ok.value().footprint, 64u);
    EXPECT_EQ(ok.value().trace.phaseNames(),
              std::vector<std::string>{"main loop"});
    EXPECT_EQ(ok.value().trace.gpeStream(0).op(1).addr, 5u);
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

TEST(Trace, TryPushRejectsOutOfRangeIds)
{
    Trace trace(SystemShape{1, 2});
    EXPECT_TRUE(trace.tryPushGpe(1, {0, 0, OpKind::IntOp}).isOk());
    EXPECT_FALSE(trace.tryPushGpe(2, {0, 0, OpKind::IntOp}).isOk());
    EXPECT_TRUE(trace.tryPushLcp(0, {0, 0, OpKind::IntOp}).isOk());
    EXPECT_FALSE(trace.tryPushLcp(1, {0, 0, OpKind::IntOp}).isOk());
}
