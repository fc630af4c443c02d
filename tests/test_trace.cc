/**
 * @file
 * Tests for the device trace container.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/trace.hh"

using namespace sadapt;

namespace {

/**
 * A small trace at the edges of the op model: every op kind, pc ids
 * at both u16 extremes, addresses across the whole u64 range (0, u64
 * max, and jumps in both directions), an empty GPE stream and two
 * phases.
 */
Trace
extremeTrace()
{
    constexpr Addr kMax = std::numeric_limits<Addr>::max();
    Trace t(SystemShape{2, 2});
    t.beginPhase("stress");
    t.pushGpe(0, {0, 0, OpKind::Load});
    t.pushGpe(0, {kMax, 0xffff, OpKind::Store});
    t.pushGpe(0, {1, 1, OpKind::FpLoad});
    t.pushGpe(0, {kMax / 2, 7, OpKind::FpStore});
    t.pushGpe(0, {kMax / 2 + 1, 7, OpKind::FpOp});
    t.pushGpe(1, {0x8000000000000000ull, 2, OpKind::SpmLoad});
    t.pushGpe(1, {0x7fffffffffffffffull, 3, OpKind::SpmStore});
    t.pushGpe(2, {42, 4, OpKind::IntOp});
    // GPE 3 gets only the phase markers.
    t.beginPhase("tail");
    t.pushLcp(0, {kMax - 1, 0xfffe, OpKind::Load});
    t.pushLcp(1, {0, 0, OpKind::IntOp});
    return t;
}

} // namespace

TEST(Trace, ShapeAndStreams)
{
    Trace t(SystemShape{2, 4});
    EXPECT_EQ(t.shape().numGpes(), 8u);
    t.pushGpe(3, {0x10, 1, OpKind::FpLoad});
    t.pushLcp(1, {0, 0, OpKind::IntOp});
    EXPECT_EQ(t.gpeStream(3).size, 1u);
    EXPECT_EQ(t.lcpStream(1).size, 1u);
    EXPECT_EQ(t.gpeStream(0).size, 0u);
    EXPECT_EQ(t.gpeStream(3).op(0).addr, 0x10u);
    EXPECT_EQ(t.gpeStream(3).op(0).kind, OpKind::FpLoad);
}

TEST(Trace, FlopCountingIncludesFpLoadsAndStores)
{
    Trace t(SystemShape{1, 2});
    t.pushGpe(0, {0, 0, OpKind::FpOp});
    t.pushGpe(0, {0, 0, OpKind::FpLoad});
    t.pushGpe(0, {0, 0, OpKind::FpStore});
    t.pushGpe(1, {0, 0, OpKind::IntOp});
    t.pushGpe(1, {0, 0, OpKind::Load});
    EXPECT_DOUBLE_EQ(t.totalFlops(), 3.0);
    EXPECT_EQ(t.totalOps(), 5u);
}

TEST(Trace, PhaseMarkersBroadcastToAllCores)
{
    Trace t(SystemShape{2, 2});
    t.beginPhase("multiply");
    t.pushGpe(0, {0, 0, OpKind::IntOp});
    t.beginPhase("merge");
    EXPECT_EQ(t.phaseNames().size(), 2u);
    EXPECT_EQ(t.phaseNames()[1], "merge");
    // Every GPE stream has both markers.
    for (std::uint32_t g = 0; g < 4; ++g) {
        const StreamView s = t.gpeStream(g);
        int markers = 0;
        for (std::size_t i = 0; i < s.size; ++i)
            markers += s.op(i).kind == OpKind::Phase;
        EXPECT_EQ(markers, 2);
    }
    // Marker addr encodes the phase id.
    EXPECT_EQ(t.gpeStream(1).addr[0], 0u);
    EXPECT_EQ(t.gpeStream(1).addr[1], 1u);
}

TEST(Trace, AppendOffsetsPhaseIds)
{
    Trace a(SystemShape{1, 1});
    a.beginPhase("first");
    a.pushGpe(0, {0, 0, OpKind::IntOp});

    Trace b(SystemShape{1, 1});
    b.beginPhase("second");
    b.pushGpe(0, {0, 0, OpKind::FpOp});

    a.append(b);
    EXPECT_EQ(a.phaseNames().size(), 2u);
    const StreamView s = a.gpeStream(0);
    ASSERT_EQ(s.size, 4u);
    EXPECT_EQ(s.op(2).kind, OpKind::Phase);
    EXPECT_EQ(s.addr[2], 1u); // re-based phase id
    EXPECT_DOUBLE_EQ(a.totalFlops(), 1.0);
}

TEST(TraceDeathTest, AppendRejectsShapeMismatch)
{
    Trace a(SystemShape{1, 2});
    Trace b(SystemShape{2, 2});
    EXPECT_DEATH(a.append(b), "different shapes");
}

TEST(Trace, CopiesAndMovesKeepTheColumns)
{
    // A trace holds no pointers into itself: a copy reads its own
    // columns, and a moved or relocated trace keeps its content.
    Trace t(SystemShape{1, 2});
    t.beginPhase("p");
    t.pushGpe(1, {0x40, 9, OpKind::FpLoad});
    const Trace copy = t;
    EXPECT_NE(copy.gpeStream(1).addr, t.gpeStream(1).addr);
    EXPECT_EQ(copy.gpeStream(1).op(1).addr, 0x40u);
    EXPECT_EQ(copy.view().totalFpOps, 1u);

    std::vector<Trace> traces;
    traces.push_back(std::move(t));
    for (int i = 0; i < 8; ++i)
        traces.push_back(copy); // relocates traces[0]
    const StreamView s = traces[0].gpeStream(1);
    ASSERT_EQ(s.size, 2u);
    EXPECT_EQ(s.op(1).pc, 9u);
    EXPECT_EQ(traces[0].totalOps(), 4u);
    EXPECT_DOUBLE_EQ(traces[0].totalFlops(), 1.0);
}

TEST(Trace, ShrinkToFitKeepsTheOpsAndTheirDigests)
{
    Trace t(SystemShape{1, 2});
    t.beginPhase("p");
    for (std::uint32_t i = 0; i < 100; ++i)
        t.pushGpe(i % 2, {0x40 + 8 * Addr{i}, 7, OpKind::Load});
    const Trace before = t;
    const auto digests = t.streamDigests();
    t.shrinkToFit();
    EXPECT_EQ(t.totalOps(), before.totalOps());
    for (std::uint32_t g = 0; g < 2; ++g) {
        const StreamView a = t.gpeStream(g);
        const StreamView b = before.gpeStream(g);
        ASSERT_EQ(a.size, b.size);
        for (std::size_t i = 0; i < a.size; ++i) {
            EXPECT_EQ(a.op(i).addr, b.op(i).addr);
            EXPECT_EQ(a.op(i).kind, b.op(i).kind);
        }
    }
    // The content did not change, so the memoized digests still hold.
    EXPECT_EQ(t.streamDigests(), digests);
}

TEST(Trace, ViewMatchesSourceStreams)
{
    // The ops extremeTrace() pushes to GPE 0, in order, between the
    // "stress" and "tail" phase markers.
    constexpr Addr kMax = std::numeric_limits<Addr>::max();
    const std::vector<TraceOp> gpe0 = {
        {0, 0, OpKind::Phase},
        {0, 0, OpKind::Load},
        {kMax, 0xffff, OpKind::Store},
        {1, 1, OpKind::FpLoad},
        {kMax / 2, 7, OpKind::FpStore},
        {kMax / 2 + 1, 7, OpKind::FpOp},
        {1, 0, OpKind::Phase},
    };
    const Trace t = extremeTrace();
    const TraceView view = t.view();
    EXPECT_EQ(view.shape, t.shape());
    ASSERT_EQ(view.streams.size(),
              t.shape().numGpes() + t.shape().tiles);
    EXPECT_EQ(view.totalOps, 22u); // 10 pushed + 2 markers per core
    EXPECT_EQ(view.totalOps, t.totalOps());
    EXPECT_EQ(view.totalFpOps, 3u);
    EXPECT_EQ(static_cast<double>(view.totalFpOps), t.totalFlops());
    EXPECT_EQ(std::vector<std::string>(view.phases.begin(),
                                       view.phases.end()),
              t.phaseNames());

    const StreamView &s = view.gpeStream(0);
    ASSERT_EQ(s.size, gpe0.size());
    for (std::size_t i = 0; i < s.size; ++i) {
        EXPECT_EQ(s.addr[i], gpe0[i].addr) << "op " << i;
        EXPECT_EQ(s.pc[i], gpe0[i].pc) << "op " << i;
        EXPECT_EQ(static_cast<OpKind>(s.kind[i]), gpe0[i].kind)
            << "op " << i;
    }
    EXPECT_EQ(view.gpeStream(3).size, 2u); // the two phase markers
    const StreamView &lcp = view.lcpStream(0);
    ASSERT_EQ(lcp.size, 3u);
    EXPECT_EQ(lcp.op(2).addr, kMax - 1);
    EXPECT_EQ(lcp.op(2).pc, 0xfffe);
    EXPECT_EQ(lcp.op(2).kind, OpKind::Load);
    // The accessors and the view read the same columns.
    EXPECT_EQ(t.lcpStream(0).addr, lcp.addr);
}
