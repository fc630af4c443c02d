/**
 * @file
 * Golden pin for the trace container. One fixed trace (every op kind,
 * SPM ops, phases, extreme addresses and pc ids) is pinned by its
 * 64-bit store fingerprint. A change to the in-memory trace layout
 * must leave it unchanged; a mismatch prints the computed value.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "sim/trace.hh"
#include "store/fingerprint.hh"

using namespace sadapt;

namespace {

/**
 * The pinned trace: a 2x2 shape with three phases, SpMSpV-style
 * indexed FP loads and SpMSpM-style partial-product stores, SPM ops,
 * an empty GPE stream, streams long enough to fill every fingerprint
 * lane plus a tail, and an address walk that jumps across the whole
 * u64 range.
 */
Trace
goldenTrace()
{
    constexpr Addr kMax = std::numeric_limits<Addr>::max();
    Trace t(SystemShape{2, 2});
    t.beginPhase("multiply");
    t.pushGpe(0, {0x1000, 3, OpKind::Load});
    t.pushGpe(0, {0x2000, 4, OpKind::FpLoad});
    t.pushGpe(0, {0, 0, OpKind::FpOp});
    t.pushGpe(0, {0x3008, 5, OpKind::FpStore});
    t.pushGpe(0, {kMax, 0xffff, OpKind::Store});
    t.pushGpe(0, {1, 1, OpKind::IntOp});
    t.pushGpe(1, {0x8000000000000000ull, 2, OpKind::SpmLoad});
    t.pushGpe(1, {0x7fffffffffffffffull, 3, OpKind::SpmStore});
    t.pushGpe(1, {64, 7, OpKind::SpmLoad});
    t.pushGpe(2, {42, 4, OpKind::IntOp});
    t.pushGpe(2, {kMax / 2, 9, OpKind::FpLoad});
    t.pushGpe(2, {kMax / 2 + 1, 9, OpKind::FpOp});
    // GPE 3 gets only the phase markers.
    t.pushLcp(0, {0x4000, 11, OpKind::Load});
    t.pushLcp(0, {0x4040, 11, OpKind::Store});
    t.beginPhase("merge");
    t.pushGpe(0, {0x5000, 12, OpKind::FpLoad});
    t.pushGpe(0, {0x5000, 12, OpKind::FpStore});
    t.pushGpe(1, {kMax - 1, 0xfffe, OpKind::Load});
    t.pushLcp(1, {0, 0, OpKind::IntOp});
    t.beginPhase("tail");
    t.pushGpe(3, {8, 1, OpKind::FpOp});
    return t;
}

RunParams
goldenParams()
{
    RunParams p;
    p.shape = SystemShape{2, 2};
    p.epochFpOps = 2;
    return p;
}

} // namespace

TEST(GoldenFormat, FingerprintIsPinned)
{
    const std::uint64_t fp = store::workloadFingerprint(
        goldenTrace(), goldenParams(), MemType::Cache);
    EXPECT_EQ(fp, 0x6b2448ede5b5be77ull)
        << std::hex << "computed 0x" << fp;
}
