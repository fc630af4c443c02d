/**
 * @file
 * A small trace at the edges of the op model, shared by the container
 * and text-format tests: every op kind, pc ids at both u16 extremes,
 * addresses across the whole u64 range (0, u64 max, and jumps in both
 * directions), an empty GPE stream and two phases.
 */

#ifndef SADAPT_TESTS_EXTREME_TRACE_HH
#define SADAPT_TESTS_EXTREME_TRACE_HH

#include <limits>

#include "sim/trace.hh"

namespace sadapt::test {

inline Trace
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

} // namespace sadapt::test

#endif // SADAPT_TESTS_EXTREME_TRACE_HH
