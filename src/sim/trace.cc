#include "sim/trace.hh"

#include <bit>
#include <type_traits>

#include "common/logging.hh"

namespace sadapt {

namespace {

// xxHash64's primes; the lane round below is its accumulator round.
constexpr std::uint64_t laneP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t laneP2 = 0xc2b2ae3d27d4eb4full;

constexpr std::uint64_t
laneRound(std::uint64_t acc, std::uint64_t v)
{
    return std::rotl(acc + v * laneP2, 31) * laneP1;
}

} // namespace

StreamDigest
digestStream(const StreamView &stream)
{
    // Four lane variables rather than an array keep the independent
    // chains in registers.
    const std::size_t n = stream.size;
    std::uint64_t lane0 = laneP1 + laneP2;
    std::uint64_t lane1 = laneP2;
    std::uint64_t lane2 = 0;
    std::uint64_t lane3 = 0 - laneP1;
    auto fold = [&stream](std::uint64_t &acc, std::size_t i) {
        const std::uint64_t site =
            stream.pc[i] | std::uint64_t{stream.kind[i]} << 16;
        acc = laneRound(laneRound(acc, stream.addr[i]), site);
    };
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        fold(lane0, i);
        fold(lane1, i + 1);
        fold(lane2, i + 2);
        fold(lane3, i + 3);
    }
    if (i < n)
        fold(lane0, i++);
    if (i < n)
        fold(lane1, i++);
    if (i < n)
        fold(lane2, i++);
    return {n, {lane0, lane1, lane2, lane3}};
}

// Vectors of workloads move their traces on growth only if this holds.
static_assert(std::is_nothrow_move_constructible_v<Trace>);

Trace::Trace(SystemShape shape)
    : shapeV(shape), streamsV(shape.numGpes() + shape.tiles)
{
}

void
Trace::beginPhase(const std::string &name)
{
    const Addr id = phases.size();
    phases.push_back(name);
    for (Columns &s : streamsV)
        s.push({id, 0, OpKind::Phase});
}

StreamView
Trace::gpeStream(std::uint32_t g) const
{
    SADAPT_ASSERT(g < shapeV.numGpes(), "gpe index out of range");
    return streamsV[g].view();
}

StreamView
Trace::lcpStream(std::uint32_t t) const
{
    SADAPT_ASSERT(t < shapeV.tiles, "tile index out of range");
    return streamsV[shapeV.numGpes() + t].view();
}

double
Trace::totalFlops() const
{
    std::uint64_t n = 0;
    for (std::uint32_t g = 0; g < shapeV.numGpes(); ++g)
        n += streamsV[g].fpOps;
    return static_cast<double>(n);
}

std::uint64_t
Trace::totalSpmOps() const
{
    std::uint64_t n = 0;
    for (std::uint32_t g = 0; g < shapeV.numGpes(); ++g)
        n += streamsV[g].spmOps;
    return n;
}

std::uint64_t
Trace::totalOps() const
{
    std::uint64_t n = 0;
    for (const Columns &s : streamsV)
        n += s.kind.size();
    return n;
}

void
Trace::append(const Trace &other)
{
    SADAPT_ASSERT(shapeV == other.shapeV,
                  "cannot append traces of different shapes");
    const Addr phase_base = phases.size();
    for (const auto &name : other.phases)
        phases.push_back(name);
    for (std::size_t s = 0; s < streamsV.size(); ++s) {
        const StreamView src = other.streamsV[s].view();
        StreamWriter w(&streamsV[s]);
        w.reserve(src.size);
        for (std::size_t i = 0; i < src.size; ++i) {
            TraceOp op = src.op(i);
            if (op.kind == OpKind::Phase)
                op.addr += phase_base;
            w.push(op);
        }
    }
}

TraceView
Trace::view() const
{
    TraceView v;
    v.shape = shapeV;
    v.streams.reserve(streamsV.size());
    for (const Columns &s : streamsV)
        v.streams.push_back(s.view());
    v.phases = phases;
    v.totalFpOps = static_cast<std::uint64_t>(totalFlops());
    v.totalOps = totalOps();
    return v;
}

void
Trace::shrinkToFit()
{
    for (Columns &s : streamsV) {
        s.kind.shrink_to_fit();
        s.addr.shrink_to_fit();
        s.pc.shrink_to_fit();
    }
}

std::shared_ptr<const Trace::StreamDigests>
Trace::streamDigests() const
{
    const std::uint64_t ops = totalOps();
    {
        std::lock_guard<std::mutex> lock(memo.mu);
        if (memo.digests && memo.ops == ops &&
            memo.phases == phases.size())
            return memo.digests;
    }
    auto digests = std::make_shared<StreamDigests>();
    digests->reserve(streamsV.size());
    for (const Columns &s : streamsV)
        digests->push_back(digestStream(s.view()));
    std::lock_guard<std::mutex> lock(memo.mu);
    // A thread that raced this one may have published equal digests
    // meanwhile: keep those, so a memo entry another thread may still
    // read is never released from this one.
    if (memo.digests && memo.ops == ops && memo.phases == phases.size())
        return memo.digests;
    memo.ops = ops;
    memo.phases = phases.size();
    memo.digests = digests;
    return digests;
}

std::string
opKindName(OpKind k)
{
    switch (k) {
      case OpKind::IntOp: return "int";
      case OpKind::FpOp: return "fp";
      case OpKind::Load: return "ld";
      case OpKind::Store: return "st";
      case OpKind::FpLoad: return "fpld";
      case OpKind::FpStore: return "fpst";
      case OpKind::SpmLoad: return "spmld";
      case OpKind::SpmStore: return "spmst";
      case OpKind::Phase: return "phase";
    }
    panic("bad OpKind");
}

} // namespace sadapt
