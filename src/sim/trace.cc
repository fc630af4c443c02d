#include "sim/trace.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>
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

void
Trace::registerPhase(std::string name)
{
    phases.push_back(std::move(name));
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

Status
Trace::tryPushGpe(std::uint32_t gpe, TraceOp op)
{
    if (gpe >= shapeV.numGpes())
        return Status::error(str("gpe id ", gpe, " out of range (",
                                 shapeV.numGpes(), " GPEs)"));
    streamsV[gpe].push(op);
    return Status::ok();
}

Status
Trace::tryPushLcp(std::uint32_t tile, TraceOp op)
{
    if (tile >= shapeV.tiles)
        return Status::error(str("tile id ", tile, " out of range (",
                                 shapeV.tiles, " tiles)"));
    streamsV[shapeV.numGpes() + tile].push(op);
    return Status::ok();
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

std::optional<OpKind>
opKindFromName(const std::string &name)
{
    if (name == "int") return OpKind::IntOp;
    if (name == "fp") return OpKind::FpOp;
    if (name == "ld") return OpKind::Load;
    if (name == "st") return OpKind::Store;
    if (name == "fpld") return OpKind::FpLoad;
    if (name == "fpst") return OpKind::FpStore;
    if (name == "spmld") return OpKind::SpmLoad;
    if (name == "spmst") return OpKind::SpmStore;
    if (name == "phase") return OpKind::Phase;
    return std::nullopt;
}

namespace {

Status
traceError(std::uint64_t line, const std::string &what)
{
    return Status::error(str("trace line ", line, ": ", what));
}

constexpr std::string_view blanks = " \t\r\n\v\f";

/** Split a line into its blank-separated words. */
std::vector<std::string_view>
splitWords(std::string_view line)
{
    std::vector<std::string_view> words;
    std::size_t begin = line.find_first_not_of(blanks);
    while (begin != std::string_view::npos) {
        const std::size_t end =
            std::min(line.find_first_of(blanks, begin), line.size());
        words.push_back(line.substr(begin, end - begin));
        begin = line.find_first_not_of(blanks, end);
    }
    return words;
}

/**
 * One unsigned decimal field: digits only, so a sign, a base prefix,
 * trailing junk or a value past u64 is a parse error, not a wrap.
 */
bool
parseU64(std::string_view word, std::uint64_t &v)
{
    const char *end = word.data() + word.size();
    const auto [ptr, ec] = std::from_chars(word.data(), end, v);
    return !word.empty() && ec == std::errc() && ptr == end;
}

} // namespace

Result<TraceText>
readTraceText(std::istream &in)
{
    std::string line;
    std::uint64_t lineno = 0;
    auto next_line = [&]() -> bool {
        while (std::getline(in, line)) {
            ++lineno;
            const auto pos = line.find_first_not_of(blanks);
            if (pos == std::string::npos || line[pos] == '#')
                continue; // blank or comment
            return true;
        }
        return false;
    };

    if (!next_line() || line != "sadapt-trace v1")
        return Status::error(
            "trace: missing 'sadapt-trace v1' magic line");

    TraceText out;
    SystemShape shape;
    bool have_shape = false;
    std::uint64_t num_phases = 0;
    bool saw_end = false;
    std::vector<std::string> phase_names;
    // One flag per stream so duplicate declarations are caught.
    std::vector<bool> gpe_seen, lcp_seen;

    while (next_line()) {
        const std::vector<std::string_view> w = splitWords(line);
        const std::string_view word = w[0];
        if (word == "end") {
            if (w.size() != 1)
                return traceError(lineno, "malformed end");
            saw_end = true;
            break;
        }
        if (word == "shape") {
            if (have_shape)
                return traceError(lineno, "duplicate shape directive");
            std::uint64_t tiles = 0, gpes = 0;
            if (w.size() != 3 || !parseU64(w[1], tiles) ||
                !parseU64(w[2], gpes) || tiles == 0 || gpes == 0)
                return traceError(lineno, "malformed shape");
            // Bound each dimension before multiplying: a u64 product
            // of two huge dimensions can wrap to a small value.
            if (tiles > maxTraceGpes || gpes > maxTraceGpes ||
                tiles * gpes > maxTraceGpes)
                return traceError(
                    lineno, str("shape ", tiles, "x", gpes,
                                " exceeds ", maxTraceGpes, " GPEs"));
            shape.tiles = static_cast<std::uint32_t>(tiles);
            shape.gpesPerTile = static_cast<std::uint32_t>(gpes);
            out.trace = Trace(shape);
            gpe_seen.assign(shape.numGpes(), false);
            lcp_seen.assign(shape.tiles, false);
            have_shape = true;
            continue;
        }
        if (word == "footprint" || word == "epoch_fpops" ||
            word == "epochs") {
            std::uint64_t v = 0;
            if (w.size() != 2 || !parseU64(w[1], v))
                return traceError(lineno, str("malformed ", word));
            if (word == "footprint")
                out.footprint = v;
            else if (word == "epoch_fpops")
                out.epochFpOps = v;
            else
                out.declaredEpochs = v;
            continue;
        }
        if (word == "phase") {
            // The name is the rest of the line, spaces included.
            std::uint64_t id = 0;
            if (w.size() < 3 || !parseU64(w[1], id))
                return traceError(lineno, "malformed phase");
            if (id != num_phases)
                return traceError(
                    lineno, str("phase id ", id, " out of order "
                                "(expected ", num_phases, ")"));
            ++num_phases;
            phase_names.emplace_back(
                line, static_cast<std::size_t>(w[2].data() - line.data()));
            continue;
        }
        if (word == "stream") {
            if (!have_shape)
                return traceError(lineno, "stream before shape");
            std::uint64_t id = 0, nops = 0;
            if (w.size() != 4 || (w[1] != "gpe" && w[1] != "lcp") ||
                !parseU64(w[2], id) || !parseU64(w[3], nops))
                return traceError(lineno, "malformed stream header");
            const std::string core(w[1]);
            const bool is_gpe = core == "gpe";
            const std::uint64_t limit =
                is_gpe ? shape.numGpes() : shape.tiles;
            if (id >= limit)
                return traceError(
                    lineno, str(core, " id ", id, " out of range (",
                                limit, " ", core, "s)"));
            auto &seen = is_gpe ? gpe_seen : lcp_seen;
            if (seen[id])
                return traceError(
                    lineno, str("duplicate ", core, " stream ", id));
            seen[id] = true;

            std::uint64_t last_t = 0;
            for (std::uint64_t i = 0; i < nops; ++i) {
                if (!next_line())
                    return traceError(
                        lineno, str("truncated ", core, " stream ",
                                    id, ": ", i, " of ", nops,
                                    " ops"));
                const std::vector<std::string_view> ow =
                    splitWords(line);
                std::uint64_t t = 0, addr = 0, pc = 0;
                if (ow.size() != 4 || !parseU64(ow[0], t) ||
                    !parseU64(ow[2], addr) || !parseU64(ow[3], pc))
                    return traceError(lineno, "malformed op record");
                if (pc > 0xffff)
                    return traceError(
                        lineno, str("pc ", pc, " exceeds the 16-bit "
                                    "access-site id space"));
                if (i > 0 && t <= last_t)
                    return traceError(
                        lineno, str("non-monotone timestamp ", t,
                                    " (previous ", last_t, ")"));
                last_t = t;
                const std::string kind(ow[1]);
                const auto k = opKindFromName(kind);
                if (!k)
                    return traceError(lineno,
                                      "unknown op kind '" + kind +
                                          "'");
                if (*k == OpKind::Phase && addr >= num_phases)
                    return traceError(
                        lineno, str("phase op references undeclared "
                                    "phase id ", addr));
                TraceOp op{addr, static_cast<std::uint16_t>(pc), *k};
                const Status s = is_gpe
                    ? out.trace.tryPushGpe(
                          static_cast<std::uint32_t>(id), op)
                    : out.trace.tryPushLcp(
                          static_cast<std::uint32_t>(id), op);
                if (!s)
                    return traceError(lineno, s.message());
            }
            continue;
        }
        return traceError(lineno,
                          str("unknown directive '", word, "'"));
    }

    if (!have_shape)
        return Status::error("trace: missing shape directive");
    if (!saw_end)
        return Status::error("trace: missing 'end' terminator");
    if (next_line())
        return traceError(lineno, "content after 'end'");
    // Register the declared phases so phaseNames() lines up. The
    // phase markers themselves were replayed verbatim above.
    for (auto &name : phase_names)
        out.trace.registerPhase(std::move(name));
    return out;
}

Result<TraceText>
readTraceTextFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::error("cannot open trace file: " + path);
    return readTraceText(in);
}

void
writeTraceText(const Trace &trace, std::ostream &out,
               std::uint64_t footprint, std::uint64_t epoch_fpops,
               std::uint64_t declared_epochs)
{
    const SystemShape &shape = trace.shape();
    out << "sadapt-trace v1\n";
    out << "shape " << shape.tiles << ' ' << shape.gpesPerTile
        << '\n';
    if (footprint)
        out << "footprint " << footprint << '\n';
    if (epoch_fpops)
        out << "epoch_fpops " << epoch_fpops << '\n';
    if (declared_epochs)
        out << "epochs " << declared_epochs << '\n';
    const auto &phases = trace.phaseNames();
    for (std::size_t i = 0; i < phases.size(); ++i)
        out << "phase " << i << ' ' << phases[i] << '\n';
    auto emit = [&](const char *core, std::uint32_t id,
                    const StreamView &ops) {
        out << "stream " << core << ' ' << id << ' ' << ops.size
            << '\n';
        for (std::size_t i = 0; i < ops.size; ++i)
            out << i << ' '
                << opKindName(static_cast<OpKind>(ops.kind[i])) << ' '
                << ops.addr[i] << ' ' << ops.pc[i] << '\n';
    };
    for (std::uint32_t g = 0; g < shape.numGpes(); ++g)
        emit("gpe", g, trace.gpeStream(g));
    for (std::uint32_t t = 0; t < shape.tiles; ++t)
        emit("lcp", t, trace.lcpStream(t));
    out << "end\n";
}

} // namespace sadapt
