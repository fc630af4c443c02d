/**
 * @file
 * Columnar trace serialization: the CRC32-framed writer and the
 * buffer-decoding loader.
 */

#include "sim/trace_columnar.hh"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "store/crc32.hh"

namespace sadapt {
namespace {

constexpr std::size_t fileHeaderBytes = 16;
constexpr std::size_t frameHeaderBytes = 24;
constexpr std::size_t streamHeaderBytes = 24;
constexpr std::uint32_t streamKindGpe = 0;
constexpr std::uint32_t streamKindLcp = 1;
constexpr std::uint8_t maxOpKindByte =
    static_cast<std::uint8_t>(OpKind::Phase);

std::size_t
pad8(std::size_t n)
{
    return (n + 7) & ~std::size_t{7};
}

/** Little-endian scalar append (the file format is LE-defined). */
template <typename T>
void
putLe(std::string &out, T value)
{
    auto v = static_cast<std::uint64_t>(value);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

template <typename T>
T
getLe(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return static_cast<T>(v);
}

/**
 * Address deltas are computed mod 2^64 and zigzag-folded, so every
 * u64 address round-trips exactly no matter how wildly consecutive
 * addresses jump (Phase markers drop phase ids into the same chain).
 */
std::uint64_t
zigzag(std::uint64_t delta)
{
    const auto s = static_cast<std::int64_t>(delta);
    return (delta << 1) ^ static_cast<std::uint64_t>(s >> 63);
}

std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (0 - (z & 1));
}

void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/** Encode one stream's three columns as a STREAM section payload. */
std::string
encodeStreamPayload(std::uint32_t core_kind, std::uint32_t id,
                    const StreamView &ops)
{
    std::string addr_col;
    addr_col.reserve(ops.size * 2);
    Addr prev = 0;
    for (std::size_t i = 0; i < ops.size; ++i) {
        putVarint(addr_col, zigzag(ops.addr[i] - prev));
        prev = ops.addr[i];
    }

    std::string payload;
    payload.reserve(streamHeaderBytes + pad8(ops.size) +
                    pad8(2 * ops.size) + addr_col.size());
    putLe<std::uint32_t>(payload, core_kind);
    putLe<std::uint32_t>(payload, id);
    putLe<std::uint64_t>(payload, ops.size);
    putLe<std::uint64_t>(payload, addr_col.size());
    payload.append(reinterpret_cast<const char *>(ops.kind), ops.size);
    payload.resize(pad8(payload.size()), '\0');
    for (std::size_t i = 0; i < ops.size; ++i)
        putLe<std::uint16_t>(payload, ops.pc[i]);
    payload.resize(pad8(payload.size()), '\0');
    payload += addr_col;
    return payload;
}

void
appendFrame(std::string &out, TraceSection kind,
            const std::string &payload)
{
    putLe<std::uint32_t>(out, traceColumnarFrameMagic);
    putLe<std::uint32_t>(out, static_cast<std::uint32_t>(kind));
    putLe<std::uint64_t>(out, payload.size());
    putLe<std::uint32_t>(out, store::crc32(payload));
    putLe<std::uint32_t>(out, 0);
    out += payload;
    out.append(pad8(payload.size()) - payload.size(), '\0');
}

Status
columnarError(const std::string &path, const std::string &what)
{
    return Status::error("columnar trace " + path + ": " + what);
}

/**
 * Read a whole regular file into memory. file_size() refuses
 * directories and devices, whose seek offsets are no byte count.
 */
Result<std::vector<std::uint8_t>>
readFile(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    std::ifstream in(path, std::ios::binary);
    if (ec || !in)
        return columnarError(path, "cannot open file");
    std::vector<std::uint8_t> bytes(size);
    in.read(reinterpret_cast<char *>(bytes.data()),
            static_cast<std::streamsize>(size));
    if (static_cast<std::uintmax_t>(in.gcount()) != size)
        return columnarError(path, "short read");
    return bytes;
}

/** One parsed frame: section kind plus a CRC-verified payload span. */
struct Frame
{
    TraceSection kind;
    const std::uint8_t *payload;
    std::size_t size;
};

Result<Frame>
parseFrame(const std::string &path, std::span<const std::uint8_t> file,
           std::size_t &off)
{
    if (file.size() - off < frameHeaderBytes)
        return columnarError(path, "torn tail: truncated frame header");
    const std::uint8_t *h = file.data() + off;
    if (getLe<std::uint32_t>(h) != traceColumnarFrameMagic)
        return columnarError(path, "bad frame magic");
    const auto kind = getLe<std::uint32_t>(h + 4);
    const auto len = getLe<std::uint64_t>(h + 8);
    const auto crc = getLe<std::uint32_t>(h + 16);
    if (kind < static_cast<std::uint32_t>(TraceSection::Meta) ||
        kind > static_cast<std::uint32_t>(TraceSection::End))
        return columnarError(path, "unknown section kind");
    const std::size_t body = file.size() - off - frameHeaderBytes;
    if (len > body || pad8(len) > body)
        return columnarError(path, "torn tail: truncated payload");
    const std::uint8_t *payload = h + frameHeaderBytes;
    if (store::crc32(payload, len) != crc)
        return columnarError(path, "payload CRC mismatch");
    off += frameHeaderBytes + pad8(len);
    return Frame{static_cast<TraceSection>(kind), payload, len};
}

/** Cursor over a payload with bounds-checked LE reads. */
struct PayloadReader
{
    const std::uint8_t *p;
    std::size_t size;
    std::size_t off = 0;

    template <typename T>
    bool
    read(T &out)
    {
        if (size - off < sizeof(T))
            return false;
        out = getLe<T>(p + off);
        off += sizeof(T);
        return true;
    }
};

} // namespace

Status
writeTraceColumnarFile(const Trace &trace, const std::string &path,
                       std::uint64_t footprint,
                       std::uint64_t epoch_fpops,
                       std::uint64_t declared_epochs)
{
    const TraceView v = trace.view();
    const std::uint32_t num_gpes = v.shape.numGpes();

    std::string meta;
    putLe<std::uint32_t>(meta, v.shape.tiles);
    putLe<std::uint32_t>(meta, v.shape.gpesPerTile);
    putLe<std::uint64_t>(meta, footprint);
    putLe<std::uint64_t>(meta, epoch_fpops);
    putLe<std::uint64_t>(meta, declared_epochs);
    putLe<std::uint64_t>(meta, v.totalFpOps);
    putLe<std::uint64_t>(meta, v.totalOps);
    putLe<std::uint32_t>(meta, static_cast<std::uint32_t>(v.phases.size()));
    for (const std::string &name : v.phases) {
        putLe<std::uint32_t>(meta, static_cast<std::uint32_t>(name.size()));
        meta += name;
    }

    std::string out;
    out.append(traceColumnarMagic, sizeof traceColumnarMagic);
    putLe<std::uint32_t>(out, traceColumnarVersion);
    putLe<std::uint32_t>(out, 0);
    appendFrame(out, TraceSection::Meta, meta);
    for (std::uint32_t s = 0; s < v.streams.size(); ++s) {
        const bool is_gpe = s < num_gpes;
        appendFrame(out, TraceSection::Stream,
                    encodeStreamPayload(
                        is_gpe ? streamKindGpe : streamKindLcp,
                        is_gpe ? s : s - num_gpes, v.streams[s]));
    }
    appendFrame(out, TraceSection::End, std::string());

    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return columnarError(path, "cannot open for writing");
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
    f.flush();
    if (!f)
        return columnarError(path, "write failed");
    return Status::ok();
}

Result<TraceText>
readTraceColumnarFile(const std::string &path)
{
    Result<std::vector<std::uint8_t>> read = readFile(path);
    if (!read.isOk())
        return read.status();
    const std::span<const std::uint8_t> file = read.value();

    if (file.size() < fileHeaderBytes ||
        std::memcmp(file.data(), traceColumnarMagic,
                    sizeof traceColumnarMagic) != 0)
        return columnarError(path, "bad file magic");
    const auto version = getLe<std::uint32_t>(file.data() + 8);
    if (version != traceColumnarVersion)
        return columnarError(path, "unsupported version " +
                                       std::to_string(version));

    std::size_t off = fileHeaderBytes;
    Result<Frame> meta_frame = parseFrame(path, file, off);
    if (!meta_frame.isOk())
        return meta_frame.status();
    if (meta_frame.value().kind != TraceSection::Meta)
        return columnarError(path, "first section is not meta");

    // The meta op totals are only cross-checked against the streams;
    // no storage is ever sized from them.
    TraceText out;
    std::uint64_t total_fpops = 0, total_ops = 0;
    {
        PayloadReader r{meta_frame.value().payload,
                        meta_frame.value().size};
        std::uint32_t tiles = 0, gpes_per_tile = 0, nphases = 0;
        if (!r.read(tiles) || !r.read(gpes_per_tile) ||
            !r.read(out.footprint) || !r.read(out.epochFpOps) ||
            !r.read(out.declaredEpochs) || !r.read(total_fpops) ||
            !r.read(total_ops) || !r.read(nphases))
            return columnarError(path, "truncated meta section");
        if (tiles == 0 || gpes_per_tile == 0 ||
            tiles > maxTraceGpes || gpes_per_tile > maxTraceGpes ||
            std::uint64_t{tiles} * gpes_per_tile > maxTraceGpes)
            return columnarError(path, "implausible system shape");
        out.trace = Trace(SystemShape{tiles, gpes_per_tile});
        for (std::uint32_t i = 0; i < nphases; ++i) {
            std::uint32_t len = 0;
            if (!r.read(len) || r.size - r.off < len)
                return columnarError(path, "truncated phase name");
            out.trace.registerPhase(std::string(
                reinterpret_cast<const char *>(r.p + r.off), len));
            r.off += len;
        }
        if (r.off != r.size)
            return columnarError(path, "trailing bytes in meta section");
    }
    Trace &trace = out.trace;
    const std::uint64_t num_phases = trace.phaseNames().size();

    const std::uint32_t num_gpes = trace.shape().numGpes();
    const std::uint32_t num_streams = num_gpes + trace.shape().tiles;
    std::uint64_t seen_ops = 0;
    for (std::uint32_t s = 0; s < num_streams; ++s) {
        Result<Frame> frame = parseFrame(path, file, off);
        if (!frame.isOk())
            return frame.status();
        if (frame.value().kind != TraceSection::Stream)
            return columnarError(path, "missing stream section");
        PayloadReader r{frame.value().payload, frame.value().size};
        std::uint32_t core_kind = 0, id = 0;
        std::uint64_t nops = 0, addr_bytes = 0;
        if (!r.read(core_kind) || !r.read(id) || !r.read(nops) ||
            !r.read(addr_bytes))
            return columnarError(path, "truncated stream header");
        const bool is_gpe = s < num_gpes;
        const std::uint32_t want_kind =
            is_gpe ? streamKindGpe : streamKindLcp;
        const std::uint32_t want_id = is_gpe ? s : s - num_gpes;
        if (core_kind != want_kind || id != want_id)
            return columnarError(path,
                                 "stream sections out of canonical order");
        if (nops > total_ops - seen_ops)
            return columnarError(path, "column length disagreement: "
                                       "stream op counts exceed meta total");
        // Every op takes at least 4 payload bytes: its kind byte, two
        // pc bytes and one address varint byte. Checking that first
        // bounds nops by the bytes actually read, so the offsets
        // below cannot overflow and reserve() cannot be asked for
        // more than the file could hold.
        if (nops > (r.size - r.off) / 4)
            return columnarError(path, "column length disagreement: "
                                       "op count exceeds stream payload");
        const std::size_t kind_off = r.off;
        const std::size_t pc_off = kind_off + pad8(nops);
        const std::size_t addr_off = pc_off + pad8(2 * nops);
        if (addr_off > r.size || r.size - addr_off != addr_bytes)
            return columnarError(path, "column length disagreement: "
                                       "payload size vs declared columns");

        // Single streaming pass: validate each kind byte, decode the
        // delta varint and the LE pc, check Phase markers, append.
        Trace::StreamWriter w = is_gpe ? trace.gpeWriter(s)
                                       : trace.lcpWriter(s - num_gpes);
        w.reserve(nops);
        const std::uint8_t *kind_col = r.p + kind_off;
        const std::uint8_t *pc_col = r.p + pc_off;
        const std::uint8_t *ap = r.p + addr_off;
        const std::uint8_t *aend = ap + addr_bytes;
        Addr prev = 0;
        for (std::uint64_t i = 0; i < nops; ++i) {
            if (kind_col[i] > maxOpKindByte)
                return columnarError(path, "invalid op kind byte");
            std::uint64_t z = 0;
            int shift = 0;
            while (true) {
                if (ap >= aend || shift > 63)
                    return columnarError(path,
                                         "column length disagreement: "
                                         "truncated address varint");
                const std::uint8_t b = *ap++;
                z |= static_cast<std::uint64_t>(b & 0x7f) << shift;
                if (!(b & 0x80))
                    break;
                shift += 7;
            }
            prev += unzigzag(z);
            const auto kind = static_cast<OpKind>(kind_col[i]);
            if (kind == OpKind::Phase && prev >= num_phases)
                return columnarError(path,
                                     "phase op references undeclared phase");
            w.push({prev, getLe<std::uint16_t>(pc_col + 2 * i), kind});
        }
        if (ap != aend)
            return columnarError(path, "column length disagreement: "
                                       "unused address column bytes");
        seen_ops += nops;
    }
    if (seen_ops != total_ops)
        return columnarError(path, "column length disagreement: "
                                   "stream op counts below meta total");
    if (trace.view().totalFpOps != total_fpops)
        return columnarError(path,
                             "meta fp-op total disagrees with streams");

    Result<Frame> end_frame = parseFrame(path, file, off);
    if (!end_frame.isOk())
        return end_frame.status();
    if (end_frame.value().kind != TraceSection::End ||
        end_frame.value().size != 0)
        return columnarError(path, "missing end section");
    if (off != file.size())
        return columnarError(path, "trailing bytes after end section");
    return out;
}

bool
traceFileIsColumnar(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    char magic[sizeof traceColumnarMagic] = {};
    f.read(magic, sizeof magic);
    return f.gcount() == sizeof magic &&
           std::memcmp(magic, traceColumnarMagic, sizeof magic) == 0;
}

} // namespace sadapt
