/**
 * @file
 * Tests for the trace's column view and the binary columnar file
 * format: the view shows exactly the ops pushed, the file round trip
 * preserves streams and metadata, the delta-varint address column
 * survives extreme 64-bit addresses and jumps in both directions,
 * format sniffing tells the two formats apart, and a CRC-valid file
 * declaring more ops than it carries is a recoverable error.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "sim/trace_columnar.hh"
#include "store/crc32.hh"

using namespace sadapt;

namespace {

namespace fs = std::filesystem;

/** Fresh path under the test temp dir (removed if left over). */
std::string
tempTracePath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    fs::remove(path);
    return path;
}

/**
 * A small trace that stresses the encoder: every op kind, pc ids at
 * both u16 extremes, and an address walk that forces maximal-length
 * varints and sign flips in the zigzag delta stream (0 -> u64 max ->
 * 1 -> alternating high/low).
 */
Trace
extremeTrace()
{
    constexpr Addr kMax = std::numeric_limits<Addr>::max();
    Trace t(SystemShape{2, 2});
    t.beginPhase("stress");
    t.pushGpe(0, {0, 0, OpKind::Load});
    t.pushGpe(0, {kMax, 0xffff, OpKind::Store});      // +max delta
    t.pushGpe(0, {1, 1, OpKind::FpLoad});             // -max-ish delta
    t.pushGpe(0, {kMax / 2, 7, OpKind::FpStore});
    t.pushGpe(0, {kMax / 2 + 1, 7, OpKind::FpOp});    // +1 delta
    t.pushGpe(1, {0x8000000000000000ull, 2, OpKind::SpmLoad});
    t.pushGpe(1, {0x7fffffffffffffffull, 3, OpKind::SpmStore});
    t.pushGpe(2, {42, 4, OpKind::IntOp});
    // GPE 3 stays empty: zero-length columns must round-trip too.
    t.beginPhase("tail");
    t.pushLcp(0, {kMax - 1, 0xfffe, OpKind::Load});
    t.pushLcp(1, {0, 0, OpKind::IntOp});
    return t;
}

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.shape().tiles, b.shape().tiles);
    ASSERT_EQ(a.shape().gpesPerTile, b.shape().gpesPerTile);
    EXPECT_EQ(a.phaseNames(), b.phaseNames());
    auto expect_stream = [](const StreamView &x, const StreamView &y,
                            const std::string &core) {
        ASSERT_EQ(x.size, y.size) << core;
        for (std::size_t i = 0; i < x.size; ++i) {
            EXPECT_EQ(x.addr[i], y.addr[i]) << core << " op " << i;
            EXPECT_EQ(x.pc[i], y.pc[i]) << core << " op " << i;
            EXPECT_EQ(x.kind[i], y.kind[i]) << core << " op " << i;
        }
    };
    for (std::uint32_t g = 0; g < a.shape().numGpes(); ++g)
        expect_stream(a.gpeStream(g), b.gpeStream(g),
                      "gpe " + std::to_string(g));
    for (std::uint32_t t = 0; t < a.shape().tiles; ++t)
        expect_stream(a.lcpStream(t), b.lcpStream(t),
                      "lcp " + std::to_string(t));
}

} // namespace

TEST(ColumnarTrace, ViewMatchesSourceStreams)
{
    // The ops extremeTrace() pushes to GPE 0, in order, after the
    // "stress" phase marker.
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

TEST(ColumnarTrace, FileRoundTripPreservesStreamsAndMetadata)
{
    const std::string path = tempTracePath("columnar_roundtrip.ctrace");
    const Trace t = extremeTrace();
    ASSERT_TRUE(
        writeTraceColumnarFile(t, path, /*footprint=*/1 << 20,
                               /*epoch_fpops=*/500,
                               /*declared_epochs=*/3)
            .isOk());

    Result<TraceText> loaded = readTraceColumnarFile(path);
    ASSERT_TRUE(loaded.isOk()) << loaded.message();
    const TraceText &tt = loaded.value();
    EXPECT_EQ(tt.footprint, std::uint64_t{1} << 20);
    EXPECT_EQ(tt.epochFpOps, 500u);
    EXPECT_EQ(tt.declaredEpochs, 3u);
    expectTracesEqual(tt.trace, t);
    fs::remove(path);
}

TEST(ColumnarTrace, EmptyTraceRoundTrips)
{
    const std::string path = tempTracePath("columnar_empty.ctrace");
    const Trace t(SystemShape{1, 1});
    ASSERT_TRUE(writeTraceColumnarFile(t, path).isOk());
    Result<TraceText> loaded = readTraceColumnarFile(path);
    ASSERT_TRUE(loaded.isOk()) << loaded.message();
    EXPECT_EQ(loaded.value().trace.totalOps(), 0u);
    expectTracesEqual(loaded.value().trace, t);
    fs::remove(path);
}

TEST(ColumnarTrace, FormatSniffingTellsFormatsApart)
{
    const std::string cpath = tempTracePath("columnar_sniff.ctrace");
    const std::string tpath = tempTracePath("columnar_sniff.trace");
    const Trace t = extremeTrace();
    ASSERT_TRUE(writeTraceColumnarFile(t, cpath).isOk());
    {
        std::ofstream out(tpath);
        writeTraceText(t, out);
    }
    EXPECT_TRUE(traceFileIsColumnar(cpath));
    EXPECT_FALSE(traceFileIsColumnar(tpath));
    EXPECT_FALSE(traceFileIsColumnar(tempTracePath("absent.ctrace")));
    fs::remove(cpath);
    fs::remove(tpath);
}

TEST(ColumnarTrace, TextAndColumnarDecodeToTheSameTrace)
{
    const std::string cpath = tempTracePath("columnar_cross.ctrace");
    const std::string tpath = tempTracePath("columnar_cross.trace");
    const Trace t = extremeTrace();
    ASSERT_TRUE(writeTraceColumnarFile(t, cpath).isOk());
    {
        std::ofstream out(tpath);
        writeTraceText(t, out);
    }
    Result<TraceText> text = readTraceTextFile(tpath);
    ASSERT_TRUE(text.isOk()) << text.message();
    Result<TraceText> col = readTraceColumnarFile(cpath);
    ASSERT_TRUE(col.isOk()) << col.message();
    expectTracesEqual(text.value().trace, col.value().trace);
    fs::remove(cpath);
    fs::remove(tpath);
}

namespace {

// Byte offsets of the fields the tests below patch: the meta frame
// starts right after the 16-byte file header, its payload after the
// 24-byte frame header, and the op total after the shape (2 x u32)
// and four u64 fields (metadata and the FP-op total).
constexpr std::size_t metaFrameOffset = 16;
constexpr std::size_t metaPayloadOffset = metaFrameOffset + 24;
constexpr std::size_t metaTotalOpsOffset = metaPayloadOffset + 40;

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t
getLe64(const std::string &bytes, std::size_t off)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i)
        v |= std::uint64_t{static_cast<std::uint8_t>(bytes[off + i])}
            << (8 * i);
    return v;
}

void
putLe(std::string &bytes, std::size_t off, std::uint64_t v,
      std::size_t width)
{
    for (std::size_t i = 0; i < width; ++i)
        bytes[off + i] = static_cast<char>((v >> (8 * i)) & 0xffu);
}

/** Re-seal a frame after its payload was patched. */
void
resealFrame(std::string &bytes, std::size_t frame_off)
{
    const std::uint64_t len = getLe64(bytes, frame_off + 8);
    putLe(bytes, frame_off + 16,
          store::crc32(bytes.data() + frame_off + 24, len), 4);
}

} // namespace

TEST(ColumnarTrace, HugeDeclaredOpTotalIsARecoverableError)
{
    // A CRC-valid file whose meta section claims far more ops than
    // the streams carry must be rejected, never sized from: a column
    // sized to 2^61 ops throws length_error, to 2^40 bad_alloc.
    const std::string path = tempTracePath("columnar_total.ctrace");
    ASSERT_TRUE(writeTraceColumnarFile(extremeTrace(), path).isOk());
    const std::string good = readBytes(path);
    ASSERT_EQ(getLe64(good, metaTotalOpsOffset), 22u);
    for (const std::uint64_t total :
         {std::uint64_t{1} << 61, std::uint64_t{1} << 63,
          std::numeric_limits<std::uint64_t>::max()}) {
        std::string bytes = good;
        putLe(bytes, metaTotalOpsOffset, total, 8);
        resealFrame(bytes, metaFrameOffset);
        writeBytes(path, bytes);
        Result<TraceText> loaded = readTraceColumnarFile(path);
        ASSERT_FALSE(loaded.isOk()) << total;
        EXPECT_NE(loaded.message().find("column length disagreement"),
                  std::string::npos)
            << loaded.message();
    }
    fs::remove(path);
}

TEST(ColumnarTrace, HugeStreamOpCountIsARecoverableError)
{
    // With the meta total raised too, a stream's own op count is the
    // only thing left to size from; it must first fit its payload.
    const std::string path = tempTracePath("columnar_nops.ctrace");
    ASSERT_TRUE(writeTraceColumnarFile(extremeTrace(), path).isOk());
    std::string bytes = readBytes(path);
    const std::uint64_t huge = std::uint64_t{1} << 61;
    putLe(bytes, metaTotalOpsOffset, huge, 8);
    resealFrame(bytes, metaFrameOffset);
    // The first stream frame follows the padded meta payload; its
    // nops field sits after the u32 core kind and u32 id.
    const std::uint64_t meta_len = getLe64(bytes, metaFrameOffset + 8);
    const std::size_t stream_off =
        metaPayloadOffset + ((meta_len + 7) & ~std::uint64_t{7});
    putLe(bytes, stream_off + 24 + 8, huge, 8);
    resealFrame(bytes, stream_off);
    writeBytes(path, bytes);
    Result<TraceText> loaded = readTraceColumnarFile(path);
    ASSERT_FALSE(loaded.isOk());
    EXPECT_NE(loaded.message().find("op count exceeds stream payload"),
              std::string::npos)
        << loaded.message();
    fs::remove(path);
}
