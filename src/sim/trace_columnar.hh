/**
 * @file
 * Binary columnar trace file format.
 *
 * The text format (sim/trace) is the archival/interchange form; this
 * is the compact binary one. A columnar file splits every core stream
 * into three columns — op kind (one byte per op), byte address
 * (zigzag-encoded delta varints) and access-site pc (little-endian
 * u16) — the same columns a Trace keeps in memory, framed with the
 * store's CRC discipline so a flipped bit or a torn tail is detected
 * before a single op is replayed:
 *
 *   header:  8-byte magic "sadaptct", u32 version, u32 reserved
 *   frame:   u32 frame magic, u32 section kind, u64 payload length,
 *            u32 crc32(payload), u32 reserved, payload,
 *            zero padding to the next 8-byte boundary
 *
 * Sections appear in a fixed order: one meta section (shape, file
 * metadata, phase names, precomputed op totals), one stream section
 * per core in canonical order (GPEs 0..N-1, then LCPs 0..T-1), and an
 * empty end section. A file that stops before the end section is
 * torn; unlike the append-only store logs there is no salvageable
 * prefix, so torn and corrupt files are rejected outright.
 *
 * The loader reads the whole file into a buffer and decodes each
 * stream section into the trace's own columns; every count it sizes
 * storage from is first checked against the bytes that carry it.
 */

#ifndef SADAPT_SIM_TRACE_COLUMNAR_HH
#define SADAPT_SIM_TRACE_COLUMNAR_HH

#include <cstdint>
#include <string>

#include "common/status.hh"
#include "sim/trace.hh"

namespace sadapt {

/** Columnar file format version (the framing, not the op model). */
inline constexpr std::uint32_t traceColumnarVersion = 1;

/** 8-byte file magic at offset 0. */
inline constexpr char traceColumnarMagic[8] = {'s', 'a', 'd', 'a',
                                               'p', 't', 'c', 't'};

/** Per-frame marker guarding against mid-file desynchronization. */
inline constexpr std::uint32_t traceColumnarFrameMagic = 0x5adac011u;

/** Section kinds, in required file order. */
enum class TraceSection : std::uint32_t
{
    Meta = 1,   //!< shape, metadata, phase names, op totals
    Stream = 2, //!< one core stream's three columns
    End = 3,    //!< empty terminator; absence means a torn file
};

/**
 * Write a trace as a columnar file. Atomicity is not needed (trace
 * files are build artifacts, not logs); a torn write is detected by
 * the reader's framing checks.
 */
[[nodiscard]] Status
writeTraceColumnarFile(const Trace &trace, const std::string &path,
                       std::uint64_t footprint = 0,
                       std::uint64_t epoch_fpops = 0,
                       std::uint64_t declared_epochs = 0);

/**
 * Load a columnar trace file and its metadata. Verifies the header,
 * every section CRC, the canonical section order, column-length
 * agreement with the payloads and the meta totals, op-kind validity
 * and phase-id references; any violation — including a torn tail,
 * trailing garbage or a declared count no payload could hold — is a
 * recoverable error.
 */
[[nodiscard]] Result<TraceText>
readTraceColumnarFile(const std::string &path);

/**
 * True when the file starts with the columnar magic (format sniff for
 * tools accepting either trace format). I/O errors read as false.
 */
bool traceFileIsColumnar(const std::string &path);

} // namespace sadapt

#endif // SADAPT_SIM_TRACE_COLUMNAR_HH
