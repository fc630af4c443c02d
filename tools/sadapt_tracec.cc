/**
 * @file
 * Trace format converter: text <-> columnar, round-trip exact.
 *
 *   sadapt_tracec <input> <output>
 *
 * The direction is sniffed from the input: a file starting with the
 * columnar magic converts to text, anything else parses as the text
 * format and converts to columnar. Both directions carry the file
 * metadata (footprint, epoch FP-op length, declared epoch count) and
 * every op of every stream unchanged, so converting there and back
 * reproduces the original trace bit-for-bit at the op level (the text
 * bytes themselves are canonicalized by the writer).
 *
 * Exit status: 0 on success, 1 on any parse/validation/I/O error
 * (always a diagnostic on stderr, never a crash — malformed inputs
 * are recoverable errors end to end).
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "sim/trace.hh"
#include "sim/trace_columnar.hh"

using namespace sadapt;

namespace {

int
fail(const std::string &message)
{
    std::fprintf(stderr, "sadapt_tracec: %s\n", message.c_str());
    return 1;
}

/** Columnar input -> text output. */
int
toText(const std::string &in_path, const std::string &out_path)
{
    Result<TraceText> loaded = readTraceColumnarFile(in_path);
    if (!loaded.isOk())
        return fail(in_path + ": " + loaded.status().message());
    const TraceText &tt = loaded.value();
    std::ofstream out(out_path);
    if (!out)
        return fail("cannot create " + out_path);
    writeTraceText(tt.trace, out, tt.footprint, tt.epochFpOps,
                   tt.declaredEpochs);
    if (!out.flush())
        return fail("write failed: " + out_path);
    return 0;
}

/** Text input -> columnar output. */
int
toColumnar(const std::string &in_path, const std::string &out_path)
{
    Result<TraceText> parsed = readTraceTextFile(in_path);
    if (!parsed.isOk())
        return fail(in_path + ": " + parsed.status().message());
    const TraceText &tt = parsed.value();
    const Status st =
        writeTraceColumnarFile(tt.trace, out_path, tt.footprint,
                               tt.epochFpOps, tt.declaredEpochs);
    if (!st.isOk())
        return fail(out_path + ": " + st.message());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: sadapt_tracec <input> <output>\n"
                     "  converts text traces to columnar and columnar "
                     "traces to text\n  (direction sniffed from the "
                     "input file magic)\n");
        return 2;
    }
    const std::string in_path = argv[1];
    const std::string out_path = argv[2];
    return traceFileIsColumnar(in_path) ? toText(in_path, out_path)
                                        : toColumnar(in_path, out_path);
}
