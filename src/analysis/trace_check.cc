#include "analysis/trace_check.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "sim/transmuter.hh"

namespace sadapt::analysis {

namespace {

/**
 * Check one op stream's addresses and collect its phase-marker
 * sequence. Address findings are aggregated per stream (a trace can
 * hold millions of ops) and report the first offending op.
 */
void
checkStream(const StreamView &ops, const std::string &core,
            const TraceText &tt, const std::string &name,
            std::vector<Addr> &phase_seq, Report &report)
{
    std::uint64_t bad_mem = 0, bad_spm = 0;
    std::uint64_t first_bad_mem = 0, first_bad_spm = 0;
    Addr first_mem_addr = 0, first_spm_addr = 0;
    for (std::size_t i = 0; i < ops.size; ++i) {
        const TraceOp op = ops.op(i);
        if (op.kind == OpKind::Phase) {
            phase_seq.push_back(op.addr);
            continue;
        }
        if (isMemKind(op.kind) && tt.footprint > 0 &&
            op.addr >= tt.footprint) {
            if (bad_mem++ == 0) {
                first_bad_mem = i;
                first_mem_addr = op.addr;
            }
        }
        if ((op.kind == OpKind::SpmLoad ||
             op.kind == OpKind::SpmStore) &&
            op.addr >= spmBankBytes) {
            if (bad_spm++ == 0) {
                first_bad_spm = i;
                first_spm_addr = op.addr;
            }
        }
    }
    if (bad_mem > 0) {
        report.add("trace-addr-range", name, 0, Severity::Error,
                   str(core, ": ", bad_mem, " memory op(s) outside "
                       "the declared footprint of ", tt.footprint,
                       " bytes (first: op ", first_bad_mem,
                       ", addr ", first_mem_addr, ")"));
    }
    if (bad_spm > 0) {
        report.add("trace-spm-range", name, 0, Severity::Error,
                   str(core, ": ", bad_spm, " scratchpad op(s) "
                       "outside the ", spmBankBytes,
                       "-byte SPM bank (first: op ", first_bad_spm,
                       ", addr ", first_spm_addr, ")"));
    }
}

} // namespace

Report
checkTrace(const TraceText &tt, const std::string &name)
{
    Report report;
    const Trace &trace = tt.trace;
    const SystemShape &shape = trace.shape();

    if (trace.totalOps() == 0) {
        report.add("trace-empty", name, 0, Severity::Warning,
                   "trace contains no operations");
    }

    // Per-stream address checks + phase sequences. Every core must
    // see the same barrier sequence: each phase id exactly once, in
    // ascending order (beginPhase() semantics).
    std::vector<std::vector<Addr>> sequences;
    for (std::uint32_t g = 0; g < shape.numGpes(); ++g) {
        sequences.emplace_back();
        checkStream(trace.gpeStream(g), str("gpe ", g), tt, name,
                    sequences.back(), report);
    }
    for (std::uint32_t t = 0; t < shape.tiles; ++t) {
        sequences.emplace_back();
        checkStream(trace.lcpStream(t), str("lcp ", t), tt, name,
                    sequences.back(), report);
    }

    const std::size_t num_phases = trace.phaseNames().size();
    std::vector<Addr> expected(num_phases);
    for (std::size_t i = 0; i < num_phases; ++i)
        expected[i] = i;
    for (std::size_t s = 0; s < sequences.size(); ++s) {
        if (sequences[s] != expected) {
            const std::string core = s < shape.numGpes()
                ? str("gpe ", s)
                : str("lcp ", s - shape.numGpes());
            report.add(
                "trace-phase-consistency", name, 0, Severity::Error,
                str(core, " sees ", sequences[s].size(),
                    " phase marker(s); every core must see the ",
                    num_phases,
                    " declared phases exactly once, in order"));
        }
    }

    // Epoch accounting: the replay engine closes an epoch every
    // epochFpOps * numGpes FP-ops and flushes a trailing partial
    // epoch, so the epoch count is derivable from the FP-op total.
    if (tt.epochFpOps > 0 && tt.declaredEpochs > 0) {
        const auto flops =
            static_cast<std::uint64_t>(trace.totalFlops());
        const std::uint64_t target = tt.epochFpOps * shape.numGpes();
        const std::uint64_t expected_epochs =
            std::max<std::uint64_t>(1, (flops + target - 1) / target);
        if (expected_epochs != tt.declaredEpochs) {
            report.add(
                "trace-epoch-count", name, 0, Severity::Error,
                str("header declares ", tt.declaredEpochs,
                    " epoch(s) but ", flops, " FP-ops at ",
                    tt.epochFpOps, " FP-ops/GPE/epoch over ",
                    shape.numGpes(), " GPEs give ", expected_epochs));
        }
    }

    report.sort();
    return report;
}

Report
checkTraceFile(const std::string &path)
{
    auto parsed = readTraceTextFile(path);
    if (!parsed) {
        Report report;
        report.add("trace-parse", path, 0, Severity::Error,
                   parsed.message());
        return report;
    }
    return checkTrace(parsed.value(), path);
}

} // namespace sadapt::analysis
