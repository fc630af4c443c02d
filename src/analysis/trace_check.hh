/**
 * @file
 * Static validator for operation trace files.
 *
 * The text trace parser (sim/trace) already rejects syntactically
 * broken files — bad headers, unknown kinds, out-of-range core ids,
 * non-monotone timestamps. This checker layers the semantic
 * invariants the timing engine assumes on top:
 *
 *  - memory-op addresses inside the declared address-space footprint
 *  - scratchpad-op addresses inside one SPM bank
 *  - the same explicit-phase barrier sequence on every core (the
 *    replay engine deadlocks or misbarriers otherwise)
 *  - the declared epoch count consistent with the trace's FP-op
 *    total and the declared FP-op epoch length (Section 4 epochs)
 */

#ifndef SADAPT_ANALYSIS_TRACE_CHECK_HH
#define SADAPT_ANALYSIS_TRACE_CHECK_HH

#include <string>

#include "analysis/finding.hh"
#include "sim/trace.hh"

namespace sadapt::analysis {

/** Semantic checks on a parsed trace; `name` labels findings. */
Report checkTrace(const TraceText &tt, const std::string &name);

/** Parse + validate a trace file; parse errors become findings. */
Report checkTraceFile(const std::string &path);

} // namespace sadapt::analysis

#endif // SADAPT_ANALYSIS_TRACE_CHECK_HH
