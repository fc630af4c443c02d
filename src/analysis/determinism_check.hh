/**
 * @file
 * The determinism-contract analyzer of the sadapt-check suite.
 *
 * DESIGN §9–§10 promise byte-identical sweep artifacts across --jobs
 * levels, kill-9 resume drills and warm/cold store runs. This checker
 * enforces the source-level half of that contract in two layers over
 * the symbol tables of analysis/symbols:
 *
 * 1. Symbol-aware lint rules (location-addressed, baselinable):
 *      lint-mutable-global  non-const static-storage state outside
 *                           whitelisted modules
 *      lint-unordered-iter  range-for over an unordered container
 *                           whose body writes a sink or accumulates
 *                           floats (iteration order is seed/ASLR
 *                           dependent)
 *      lint-pointer-order   ordering or keying by pointer value
 *      lint-wallclock       chrono/time reads anywhere in the
 *                           analyzed tree
 *      lint-serve-session-state  non-const static-storage state
 *                           anywhere under a serve/ component: the
 *                           multi-tenant server may share state
 *                           across sessions only via handles injected
 *                           through ServeOptions (DESIGN §14), so a
 *                           serve-layer global is a cross-session
 *                           leak, not merely a determinism risk
 *
 * 2. A cross-TU taint pass (det-taint-<kind>): nondeterminism
 *    sources (wall clock, raw randomness, thread ids, unordered
 *    iteration order, pointer order, mutable globals) are propagated
 *    callee→caller over the call graph until they meet a
 *    deterministic-output sink (journal emitters, EpochStore /
 *    RecordLog writers, metrics snapshots, BENCH json). Findings are
 *    reported at the junction function where a tainted input meets a
 *    sink on a *different* edge, with the full source→sink call
 *    chain attached (Finding::chain), so each flow is reported once
 *    rather than at every caller above it.
 *
 * Legitimate uses are not baselined away but carry scoped rule
 * allowances (determinismAllowances()) with one-line justifications;
 * an allowance both silences the lint finding and stops the taint
 * pass from seeding at that site.
 */

#ifndef SADAPT_ANALYSIS_DETERMINISM_CHECK_HH
#define SADAPT_ANALYSIS_DETERMINISM_CHECK_HH

#include <string>
#include <utility>
#include <vector>

#include "analysis/finding.hh"

namespace sadapt::analysis {

/**
 * A scoped permission for one rule in one module, with the reason it
 * is sound. Matching is by substring on the analyzer-relative path
 * ("common/rng" covers both common/rng.hh and common/rng.cc).
 */
struct RuleAllowance
{
    std::string rule;       //!< "lint-wallclock", ...
    std::string pathPrefix; //!< e.g. "common/rng"
    std::string why;        //!< one-line justification
};

/** The audited allowance table for the sadapt source tree. */
const std::vector<RuleAllowance> &determinismAllowances();

/**
 * Analyze a set of sources as one program. `files` holds
 * (analyzer-relative path, content) pairs; order does not matter
 * (TUs are sorted by path before linking so output is stable).
 */
Report checkDeterminism(
    const std::vector<std::pair<std::string, std::string>> &files);

/**
 * Walk source trees (.cc/.hh/.cpp/.h) and analyze them together.
 * Paths in findings are relative to `root` when under it.
 */
Report checkDeterminismTree(const std::vector<std::string> &dirs,
                            const std::string &root);

} // namespace sadapt::analysis

#endif // SADAPT_ANALYSIS_DETERMINISM_CHECK_HH
