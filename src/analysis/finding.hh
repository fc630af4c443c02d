/**
 * @file
 * Findings infrastructure of the sadapt-check static analysis suite.
 *
 * Every checker (model verifier, trace/config validator, source lint)
 * reports Finding records keyed by check id and file:line, collected
 * into a Report. A baseline file suppresses known, accepted findings
 * so the suite can gate PRs on *new* violations only.
 */

#ifndef SADAPT_ANALYSIS_FINDING_HH
#define SADAPT_ANALYSIS_FINDING_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.hh"

namespace sadapt::analysis {

/** How bad a finding is; Error findings fail the check run. */
enum class Severity : std::uint8_t
{
    Warning, //!< suspicious but not certainly wrong (dead subtree)
    Error,   //!< violates a machine-checkable invariant
};

/** Human-readable severity name. */
std::string severityName(Severity s);

/** One baseline-file suppression entry with its file line number. */
struct BaselineEntry
{
    std::string key;        //!< "check-id file:line"
    std::uint64_t line = 0; //!< 1-based line in the baseline file
};

/** One diagnostic produced by a checker. */
struct Finding
{
    std::string checkId; //!< e.g. "model-threshold-domain"
    std::string file;    //!< artifact or source path (may be "<input>")
    std::uint64_t line = 0; //!< 1-based; 0 when not line-addressable
    Severity severity = Severity::Error;
    std::string message;

    /** "file:line: [severity] check-id: message". */
    std::string format() const;

    /** The baseline key: "check-id file:line". */
    std::string key() const;
};

/**
 * A collection of findings with baseline suppression and summary
 * formatting. Checkers append; the CLI prints and derives the exit
 * code from errorCount().
 */
class Report
{
  public:
    void
    add(Finding f)
    {
        findingsV.push_back(std::move(f));
    }

    /** Convenience: construct-and-add. */
    void add(std::string check_id, std::string file,
             std::uint64_t line, Severity severity,
             std::string message);

    const std::vector<Finding> &findings() const { return findingsV; }

    std::size_t errorCount() const;
    std::size_t warningCount() const;
    std::size_t suppressedCount() const { return suppressedV; }

    bool
    clean() const
    {
        return errorCount() == 0;
    }

    /**
     * Drop findings whose key() appears in the baseline; remembers
     * how many were suppressed for the summary line.
     */
    void applyBaseline(const std::vector<std::string> &baseline_keys);

    /**
     * Baseline suppression with stale-entry detection: entries that
     * matched no finding are returned so the caller can turn them
     * into errors (a stale baseline hides future regressions behind
     * dead suppressions).
     */
    std::vector<BaselineEntry>
    applyBaseline(const std::vector<BaselineEntry> &entries);

    /** Sort by (file, line, checkId) for stable output. */
    void sort();

    /** Merge another report's findings (and suppressed count). */
    void merge(Report other);

    /** Print all findings plus a one-line summary. */
    void print(std::ostream &out) const;

    /**
     * Machine-readable dump: one JSON object with summary counts and
     * a findings array (rule, file, line, severity, message).
     * Key order and formatting are fixed so output is byte-stable
     * and golden-file testable.
     */
    void printJson(std::ostream &out) const;

  private:
    std::vector<Finding> findingsV;
    std::size_t suppressedV = 0;
};

/**
 * Load a baseline-suppression file: one key() per line, '#' comments
 * and blank lines ignored. A missing file is a recoverable error.
 */
[[nodiscard]] Result<std::vector<std::string>>
loadBaseline(const std::string &path);

/** loadBaseline(), keeping each entry's baseline-file line number. */
[[nodiscard]] Result<std::vector<BaselineEntry>>
loadBaselineEntries(const std::string &path);

} // namespace sadapt::analysis

#endif // SADAPT_ANALYSIS_FINDING_HH
