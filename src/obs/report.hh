/**
 * @file
 * Rendering of observability artifacts (journal + metrics snapshot)
 * into the human-readable report and the Chrome-trace export that
 * tools/sadapt_report.cc serves. Library functions so tests can
 * golden-file the output without spawning the CLI.
 */

#ifndef SADAPT_OBS_REPORT_HH
#define SADAPT_OBS_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/journal.hh"
#include "obs/metrics.hh"

namespace sadapt::obs {

/** Rendering switches of the full report. */
struct ReportOptions
{
    /** Render the replay-profile cost breakdown (profile/ metrics). */
    bool profile = false;
};

/**
 * Per-epoch decision timeline: every epoch on one line, with the
 * predictions, hysteresis decisions, reconfigurations and guard /
 * watchdog activity of that epoch indented beneath it.
 */
void renderTimeline(const std::vector<JournalEvent> &events,
                    std::ostream &out);

/**
 * Reconfiguration summary table: per parameter, how many switches the
 * predictor proposed and how many the hysteresis policy accepted or
 * vetoed, plus the applied-reconfiguration totals.
 */
void renderReconfigSummary(const std::vector<JournalEvent> &events,
                           std::ostream &out);

/** Metric roll-ups grouped by top-level component. */
void renderMetricRollups(const std::vector<MetricSample> &metrics,
                         std::ostream &out);

/**
 * Epoch-store cache statistics, rendered from "store" journal events
 * when present and from store/ metric samples otherwise. Returns
 * whether anything was rendered: a run without a store (no store
 * events, no store/ metrics) produces no section at all, keeping
 * store-less reports byte-identical to pre-store builds.
 */
bool renderStoreSection(const std::vector<JournalEvent> &events,
                        const std::vector<MetricSample> &metrics,
                        std::ostream &out);

/**
 * Replay-profile cost breakdown rendered from profile/ metric samples
 * (exported per replay by the simulator's deterministic profiler):
 * op-kind mix, per-component event tallies, per-phase attribution and
 * the attributed-coverage line. Returns whether anything was rendered
 * (false when no profile/ samples are present).
 */
bool renderProfileSection(const std::vector<MetricSample> &metrics,
                          std::ostream &out);

/**
 * The full report: run header, timeline, reconfiguration summary,
 * store/profile sections (when their inputs are present) and metric
 * roll-ups. Any input may be empty.
 */
void renderReport(const std::vector<JournalEvent> &events,
                  const std::vector<MetricSample> &metrics,
                  const ReportOptions &opts, std::ostream &out);

/** renderReport() with default options. */
void renderReport(const std::vector<JournalEvent> &events,
                  const std::vector<MetricSample> &metrics,
                  std::ostream &out);

/**
 * Machine-readable report: the same content as renderReport() as one
 * JSON document, mirroring the `sadapt_check --format=json` idiom
 * (top-level "version", fixed two-space indentation, name-sorted
 * metric entries). Byte-stable: identical inputs produce identical
 * bytes, so the output can be golden-filed and diffed across runs.
 */
void renderReportJson(const std::vector<JournalEvent> &events,
                      const std::vector<MetricSample> &metrics,
                      const ReportOptions &opts, std::ostream &out);

/**
 * Chrome-trace (chrome://tracing / Perfetto "traceEvents") JSON:
 * epochs become duration ("X") slices on a virtual track and applied
 * reconfigurations become instant ("i") events, with simulated time
 * mapped to microseconds.
 */
void writeChromeTrace(const std::vector<JournalEvent> &events,
                      std::ostream &out);

} // namespace sadapt::obs

#endif // SADAPT_OBS_REPORT_HH
