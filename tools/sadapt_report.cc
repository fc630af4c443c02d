/**
 * @file
 * sadapt-report: render observability artifacts produced by a
 * sparseadapt_cli / bench run into the per-epoch decision timeline,
 * the reconfiguration summary, epoch-store cache statistics (when the
 * run used --store), the replay-profile cost breakdown, metric
 * roll-ups and an optional Chrome-trace (Perfetto) JSON export.
 *
 *   sadapt_report --journal run.jsonl
 *   sadapt_report --metrics run.metrics --profile
 *   sadapt_report --journal run.jsonl --trace-out run.trace.json
 *   sadapt_report --journal run.jsonl --metrics run.metrics \
 *                 --format=json
 *
 * Exit code: 0 on success, 1 when an input cannot be parsed, 2 on
 * usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/journal.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"

using namespace sadapt;

namespace {

struct Options
{
    std::string journalFile;
    std::string metricsFile;
    std::string traceOutFile;
    bool profile = false;
    bool json = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --journal <file.jsonl>   event journal from a --journal "
        "run\n"
        "  --metrics <file>         metrics snapshot from a --metrics "
        "run\n"
        "  --profile                render the replay-profile cost "
        "breakdown\n"
        "  --format=json            machine-readable report on "
        "stdout\n"
        "  --trace-out <file.json>  also write a Chrome-trace "
        "(Perfetto) export\n"
        "\n"
        "At least one of --journal/--metrics is required;\n"
        "--trace-out needs --journal.\n",
        argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--journal")
            o.journalFile = need(i);
        else if (arg == "--metrics")
            o.metricsFile = need(i);
        else if (arg == "--profile")
            o.profile = true;
        else if (arg == "--format=json" || arg == "--json")
            o.json = true;
        else if (arg == "--trace-out")
            o.traceOutFile = need(i);
        else
            usage(argv[0]);
    }
    if (o.journalFile.empty() && o.metricsFile.empty())
        usage(argv[0]);
    if (!o.traceOutFile.empty() && o.journalFile.empty())
        usage(argv[0]);
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);

    std::vector<obs::JournalEvent> events;
    if (!o.journalFile.empty()) {
        const Result<obs::JournalRead> read =
            obs::readJournalFile(o.journalFile);
        if (!read.isOk()) {
            std::fprintf(stderr, "sadapt_report: %s\n",
                         read.message().c_str());
            return 1;
        }
        if (read.value().truncated) {
            std::fprintf(stderr,
                         "sadapt_report: warning: %s ends in a "
                         "partial record (torn append); using the "
                         "%zu recovered events\n",
                         o.journalFile.c_str(),
                         read.value().events.size());
        }
        events = read.value().events;
    }

    std::vector<obs::MetricSample> metrics;
    if (!o.metricsFile.empty()) {
        const auto read = obs::readMetricsTextFile(o.metricsFile);
        if (!read.isOk()) {
            std::fprintf(stderr, "sadapt_report: %s\n",
                         read.message().c_str());
            return 1;
        }
        metrics = read.value();
    }

    obs::ReportOptions ropts;
    ropts.profile = o.profile;
    if (o.json)
        obs::renderReportJson(events, metrics, ropts, std::cout);
    else
        obs::renderReport(events, metrics, ropts, std::cout);

    if (!o.traceOutFile.empty()) {
        std::ofstream out(o.traceOutFile);
        if (!out) {
            std::fprintf(stderr,
                         "sadapt_report: cannot create %s\n",
                         o.traceOutFile.c_str());
            return 1;
        }
        obs::writeChromeTrace(events, out);
        if (!o.json)
            std::printf("\nchrome trace: %s (load in ui.perfetto.dev "
                        "or chrome://tracing)\n",
                        o.traceOutFile.c_str());
    }
    return 0;
}
