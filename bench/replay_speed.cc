/**
 * @file
 * Replay-speed microbench for the perf-regression harness: time the
 * P3 SpMSpV replay inner loop (the hot path every sweep and every
 * control scheme is built from) under the Table 4 Baseline
 * configuration, repeated SPARSEADAPT_REPS times from a cold EpochDb
 * each rep so nothing is memoized across reps.
 *
 * `--format=text|columnar` (default columnar) selects which on-disk
 * trace format the bench round-trips: the workload's trace is
 * serialized once at startup and decoded back to a replay-ready
 * Trace every rep, with the decode seconds recorded separately
 * ("trace_decode_seconds") from the replay wall so the two costs
 * trend independently. The replay itself always runs the same
 * columnar engine path, so GFLOPS are identical across formats — any
 * drift is a correctness failure, not noise.
 *
 * Writes bench_results/BENCH_replay_speed.json; tools/bench_trend
 * takes the best-of-N across committed runs and gates wall-clock
 * regressions against bench/baselines (refusing to compare runs
 * recorded under different formats).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench/bench_common.hh"
#include "common/logging.hh"
#include "sim/trace_columnar.hh"
#include "sparse/suite.hh"

using namespace sadapt;
using namespace sadapt::bench;

namespace {

unsigned
repCount()
{
    const char *env = std::getenv("SPARSEADAPT_REPS");
    if (env == nullptr)
        return 3;
    const long v = std::atol(env);
    return v >= 1 ? static_cast<unsigned>(v) : 1;
}

/** --format=text|columnar; anything else is a usage error. */
std::string
parseFormat(int argc, char **argv)
{
    std::string format = "columnar";
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--format=", 9) == 0) {
            format = arg + 9;
        } else {
            std::fprintf(stderr,
                         "usage: replay_speed [--format=text|columnar]\n");
            std::exit(2);
        }
    }
    if (format != "text" && format != "columnar") {
        std::fprintf(stderr,
                     "replay_speed: unknown --format '%s' "
                     "(expected text or columnar)\n",
                     format.c_str());
        std::exit(2);
    }
    return format;
}

/**
 * Decode the serialized trace back into a replay-ready Trace,
 * returning the host seconds it took. This is the cost the chosen
 * format pays before a single op replays: text pays a full parse,
 * columnar a file read plus one decoding pass over its columns.
 */
double
timedDecode(const std::string &format, const std::string &path,
            std::uint64_t expect_ops)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t ops = 0;
    if (format == "text") {
        Result<TraceText> parsed = readTraceTextFile(path);
        SADAPT_ASSERT(parsed.isOk(), "text trace round-trip failed: " +
                                         parsed.status().message());
        ops = parsed.value().trace.totalOps();
    } else {
        Result<TraceText> loaded = readTraceColumnarFile(path);
        SADAPT_ASSERT(loaded.isOk(),
                      "columnar trace round-trip failed: " +
                          loaded.status().message());
        ops = loaded.value().trace.totalOps();
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    SADAPT_ASSERT(ops == expect_ops,
                  "decoded trace op count does not match the source");
    return wall;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string format = parseFormat(argc, argv);
    printHeader("Replay speed: P3 SpMSpV single-config hot path",
                "perf-regression harness (tools/bench_trend)");
    BenchReport report("replay_speed");
    report.setTraceFormat(format);
    const Workload wl = suiteSpMSpV("P3", MemType::Cache);
    const unsigned reps = repCount();

    // Serialize once (untimed setup); every rep decodes this file.
    std::filesystem::create_directories("bench_results");
    const std::string trace_path =
        "bench_results/replay_speed_trace.tmp";
    if (format == "text") {
        std::ofstream out(trace_path);
        SADAPT_ASSERT(static_cast<bool>(out),
                      "cannot create " + trace_path);
        writeTraceText(wl.trace, out);
    } else {
        const Status st = writeTraceColumnarFile(wl.trace, trace_path);
        SADAPT_ASSERT(st.isOk(), st.message());
    }
    const std::uint64_t total_ops = wl.trace.totalOps();

    Table table;
    table.header({"Rep", "Decode wall (s)", "Replay wall (s)", "GFLOPS",
                  "GFLOPS/W"});
    for (unsigned rep = 0; rep < reps; ++rep) {
        const double decode = timedDecode(format, trace_path,
                                          total_ops);
        report.noteTraceDecode(decode);
        // A fresh Comparison per rep gives a cold EpochDb, so the
        // replay really runs instead of stitching a memoized epoch
        // set. jobs=1 keeps the measurement a pure single-thread
        // inner-loop number.
        ComparisonOptions opts = defaultComparison(
            OptMode::EnergyEfficient, PolicyKind::Conservative);
        opts.jobs = 1;
        opts.store = nullptr; // never warm-start a timing rep
        Comparison cmp(wl, nullptr, opts);
        const auto t0 = std::chrono::steady_clock::now();
        const ScheduleEval eval = cmp.baseline();
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        table.row({std::to_string(rep), Table::num(decode),
                   Table::num(wall), Table::num(eval.gflops()),
                   Table::num(eval.gflopsPerWatt())});
        report.add("spmspv/P3/replay", "baseline", eval.gflops(),
                   eval.gflopsPerWatt());
        report.noteSweep(wall, 1);
    }
    std::filesystem::remove(trace_path);
    table.print();
    report.write();
    writeObserverOutputs();
    return 0;
}
