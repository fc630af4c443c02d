/**
 * @file
 * Replay-speed microbench for the perf-regression harness: time the
 * P3 SpMSpV replay inner loop (the hot path every sweep and every
 * control scheme is built from) under the Table 4 Baseline
 * configuration, repeated SPARSEADAPT_REPS times from a cold EpochDb
 * each rep so nothing is memoized across reps.
 *
 * Writes bench_results/BENCH_replay_speed.json; tools/bench_trend
 * takes the best-of-N across committed runs and gates wall-clock
 * regressions against bench/baselines.
 */

#include <chrono>
#include <cstdlib>
#include <string>

#include "bench/bench_common.hh"
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

} // namespace

int
main()
{
    printHeader("Replay speed: P3 SpMSpV single-config hot path",
                "perf-regression harness (tools/bench_trend)");
    BenchReport report("replay_speed");
    const Workload wl = suiteSpMSpV("P3", MemType::Cache);
    const unsigned reps = repCount();

    Table table;
    table.header({"Rep", "Replay wall (s)", "GFLOPS", "GFLOPS/W"});
    for (unsigned rep = 0; rep < reps; ++rep) {
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
        table.row({std::to_string(rep), Table::num(wall),
                   Table::num(eval.gflops()),
                   Table::num(eval.gflopsPerWatt())});
        report.add("spmspv/P3/replay", "baseline", eval.gflops(),
                   eval.gflopsPerWatt());
        report.noteSweep(wall, 1);
    }
    table.print();
    report.write();
    writeObserverOutputs();
    return 0;
}
