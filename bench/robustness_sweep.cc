/**
 * @file
 * Robustness sweep: SparseAdapt under telemetry/command fault
 * injection, with and without the degraded-mode defenses
 * (TelemetryGuard + Watchdog, adapt/guard.hh).
 *
 * Sweeps combined fault rates of 0%, 1%, 5% and 20% (split evenly
 * across drop / corrupt / delay / reconfig-failure), averaged over
 * several injection seeds, and reports energy efficiency retention
 * relative to the fault-free run plus the degraded-mode counters
 * (faults_injected, samples_dropped, samples_clamped,
 * watchdog_reverts).
 *
 * Pass criteria (checked at the end, non-zero exit on violation):
 *  - at a 5% combined fault rate the guarded controller retains at
 *    least 90% of its fault-free efficiency, and
 *  - the unguarded controller retains strictly less than the guarded
 *    one at every non-zero rate (geometric mean across matrices).
 */

#include <array>
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_common.hh"
#include "common/csv.hh"
#include "common/rng.hh"
#include "sparse/suite.hh"

using namespace sadapt;
using namespace sadapt::bench;

namespace {

constexpr double kRates[] = {0.0, 0.01, 0.05, 0.20};
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};

/**
 * Suite SpMSpV workload with fine-grained epochs. The standard bench
 * epoch size keeps the epoch count paper-like (~a dozen), which at a
 * 1-5% fault rate means most runs see zero faults; the sweep instead
 * wants enough control-loop decisions that the rates are actually
 * exercised. Epoch count only changes the control granularity; the
 * underlying trace (and the fault-free physics) is the same.
 */
Workload
sweepWorkload(const std::string &id, MemType l1_type)
{
    CsrMatrix m = makeSuiteMatrix(id, spmspvScale());
    Rng rng(0x5adaull * 31 + m.rows());
    SparseVector x = SparseVector::random(m.cols(), 0.5, rng);
    WorkloadOptions wo;
    wo.l1Type = l1_type;
    wo.epochFpOps = 60;
    return makeSpMSpVWorkload(id, m, x, wo);
}

struct SweepPoint
{
    double metric = 0.0; //!< mean over seeds
    double gflops = 0.0; //!< mean over seeds
    FaultStats faults;
    GuardStats guard;
    std::uint64_t watchdogReverts = 0;
};

/** Mean robust evaluation of one (workload, rate, arm) over seeds. */
SweepPoint
sweepPoint(Comparison &cmp, double combined_rate, bool guarded)
{
    SweepPoint pt;
    std::size_t n = 0;
    for (std::uint64_t seed : kSeeds) {
        // Split the combined rate evenly over the four fault classes.
        const FaultSpec spec =
            FaultSpec::uniform(combined_rate / 4.0, seed);
        const auto r = cmp.sparseAdaptRobust(spec, guarded);
        pt.metric += r.eval.metric(OptMode::EnergyEfficient);
        pt.gflops += r.eval.gflops();
        pt.faults.faultsInjected += r.faults.faultsInjected;
        pt.faults.samplesDropped += r.faults.samplesDropped;
        pt.faults.samplesCorrupted += r.faults.samplesCorrupted;
        pt.faults.samplesDelayed += r.faults.samplesDelayed;
        pt.faults.reconfigFailures += r.faults.reconfigFailures;
        pt.guard.samplesClamped += r.guard.samplesClamped;
        pt.guard.samplesDiscarded += r.guard.samplesDiscarded;
        pt.guard.samplesMissing += r.guard.samplesMissing;
        pt.watchdogReverts += r.watchdogReverts;
        ++n;
        if (combined_rate == 0.0)
            break; // fault-free is deterministic; one run suffices
    }
    pt.metric /= static_cast<double>(n);
    pt.gflops /= static_cast<double>(n);
    return pt;
}

} // namespace

int
main()
{
    printHeader("Robustness sweep: SparseAdapt under fault injection "
                "(SpMSpV, L1 cache, Energy-Efficient)",
                "fault model per DESIGN.md 'Fault model & "
                "degraded-mode operation'");
    const Predictor &pred =
        predictorFor(OptMode::EnergyEfficient, MemType::Cache);
    CsvWriter csv(csvPath("robustness_sweep"));
    BenchReport report("robustness_sweep");
    csv.row({"matrix", "rate", "arm", "gflops_per_watt", "retention",
             "faults_injected", "samples_dropped", "samples_delayed",
             "samples_corrupted", "samples_clamped",
             "samples_discarded", "reconfig_failures",
             "watchdog_reverts"});

    // retention[rate][arm] per matrix; arm 0 = guarded, 1 = unguarded.
    std::map<double, std::array<std::vector<double>, 2>> retention;

    const std::vector<std::string> ids = {"R09", "R11", "R13", "R15"};
    for (const std::string &id : ids) {
        Workload wl = sweepWorkload(id, MemType::Cache);
        Comparison cmp(wl, &pred,
                       defaultComparison(OptMode::EnergyEfficient,
                                         PolicyKind::Hybrid, 0.4));
        // Batch the candidate replays up front so the per-rate
        // evaluations below only serve cache hits.
        prefetchConfigs(cmp, cmp.candidates(), &report);

        Table table;
        table.header({"Rate", "Guarded GF/W", "Ret.", "Unguarded GF/W",
                      "Ret.", "Faults", "Dropped", "Clamped",
                      "Reverts"});
        double base[2] = {0.0, 0.0};
        for (double rate : kRates) {
            SweepPoint pt[2];
            for (int arm = 0; arm < 2; ++arm) {
                pt[arm] = sweepPoint(cmp, rate, arm == 0);
                if (rate == 0.0)
                    base[arm] = pt[arm].metric;
                const double ret = ratio(pt[arm].metric, base[arm]);
                retention[rate][arm].push_back(ret);
                csv.cell(id).cell(rate)
                    .cell(arm == 0 ? "guarded" : "unguarded")
                    .cell(pt[arm].metric).cell(ret)
                    .cell(double(pt[arm].faults.faultsInjected))
                    .cell(double(pt[arm].faults.samplesDropped))
                    .cell(double(pt[arm].faults.samplesDelayed))
                    .cell(double(pt[arm].faults.samplesCorrupted))
                    .cell(double(pt[arm].guard.samplesClamped))
                    .cell(double(pt[arm].guard.samplesDiscarded))
                    .cell(double(pt[arm].faults.reconfigFailures))
                    .cell(double(pt[arm].watchdogReverts));
                csv.endRow();
                report.add("spmspv",
                           str("matrix=", id, ",rate=", rate, ",arm=",
                               arm == 0 ? "guarded" : "unguarded"),
                           pt[arm].gflops, pt[arm].metric);
            }
            table.row({Table::num(100.0 * rate, 0) + "%",
                       Table::num(pt[0].metric, 3),
                       Table::num(retention[rate][0].back(), 3),
                       Table::num(pt[1].metric, 3),
                       Table::num(retention[rate][1].back(), 3),
                       Table::num(double(pt[0].faults.faultsInjected),
                                  0),
                       Table::num(double(pt[0].faults.samplesDropped),
                                  0),
                       Table::num(double(pt[0].guard.samplesClamped),
                                  0),
                       Table::num(double(pt[0].watchdogReverts), 0)});
        }
        std::printf("\n--- %s ---\n", id.c_str());
        table.print();
    }

    std::printf("\nGeometric-mean efficiency retention vs fault-free "
                "(guarded / unguarded):\n");
    bool pass = true;
    for (double rate : kRates) {
        if (rate == 0.0)
            continue;
        const double g = geomean(retention[rate][0]);
        const double u = geomean(retention[rate][1]);
        std::printf("  %4.0f%%: %.3f / %.3f\n", 100.0 * rate, g, u);
        // At very low rates few faults fire and a tie is the expected
        // outcome; the guard must never lose, and must win outright
        // once faults are frequent (>= 5% combined).
        if (u > g + 1e-9) {
            std::printf("  FAIL: unguarded beats guarded at %.0f%%\n",
                        100.0 * rate);
            pass = false;
        }
        if (rate >= 0.05 && u >= g) {
            std::printf("  FAIL: unguarded not strictly worse than "
                        "guarded at %.0f%%\n", 100.0 * rate);
            pass = false;
        }
        if (rate == 0.05 && g < 0.90) {
            std::printf("  FAIL: guarded retention %.3f < 0.90 at "
                        "5%%\n", g);
            pass = false;
        }
    }
    std::printf("\nRobustness criteria: %s\n",
                pass ? "PASS" : "FAIL");
    report.write();
    writeObserverOutputs();
    return pass ? 0 : 1;
}
