/**
 * @file
 * Methodology validation: how close is the epoch-stitching evaluation
 * (the paper's artifact methodology, Appendix A.7) to ground-truth
 * live execution with mid-run reconfiguration? For each workload we
 * build the Energy-Efficient oracle schedule via stitching, then
 * replay it with Transmuter::runSchedule — real cache-state
 * carryover, real flushes, real clock-domain switches — and report
 * the live/stitched time and energy ratios. Values near 1.0 validate
 * the assumption that FP-op-aligned epoch segments compose.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "common/csv.hh"
#include "common/rng.hh"
#include "sparse/suite.hh"

using namespace sadapt;
using namespace sadapt::bench;

int
main()
{
    printHeader("Methodology validation: stitched vs live dynamic "
                "execution",
                "Pal et al., MICRO'21, Appendix A.7 (evaluation "
                "methodology)");
    CsvWriter csv(csvPath("ablation_stitching"));
    csv.row({"workload", "switches", "time_ratio_live_over_stitched",
             "energy_ratio_live_over_stitched"});

    Table table;
    table.header({"Workload", "Epochs", "Switches", "T live/stitch",
                  "E live/stitch"});
    std::vector<double> t_ratios, e_ratios;
    for (const char *id : {"P1", "P3", "R10", "R12", "R16"}) {
        Workload wl = suiteSpMSpV(id, MemType::Cache);
        EpochDb db(wl);
        Transmuter sim(wl.params);
        ReconfigCostModel cost(wl.params);
        ConfigSpace space(MemType::Cache);
        Rng rng(3);
        std::vector<HwConfig> candidates = space.sample(10, rng);
        candidates.push_back(baselineConfig());
        // A schedule that genuinely switches (the oracle often settles
        // on one config at this scale): alternate the two best static
        // candidates every three epochs, exercising real flushes and
        // clock-domain changes.
        HwConfig first = candidates[0], second = candidates[1];
        double m1 = -1.0, m2 = -1.0;
        for (const HwConfig &c : candidates) {
            const SimResult &r = db.result(c);
            const double m = metricValue(OptMode::EnergyEfficient,
                                         r.totalFlops(),
                                         r.totalSeconds(),
                                         r.totalEnergy());
            if (m > m1) {
                second = first;
                m2 = m1;
                first = c;
                m1 = m;
            } else if (m > m2) {
                second = c;
                m2 = m;
            }
        }
        Schedule s;
        for (std::size_t e = 0; e < db.numEpochs(); ++e)
            s.configs.push_back((e / 3) % 2 ? second : first);
        const auto stitched = evaluateSchedule(
            db, s, cost, OptMode::EnergyEfficient,
            s.configs.front());
        const SimResult live =
            sim.runSchedule(wl.trace, s, cost, true);
        const double tr = ratio(live.totalSeconds(),
                                stitched.seconds);
        const double er = ratio(live.totalEnergy(), stitched.energy);
        t_ratios.push_back(tr);
        e_ratios.push_back(er);
        table.row({id, Table::num(db.numEpochs(), 0),
                   Table::num(s.switchCount(), 0), Table::num(tr, 3),
                   Table::num(er, 3)});
        csv.cell(id).cell(static_cast<long long>(s.switchCount()))
            .cell(tr).cell(er);
        csv.endRow();
    }
    table.print();
    std::printf("\nGeometric-mean comparisons:\n");
    printPaperComparison("live/stitched time ratio",
                         geomean(t_ratios),
                         "~1.0x (methodology assumption)");
    printPaperComparison("live/stitched energy ratio",
                         geomean(e_ratios),
                         "~1.0x (methodology assumption)");
    return 0;
}
