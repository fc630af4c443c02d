/**
 * @file
 * Extension ablation (Section 7, "Bridging the Gap with Oracle"): the
 * paper proposes using telemetry from multiple past epochs to close
 * the remaining gap to Ideal Greedy / Oracle. This bench compares the
 * base single-epoch SparseAdapt against the implemented history
 * (level + trend) predictor, both measured against Ideal Greedy on
 * SpMSpV workloads with strong implicit phases.
 *
 * Both predictors are trained on sequence data from P1/P2 and
 * evaluated on P3 and R10/R14 (held out), Energy-Efficient mode.
 */

#include <cstdio>

#include "adapt/history.hh"
#include "bench/bench_common.hh"
#include "common/csv.hh"
#include "common/rng.hh"
#include "sparse/suite.hh"

using namespace sadapt;
using namespace sadapt::bench;

int
main()
{
    printHeader("Extension ablation: history-based prediction "
                "(Section 7)",
                "Pal et al., MICRO'21, Section 7 (future work, "
                "implemented here)");
    const OptMode mode = OptMode::EnergyEfficient;
    const Predictor &base_pred = predictorFor(mode, MemType::Cache);

    // Train the history predictor on sequence data from P1 and P2.
    Rng rng(31);
    TrainingSet hist_set;
    bool first = true;
    for (const char *id : {"P1", "P2"}) {
        Workload wl = suiteSpMSpV(id, MemType::Cache);
        EpochDb db(wl);
        TrainingSet part =
            buildHistoryTrainingSet(db, mode, 10, rng);
        if (first) {
            hist_set = std::move(part);
            first = false;
        } else {
            mergeTrainingSets(hist_set, part);
        }
    }
    std::printf("history training set: %zu examples\n",
                hist_set.size());
    HistoryPredictor hist_pred;
    TreeParams tp;
    tp.maxDepth = 12;
    tp.minSamplesLeaf = 4;
    hist_pred.train(hist_set, tp);

    CsvWriter csv(csvPath("ablation_history"));
    csv.row({"matrix", "scheme", "gfw_vs_baseline",
             "fraction_of_greedy"});
    Table table;
    table.header({"Matrix", "SA GF/W(x)", "SA+history GF/W(x)",
                  "Greedy GF/W(x)", "SA/greedy", "hist/greedy"});

    std::vector<double> base_frac, hist_frac;
    for (const char *id : {"P3", "R10", "R14"}) {
        Workload wl = suiteSpMSpV(id, MemType::Cache);
        EpochDb db(wl);
        ReconfigCostModel cost(wl.params);
        const Policy policy(PolicyKind::Hybrid, 0.4);
        const HwConfig initial = baselineConfig();
        const auto baseline = evaluateSchedule(
            db, Schedule::uniform(initial, db.numEpochs()), cost,
            mode, initial);

        Comparison cmp(wl, &base_pred,
                       defaultComparison(mode, PolicyKind::Hybrid,
                                         0.4));
        const auto sa = cmp.sparseAdapt();
        const auto greedy = cmp.idealGreedy();
        const Schedule hist_s = sparseAdaptHistorySchedule(
            db, hist_pred, policy, mode, cost, initial);
        const auto hist = evaluateSchedule(db, hist_s, cost, mode,
                                           initial);

        auto eff = [&](const ScheduleEval &e) {
            return ratio(e.gflopsPerWatt(),
                         baseline.gflopsPerWatt());
        };
        base_frac.push_back(
            ratio(sa.gflopsPerWatt(), greedy.gflopsPerWatt()));
        hist_frac.push_back(
            ratio(hist.gflopsPerWatt(), greedy.gflopsPerWatt()));
        table.row({id, Table::gain(eff(sa)), Table::gain(eff(hist)),
                   Table::gain(eff(greedy)),
                   Table::num(base_frac.back(), 3),
                   Table::num(hist_frac.back(), 3)});
        csv.cell(id).cell("sparseadapt").cell(eff(sa))
            .cell(base_frac.back());
        csv.endRow();
        csv.cell(id).cell("history").cell(eff(hist))
            .cell(hist_frac.back());
        csv.endRow();
    }
    table.print();
    std::printf("\nFraction of Ideal Greedy efficiency achieved "
                "(geomean): base %.3f, +history %.3f\n",
                geomean(base_frac), geomean(hist_frac));
    std::printf("(the paper proposes history to close this gap; no "
                "quantitative anchor is reported)\n");
    return 0;
}
