/**
 * @file
 * Figure 9: effect of predictive-model complexity. Decision trees are
 * trained at depths 2 -> 26, varying the depth of one parameter's
 * tree at a time while the others keep their grid-searched ("original")
 * hyperparameters; SparseAdapt gains over Baseline on SpMSpV (P1 and
 * P3, 50%-dense vector, Power-Performance mode, L1 cache) are
 * reported per depth.
 *
 * Paper-reported anchor: GFLOPS is more sensitive to model complexity
 * than GFLOPS/W (the Power-Performance objective weights performance).
 */

#include <array>
#include <cstdio>

#include "bench/bench_common.hh"
#include "common/csv.hh"
#include "common/rng.hh"

using namespace sadapt;
using namespace sadapt::bench;

int
main()
{
    printHeader("Figure 9: gains vs decision-tree depth "
                "(SpMSpV, Power-Performance, L1 cache)",
                "Pal et al., MICRO'21, Figure 9 / Section 6.3.1");
    const OptMode mode = OptMode::PowerPerformance;

    // Rebuild the training set (same sweep as the cached predictor).
    TrainerOptions topts;
    topts.mode = mode;
    topts.spmspmDims = {128, 256};
    topts.spmspvDims = {256, 512};
    topts.densities = {0.004, 0.016, 0.064};
    topts.bandwidths = {0.1e9, 1e9, 10e9};
    topts.search.randomSamples = 12;
    topts.search.neighborCap = 24;
    topts.seed = 17;
    std::printf("building training set...\n");
    const TrainingSet set = buildTrainingSet(topts);
    std::printf("training set: %zu examples\n", set.size());

    // "Original" hyperparameters from the grid search.
    Predictor original;
    Rng rng(23);
    const auto report = original.train(set, rng);

    CsvWriter csv(csvPath("fig09_model_complexity"));
    csv.row({"matrix", "varied_param", "depth", "gflops_gain",
             "gfw_gain"});
    Table table;
    table.header({"Matrix", "Param", "d=2 GF(x)", "d=26 GF(x)",
                  "d=2 GF/W(x)", "d=26 GF/W(x)"});

    double gf_spread = 0.0, gfw_spread = 0.0;
    int spread_count = 0;
    for (const char *id : {"P1", "P3"}) {
        Workload wl = suiteSpMSpV(id, MemType::Cache);
        EpochDb db(wl);
        ReconfigCostModel cost(wl.params);
        const Policy policy(PolicyKind::Hybrid, 0.4);
        const HwConfig initial = baselineConfig();
        const auto base = evaluateSchedule(
            db, Schedule::uniform(initial, db.numEpochs()), cost,
            mode, initial);

        for (std::size_t pi = 0; pi < numParams; ++pi) {
            double first_gf = 0, last_gf = 0, first_gfw = 0,
                   last_gfw = 0;
            for (std::uint32_t depth : {2u, 4u, 8u, 16u, 26u}) {
                std::array<TreeParams, numParams> params =
                    report.chosen;
                params[pi].maxDepth = depth;
                Predictor pred;
                pred.trainPerParam(set, params);
                const Schedule s = sparseAdaptSchedule(
                    db, pred, policy, mode, cost, initial);
                const auto ev =
                    evaluateSchedule(db, s, cost, mode, initial);
                const double gf = ratio(ev.gflops(), base.gflops());
                const double gfw = ratio(ev.gflopsPerWatt(),
                                         base.gflopsPerWatt());
                csv.cell(id).cell(paramName(allParams()[pi]))
                    .cell(static_cast<long long>(depth))
                    .cell(gf).cell(gfw);
                csv.endRow();
                if (depth == 2) {
                    first_gf = gf;
                    first_gfw = gfw;
                }
                if (depth == 26) {
                    last_gf = gf;
                    last_gfw = gfw;
                }
            }
            gf_spread += std::abs(last_gf - first_gf) /
                std::max(first_gf, 1e-9);
            gfw_spread += std::abs(last_gfw - first_gfw) /
                std::max(first_gfw, 1e-9);
            ++spread_count;
            table.row({id, paramName(allParams()[pi]),
                       Table::gain(first_gf), Table::gain(last_gf),
                       Table::gain(first_gfw), Table::gain(last_gfw)});
        }
    }
    table.print();
    std::printf("\nMean relative spread across depths: GFLOPS %.3f, "
                "GFLOPS/W %.3f\n",
                gf_spread / spread_count, gfw_spread / spread_count);
    std::printf("(paper: GFLOPS more sensitive to model complexity "
                "than GFLOPS/W)\n");
    return 0;
}
