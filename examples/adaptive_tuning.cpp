/**
 * @file
 * Inside the control loop: this example exposes the pieces the
 * quickstart hides. It trains a predictor, then walks one SpMSpM
 * execution epoch by epoch, printing the telemetry the hardware
 * streams back, what the model predicts, and what the hysteresis
 * policy lets through — the Figure 3a feedback loop made visible.
 *
 * Run: ./build/examples/adaptive_tuning
 */

#include <cstdio>

#include "adapt/controllers.hh"
#include "adapt/telemetry.hh"
#include "common/rng.hh"
#include "sparse/generators.hh"

using namespace sadapt;

int
main()
{
    // An SpMSpM workload with strong implicit phases: strips of
    // sparsity separated by dense columns (the Figure 1 pattern).
    Rng rng(3);
    CsrMatrix a = makeStripStructured(160, 0.15, 5, rng);
    WorkloadOptions wopts;
    wopts.epochFpOps = 1500;
    Workload workload = makeSpMSpMWorkload("strips", a, wopts);

    std::printf("training predictor (Power-Performance mode)...\n");
    TrainerOptions topts;
    topts.mode = OptMode::PowerPerformance;
    topts.includeSpMSpV = false;
    topts.spmspmDims = {128};
    topts.densities = {0.01, 0.05};
    topts.bandwidths = {1e9};
    topts.search.randomSamples = 10;
    Predictor predictor;
    Rng train_rng(4);
    predictor.train(buildTrainingSet(topts), train_rng);

    EpochDb db(workload);
    ReconfigCostModel cost(workload.params);
    const Policy policy(PolicyKind::Hybrid, 0.4);
    HwConfig current = baselineConfig();

    std::printf("\n%5s %6s %8s %8s %8s %6s  %s\n", "epoch", "phase",
                "missL1", "bw_rd", "gpeIPC", "MHz",
                "action after this epoch");
    Schedule schedule;
    for (std::size_t e = 0; e < db.numEpochs(); ++e) {
        schedule.configs.push_back(current);
        const EpochRecord &rec = db.epochs(current)[e];
        const HwConfig predicted =
            predictor.predict(current, rec.counters);
        const HwConfig next = policy.apply(
            current, predicted, rec.seconds, cost, false);
        std::string action = "keep";
        if (!(next == current)) {
            action = "switch to " + next.label();
            if (!(next == predicted))
                action += " (policy trimmed the prediction)";
        }
        std::printf("%5zu %6d %8.3f %8.2f %8.3f %6.0f  %s\n", e,
                    rec.phase, rec.counters.l1MissRate,
                    rec.counters.memReadBwUtil, rec.counters.gpeIpc,
                    current.clockHz() / 1e6, action.c_str());
        current = next;
    }

    const auto base = evaluateSchedule(
        db, Schedule::uniform(baselineConfig(), db.numEpochs()), cost,
        OptMode::PowerPerformance, baselineConfig());
    const auto adaptive = evaluateSchedule(
        db, schedule, cost, OptMode::PowerPerformance,
        baselineConfig());
    std::printf("\nstatic baseline : %8.4f GFLOPS %8.3f GFLOPS/W\n",
                base.gflops(), base.gflopsPerWatt());
    std::printf("adaptive        : %8.4f GFLOPS %8.3f GFLOPS/W "
                "(%u reconfigurations, %.1f us of penalties)\n",
                adaptive.gflops(), adaptive.gflopsPerWatt(),
                adaptive.reconfigCount,
                adaptive.reconfigSeconds * 1e6);
    return 0;
}
