/**
 * @file
 * The determinism guard of the observability layer: attaching a
 * RunObserver (journal + metrics) to a control-loop run must not
 * change a single chosen configuration, with or without fault
 * injection. A null observer costs one branch; a live one is a pure
 * reader.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "adapt/runner.hh"
#include "common/rng.hh"
#include "obs/observer.hh"
#include "sparse/generators.hh"

using namespace sadapt;

namespace {

/** One small trained predictor, shared across this file's tests. */
const Predictor &
sharedPredictor()
{
    static const Predictor pred = [] {
        TrainerOptions opts;
        opts.mode = OptMode::EnergyEfficient;
        opts.includeSpMSpM = false;
        opts.spmspvDims = {256};
        opts.densities = {0.01, 0.04};
        opts.bandwidths = {1e9};
        opts.search.randomSamples = 10;
        opts.search.neighborCap = 12;
        opts.seed = 5;
        Predictor p;
        Rng rng(13);
        p.train(buildTrainingSet(opts), rng);
        return p;
    }();
    return pred;
}

Workload
observedWorkload()
{
    Rng rng(31);
    CsrMatrix a = makeRmat(256, 2200, rng);
    SparseVector x = SparseVector::random(256, 0.5, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 60;
    return makeSpMSpVWorkload("obs-det", a, x, wo);
}

ComparisonOptions
optionsWith(obs::RunObserver *observer)
{
    ComparisonOptions co;
    co.mode = OptMode::EnergyEfficient;
    co.oracleSamples = 8;
    co.policy = Policy(PolicyKind::Hybrid, 0.4);
    co.seed = 3;
    co.observer = observer;
    return co;
}

} // namespace

TEST(ObsDeterminism, SparseAdaptScheduleBitIdenticalWithObserver)
{
    Workload wl = observedWorkload();

    Comparison plain(wl, &sharedPredictor(), optionsWith(nullptr));
    const Schedule &want = plain.sparseAdaptSchedule();

    std::ostringstream journal;
    obs::RunObserver observer;
    observer.attachJournal(journal);
    Comparison observed(wl, &sharedPredictor(),
                        optionsWith(&observer));
    const Schedule &got = observed.sparseAdaptSchedule();

    ASSERT_EQ(got.configs.size(), want.configs.size());
    for (std::size_t e = 0; e < want.configs.size(); ++e)
        EXPECT_EQ(got.configs[e].encode(), want.configs[e].encode())
            << "epoch " << e;

    // And the observer did actually record the run.
    EXPECT_GT(observer.journal()->eventsWritten(),
              want.configs.size());
    EXPECT_GT(observer.metrics().size(), 0u);
}

TEST(ObsDeterminism, RobustScheduleBitIdenticalWithObserverUnderFaults)
{
    Workload wl = observedWorkload();
    const FaultSpec spec = FaultSpec::uniform(0.05, 42);

    auto run = [&](obs::RunObserver *observer) {
        Comparison cmp(wl, &sharedPredictor(), optionsWith(observer));
        FaultInjector injector(spec);
        RobustAdaptOptions ro;
        ReconfigCostModel cost(wl.params);
        return robustSparseAdaptSchedule(
            cmp.db(), sharedPredictor(), optionsWith(nullptr).policy,
            OptMode::EnergyEfficient, cost, cmp.initialConfig(),
            &injector, ro, observer);
    };

    const RobustAdaptResult want = run(nullptr);

    std::ostringstream journal;
    obs::RunObserver observer;
    observer.attachJournal(journal);
    const RobustAdaptResult got = run(&observer);

    ASSERT_EQ(got.schedule.configs.size(),
              want.schedule.configs.size());
    for (std::size_t e = 0; e < want.schedule.configs.size(); ++e)
        EXPECT_EQ(got.schedule.configs[e].encode(),
                  want.schedule.configs[e].encode())
            << "epoch " << e;
    EXPECT_EQ(got.faults.faultsInjected, want.faults.faultsInjected);
    EXPECT_EQ(got.guard.samplesClamped, want.guard.samplesClamped);
    EXPECT_EQ(got.watchdogReverts, want.watchdogReverts);
    EXPECT_GT(observer.journal()->eventsWritten(), 0u);
}
