/**
 * @file
 * The golden serve fixture: a tiny deterministic predictor, a fixed
 * mixed traffic script and the `%a` outcome rows a serve run
 * publishes. Shared by the golden pins (tests/test_serve_golden.cc)
 * and the parallel serve tests (tests/test_serve_parallel.cc), so
 * both exercise exactly the same run.
 *
 * The script mixes the three serve families with budgets 8 and 30 (30
 * runs some sessions to the end of their trace), and at least one
 * session returns to a configuration it left earlier.
 */

#ifndef SADAPT_TESTS_SERVE_FIXTURE_HH
#define SADAPT_TESTS_SERVE_FIXTURE_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "adapt/trainer.hh"
#include "common/rng.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"

namespace sadapt::test {

/** The serve suite's tiny deterministic model. */
inline const Predictor &
goldenPredictor()
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

/** Fixed arrivals: (dataset, kernel, arrival tick, epoch budget). */
inline serve::TrafficScript
goldenScript()
{
    struct Row
    {
        const char *dataset;
        const char *kernel;
        std::uint64_t tick;
        std::size_t budget;
    };
    const Row rows[] = {
        {"U1", "spmspv", 0, 30}, {"R02", "spmspm", 0, 8},
        {"R09", "spmspv", 1, 30}, {"P3", "spmspv", 2, 8},
        {"R08", "spmspm", 2, 30}, {"R14", "spmspv", 4, 8},
    };
    serve::TrafficScript script;
    for (const Row &r : rows) {
        serve::SessionSpec s;
        s.id = script.sessions.size();
        s.dataset = r.dataset;
        s.kernel = r.kernel;
        s.arrivalTick = r.tick;
        s.maxEpochs = r.budget;
        script.sessions.push_back(s);
    }
    return script;
}

/** The golden run's options at a window and worker count. */
inline serve::ServeOptions
goldenOptions(unsigned window, unsigned jobs = 1)
{
    serve::ServeOptions so;
    so.sessions = window;
    so.jobs = jobs;
    so.scale = 0.04;
    so.predictor = &goldenPredictor();
    return so;
}

/** The outcome rows, doubles printed with %a so every bit counts. */
inline std::string
outcomeRows(const serve::ServeResult &res)
{
    std::string out;
    char line[512];
    for (const serve::SessionOutcome &o : res.outcomes) {
        std::snprintf(line, sizeof line, "%llu %s %s %zu %u %a %a %a\n",
                      static_cast<unsigned long long>(o.id),
                      o.dataset.c_str(), o.kernel.c_str(), o.epochs,
                      o.reconfigs, o.seconds, o.gflops, o.metricValue);
        out += line;
    }
    return out;
}

} // namespace sadapt::test

#endif // SADAPT_TESTS_SERVE_FIXTURE_HH
