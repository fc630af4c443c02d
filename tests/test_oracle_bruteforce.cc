/**
 * @file
 * Brute-force validation of the Oracle schedulers: on tiny problems
 * (few epochs, few candidates) the energy DP must match exhaustive
 * enumeration exactly, and the Pareto label DP for T^2*E must match
 * it up to frontier-thinning tolerance.
 */

#include <gtest/gtest.h>

#include "adapt/controllers.hh"
#include "common/rng.hh"
#include "sparse/generators.hh"

using namespace sadapt;

namespace {

Workload
tinyWorkload(std::uint64_t epoch_fp)
{
    static Rng rng(51);
    static const CsrMatrix a = makeRmat(128, 1200, rng);
    static const SparseVector x = SparseVector::random(128, 0.5, rng);
    WorkloadOptions wo;
    wo.epochFpOps = epoch_fp;
    return makeSpMSpVWorkload("tiny", a, x, wo);
}

/** Enumerate every schedule over the candidates; return the best by
 * the given objective (lower is better). */
template <typename Objective>
std::pair<Schedule, double>
bruteForce(EpochDb &db, const std::vector<HwConfig> &candidates,
           const ReconfigCostModel &cost, OptMode mode,
           const HwConfig &initial, Objective objective)
{
    const std::size_t n = db.numEpochs();
    const std::size_t k = candidates.size();
    std::size_t total = 1;
    for (std::size_t e = 0; e < n; ++e)
        total *= k;
    Schedule best;
    double best_obj = std::numeric_limits<double>::infinity();
    for (std::size_t code = 0; code < total; ++code) {
        Schedule s;
        std::size_t c = code;
        for (std::size_t e = 0; e < n; ++e) {
            s.configs.push_back(candidates[c % k]);
            c /= k;
        }
        const auto ev = evaluateSchedule(db, s, cost, mode, initial);
        const double obj = objective(ev);
        if (obj < best_obj) {
            best_obj = obj;
            best = s;
        }
    }
    return {best, best_obj};
}

} // namespace

TEST(OracleBruteForce, EnergyDpIsExactlyOptimal)
{
    Workload wl = tinyWorkload(400); // few epochs
    EpochDb db(wl);
    ReconfigCostModel cost(wl.params);
    ConfigSpace space(MemType::Cache);
    Rng rng(1);
    const std::vector<HwConfig> candidates = space.sample(3, rng);
    const HwConfig initial = baselineConfig();
    ASSERT_LE(db.numEpochs(), 8u) << "keep brute force tractable";

    const Schedule dp = oracleSchedule(
        db, candidates, OptMode::EnergyEfficient, cost, initial);
    const auto dp_ev = evaluateSchedule(
        db, dp, cost, OptMode::EnergyEfficient, initial);

    auto [bf, bf_energy] = bruteForce(
        db, candidates, cost, OptMode::EnergyEfficient, initial,
        [](const ScheduleEval &ev) { return ev.energy; });
    EXPECT_NEAR(dp_ev.energy, bf_energy, bf_energy * 1e-12);
}

TEST(OracleBruteForce, ParetoDpNearOptimalForTSquaredE)
{
    Workload wl = tinyWorkload(400);
    EpochDb db(wl);
    ReconfigCostModel cost(wl.params);
    ConfigSpace space(MemType::Cache);
    Rng rng(2);
    const std::vector<HwConfig> candidates = space.sample(3, rng);
    const HwConfig initial = baselineConfig();

    const Schedule dp = oracleSchedule(
        db, candidates, OptMode::PowerPerformance, cost, initial);
    const auto dp_ev = evaluateSchedule(
        db, dp, cost, OptMode::PowerPerformance, initial);
    const double dp_obj =
        dp_ev.seconds * dp_ev.seconds * dp_ev.energy;

    auto [bf, bf_obj] = bruteForce(
        db, candidates, cost, OptMode::PowerPerformance, initial,
        [](const ScheduleEval &ev) {
            return ev.seconds * ev.seconds * ev.energy;
        });
    // Frontier thinning caps labels at 24 per node; with 3 candidates
    // the frontier never thins, so this should be exact too.
    EXPECT_NEAR(dp_obj, bf_obj, bf_obj * 1e-9);
}

TEST(OracleBruteForce, GreedyNeverBeatsOracleOnItsObjective)
{
    Workload wl = tinyWorkload(300);
    EpochDb db(wl);
    ReconfigCostModel cost(wl.params);
    ConfigSpace space(MemType::Cache);
    Rng rng(3);
    const std::vector<HwConfig> candidates = space.sample(4, rng);
    const HwConfig initial = baselineConfig();

    const Schedule greedy = idealGreedySchedule(
        db, candidates, OptMode::EnergyEfficient, cost, initial);
    const Schedule oracle = oracleSchedule(
        db, candidates, OptMode::EnergyEfficient, cost, initial);
    const auto g_ev = evaluateSchedule(
        db, greedy, cost, OptMode::EnergyEfficient, initial);
    const auto o_ev = evaluateSchedule(
        db, oracle, cost, OptMode::EnergyEfficient, initial);
    EXPECT_LE(o_ev.energy, g_ev.energy * (1.0 + 1e-12));
}
