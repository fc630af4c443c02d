#include "adapt/controllers.hh"

#include <algorithm>
#include <cmath>

#include "adapt/session.hh"
#include "adapt/telemetry.hh"
#include "common/logging.hh"

namespace sadapt {

HwConfig
idealStaticConfig(EpochDb &db, std::span<const HwConfig> candidates,
                  OptMode mode)
{
    SADAPT_ASSERT(!candidates.empty(), "no candidates");
    db.ensure(candidates);
    HwConfig best = candidates.front();
    double best_metric = -1.0;
    for (const HwConfig &cfg : candidates) {
        const SimResult &res = db.result(cfg);
        const double m = metricValue(mode, res.totalFlops(),
                                     res.totalSeconds(),
                                     res.totalEnergy());
        if (m > best_metric) {
            best_metric = m;
            best = cfg;
        }
    }
    return best;
}

Schedule
idealGreedySchedule(EpochDb &db, std::span<const HwConfig> candidates,
                    OptMode mode, const ReconfigCostModel &cost_model,
                    const HwConfig &initial)
{
    SADAPT_ASSERT(!candidates.empty(), "no candidates");
    db.ensure(candidates);
    const bool ee = mode == OptMode::EnergyEfficient;
    const std::size_t num_epochs = db.numEpochs();
    Schedule schedule;
    schedule.configs.reserve(num_epochs);
    HwConfig current = initial;
    for (std::size_t e = 0; e < num_epochs; ++e) {
        HwConfig best = current;
        double best_metric = -1.0;
        for (const HwConfig &cfg : candidates) {
            const EpochRecord &rec = db.epochs(cfg)[e];
            const ReconfigCost rc = cost_model.cost(current, cfg, ee);
            const double m = metricValue(
                mode, rec.flops, rec.seconds + rc.seconds,
                rec.totalEnergy() + rc.energy);
            if (m > best_metric) {
                best_metric = m;
                best = cfg;
            }
        }
        schedule.configs.push_back(best);
        current = best;
    }
    return schedule;
}

namespace {

/** A partial-schedule label for the Pareto oracle DP. */
struct Label
{
    Seconds t;
    Joules e;
    std::int32_t prevCandidate; //!< candidate index at epoch-1
    std::int32_t prevLabel;     //!< label index within that candidate
};

/** Keep only Pareto-nondominated (t, e) labels, bounded in count. */
void
pruneLabels(std::vector<Label> &labels, std::size_t cap)
{
    std::sort(labels.begin(), labels.end(),
              [](const Label &a, const Label &b) {
                  return a.t != b.t ? a.t < b.t : a.e < b.e;
              });
    std::vector<Label> kept;
    double best_e = std::numeric_limits<double>::infinity();
    for (const Label &l : labels) {
        if (l.e < best_e - 1e-18) {
            kept.push_back(l);
            best_e = l.e;
        }
    }
    if (kept.size() > cap) {
        // Thin uniformly along the frontier to bound state.
        std::vector<Label> thinned;
        for (std::size_t i = 0; i < cap; ++i)
            thinned.push_back(
                kept[i * (kept.size() - 1) / (cap - 1)]);
        kept = std::move(thinned);
    }
    labels = std::move(kept);
}

Schedule
oracleEnergy(EpochDb &db, std::span<const HwConfig> candidates,
             const ReconfigCostModel &cost_model,
             const HwConfig &initial)
{
    // Additive objective: plain DP over the epoch x candidate DAG.
    const std::size_t num_epochs = db.numEpochs();
    const std::size_t n = candidates.size();
    std::vector<std::vector<Joules>> cost(
        num_epochs, std::vector<Joules>(n));
    std::vector<std::vector<std::int32_t>> back(
        num_epochs, std::vector<std::int32_t>(n, -1));

    // Memoized pairwise transition energies.
    std::vector<std::vector<Joules>> trans(n, std::vector<Joules>(n));
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            trans[i][j] =
                cost_model.cost(candidates[i], candidates[j], true)
                    .energy;

    for (std::size_t c = 0; c < n; ++c) {
        cost[0][c] =
            cost_model.cost(initial, candidates[c], true).energy +
            db.epochs(candidates[c])[0].totalEnergy();
    }
    for (std::size_t e = 1; e < num_epochs; ++e) {
        for (std::size_t c = 0; c < n; ++c) {
            const Joules epoch_e =
                db.epochs(candidates[c])[e].totalEnergy();
            Joules best = std::numeric_limits<double>::infinity();
            std::int32_t best_prev = -1;
            for (std::size_t p = 0; p < n; ++p) {
                const Joules total =
                    cost[e - 1][p] + trans[p][c] + epoch_e;
                if (total < best) {
                    best = total;
                    best_prev = static_cast<std::int32_t>(p);
                }
            }
            cost[e][c] = best;
            back[e][c] = best_prev;
        }
    }
    std::size_t final_c = 0;
    for (std::size_t c = 1; c < n; ++c)
        if (cost[num_epochs - 1][c] < cost[num_epochs - 1][final_c])
            final_c = c;

    Schedule schedule;
    schedule.configs.assign(num_epochs, initial);
    std::int32_t c = static_cast<std::int32_t>(final_c);
    for (std::size_t e = num_epochs; e-- > 0;) {
        schedule.configs[e] = candidates[c];
        c = back[e][c];
    }
    return schedule;
}

Schedule
oraclePowerPerf(EpochDb &db, std::span<const HwConfig> candidates,
                const ReconfigCostModel &cost_model,
                const HwConfig &initial)
{
    // Minimize T^2 * E: non-additive, so carry a Pareto frontier of
    // (T, E) partial sums per (epoch, candidate) node.
    constexpr std::size_t label_cap = 24;
    const std::size_t num_epochs = db.numEpochs();
    const std::size_t n = candidates.size();

    std::vector<std::vector<ReconfigCost>> trans(
        n, std::vector<ReconfigCost>(n));
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            trans[i][j] = cost_model.cost(candidates[i],
                                          candidates[j], false);

    // labels[e][c] -> Pareto set of partial (T, E).
    std::vector<std::vector<std::vector<Label>>> labels(
        num_epochs, std::vector<std::vector<Label>>(n));

    for (std::size_t c = 0; c < n; ++c) {
        const ReconfigCost rc =
            cost_model.cost(initial, candidates[c], false);
        const EpochRecord &rec = db.epochs(candidates[c])[0];
        labels[0][c].push_back({rec.seconds + rc.seconds,
                                rec.totalEnergy() + rc.energy, -1,
                                -1});
    }
    for (std::size_t e = 1; e < num_epochs; ++e) {
        for (std::size_t c = 0; c < n; ++c) {
            const EpochRecord &rec = db.epochs(candidates[c])[e];
            std::vector<Label> merged;
            for (std::size_t p = 0; p < n; ++p) {
                const ReconfigCost &rc = trans[p][c];
                for (std::size_t li = 0; li < labels[e - 1][p].size();
                     ++li) {
                    const Label &prev = labels[e - 1][p][li];
                    merged.push_back(
                        {prev.t + rc.seconds + rec.seconds,
                         prev.e + rc.energy + rec.totalEnergy(),
                         static_cast<std::int32_t>(p),
                         static_cast<std::int32_t>(li)});
                }
            }
            pruneLabels(merged, label_cap);
            labels[e][c] = std::move(merged);
        }
    }

    // Pick the global minimum of T^2 * E among final labels.
    double best_obj = std::numeric_limits<double>::infinity();
    std::int32_t best_c = -1, best_l = -1;
    for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t li = 0; li < labels[num_epochs - 1][c].size();
             ++li) {
            const Label &l = labels[num_epochs - 1][c][li];
            const double obj = l.t * l.t * l.e;
            if (obj < best_obj) {
                best_obj = obj;
                best_c = static_cast<std::int32_t>(c);
                best_l = static_cast<std::int32_t>(li);
            }
        }
    }
    SADAPT_ASSERT(best_c >= 0, "oracle DP produced no labels");

    Schedule schedule;
    schedule.configs.assign(num_epochs, initial);
    std::int32_t c = best_c, li = best_l;
    for (std::size_t e = num_epochs; e-- > 0;) {
        schedule.configs[e] = candidates[c];
        const Label &l = labels[e][c][li];
        c = l.prevCandidate;
        li = l.prevLabel;
    }
    return schedule;
}

} // namespace

Schedule
oracleSchedule(EpochDb &db, std::span<const HwConfig> candidates,
               OptMode mode, const ReconfigCostModel &cost_model,
               const HwConfig &initial)
{
    SADAPT_ASSERT(!candidates.empty(), "no candidates");
    db.ensure(candidates);
    if (mode == OptMode::EnergyEfficient)
        return oracleEnergy(db, candidates, cost_model, initial);
    return oraclePowerPerf(db, candidates, cost_model, initial);
}

Schedule
sparseAdaptSchedule(EpochDb &db, const Predictor &predictor,
                    const Policy &policy, OptMode mode,
                    const ReconfigCostModel &cost_model,
                    const HwConfig &initial,
                    obs::RunObserver *observer)
{
    SessionContext ctx;
    ctx.predictor = &predictor;
    ctx.policy = &policy;
    ctx.mode = mode;
    ctx.costModel = &cost_model;
    ctx.observer = observer;
    SessionState s = makeSessionState(initial, ctx);
    const std::size_t num_epochs = db.numEpochs();
    s.schedule.configs.reserve(num_epochs);
    for (std::size_t e = 0; e < num_epochs; ++e)
        stepEpoch(s, ctx, db.epochs(s.current)[e]);
    return std::move(s.schedule);
}

RobustAdaptResult
robustSparseAdaptSchedule(EpochDb &db, const Predictor &predictor,
                          const Policy &policy, OptMode mode,
                          const ReconfigCostModel &cost_model,
                          const HwConfig &initial,
                          FaultInjector *faults,
                          const RobustAdaptOptions &opts,
                          obs::RunObserver *observer)
{
    SessionContext ctx;
    ctx.predictor = &predictor;
    ctx.policy = &policy;
    ctx.mode = mode;
    ctx.costModel = &cost_model;
    ctx.faults = faults;
    ctx.useGuard = opts.useGuard;
    ctx.observer = observer;
    SessionState s =
        makeSessionState(initial, ctx, opts.guard, opts.watchdog);
    const std::size_t num_epochs = db.numEpochs();
    s.schedule.configs.reserve(num_epochs);
    for (std::size_t e = 0; e < num_epochs; ++e)
        stepEpoch(s, ctx, db.epochs(s.current)[e]);

    RobustAdaptResult out;
    out.schedule = std::move(s.schedule);
    if (faults) {
        out.faults = faults->stats();
        if (observer != nullptr) {
            observer->metrics()
                .counter("sim/faults/samples_dropped")
                .add(out.faults.samplesDropped);
        }
    }
    out.guard = s.guard.stats();
    out.watchdogReverts = s.watchdog.reverts();
    out.watchdogHeldEpochs = s.watchdog.heldEpochs();
    if (observer != nullptr) {
        observer->metrics()
            .counter("adapt/watchdog/reverts")
            .add(out.watchdogReverts);
        observer->metrics()
            .counter("adapt/watchdog/held_epochs")
            .add(out.watchdogHeldEpochs);
    }
    return out;
}

ScheduleEval
evaluateProfileAdapt(EpochDb &db, const Schedule &base,
                     const ReconfigCostModel &cost_model, OptMode mode,
                     const HwConfig &initial,
                     const ProfileAdaptOptions &opts)
{
    SADAPT_ASSERT(base.configs.size() == db.numEpochs(),
                  "schedule length must equal epoch count");
    SADAPT_ASSERT(opts.profilingFraction > 0.0 &&
                  opts.profilingFraction < 1.0,
                  "profiling fraction must be in (0, 1)");
    const bool ee = mode == OptMode::EnergyEfficient;
    const double f = opts.profilingFraction;

    ScheduleEval ev;
    HwConfig current = initial;
    for (std::size_t e = 0; e < base.configs.size(); ++e) {
        const HwConfig &chosen = base.configs[e];
        const bool change = !(chosen == current);
        const bool profile_this_epoch = !opts.ideal || change || e == 0;
        const EpochRecord &rec_sel = db.epochs(chosen)[e];
        if (profile_this_epoch) {
            // Detour: switch to the profiling configuration, run the
            // first fraction of the epoch there (still useful work),
            // then switch to the selected configuration.
            const EpochRecord &rec_prof =
                db.epochs(opts.profilingConfig)[e];
            const ReconfigCost to_prof = cost_model.cost(
                current, opts.profilingConfig, ee);
            const ReconfigCost to_sel = cost_model.cost(
                opts.profilingConfig, chosen, ee);
            ev.reconfigSeconds += to_prof.seconds + to_sel.seconds;
            ev.reconfigEnergy += to_prof.energy + to_sel.energy;
            ev.seconds += to_prof.seconds + to_sel.seconds;
            ev.energy += to_prof.energy + to_sel.energy;
            ev.reconfigCount += 2;
            ev.flops += rec_prof.flops * f + rec_sel.flops * (1 - f);
            ev.seconds +=
                rec_prof.seconds * f + rec_sel.seconds * (1 - f);
            ev.energy += rec_prof.totalEnergy() * f +
                rec_sel.totalEnergy() * (1 - f);
        } else {
            ev.flops += rec_sel.flops;
            ev.seconds += rec_sel.seconds;
            ev.energy += rec_sel.totalEnergy();
        }
        current = chosen;
    }
    return ev;
}

} // namespace sadapt
