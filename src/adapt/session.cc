#include "adapt/session.hh"

#include "adapt/metrics.hh"
#include "adapt/telemetry.hh"

namespace sadapt {

namespace {

/**
 * Journaling hooks of the per-epoch step. Every function is a no-op on
 * a null observer; none of them feeds anything back into the control
 * flow, so an attached observer cannot change a decision.
 */

void
emitEpochEvent(obs::RunObserver *o, std::size_t epoch, double t_now,
               const HwConfig &cfg, const EpochRecord &rec,
               OptMode mode)
{
    if (o == nullptr)
        return;
    o->beginEpoch(epoch, t_now);
    o->emit("adapt/controller", "epoch",
            {{"cfg", cfg.toSpec()},
             {"seconds", rec.seconds},
             {"flops", rec.flops},
             {"energy_j", rec.totalEnergy()},
             {"metric", metricValue(mode, rec.flops, rec.seconds,
                                    rec.totalEnergy())}});
    o->metrics().counter("adapt/controller/epochs").add();
}

void
emitPrediction(obs::RunObserver *o, const HwConfig &predicted)
{
    if (o == nullptr)
        return;
    std::vector<std::pair<std::string, obs::FieldValue>> fields;
    fields.emplace_back("cfg", predicted.toSpec());
    for (Param p : allParams())
        fields.emplace_back(
            paramName(p),
            static_cast<std::int64_t>(paramValue(predicted, p)));
    o->emit("adapt/predictor", "prediction", std::move(fields));
}

void
emitPolicyDecisions(obs::RunObserver *o, const PolicyOutcome &outcome)
{
    if (o == nullptr)
        return;
    for (const PolicyDecision &d : outcome.decisions) {
        o->emit("adapt/policy", "policy",
                {{"param", paramName(d.param)},
                 {"from", static_cast<std::int64_t>(d.from)},
                 {"to", static_cast<std::int64_t>(d.to)},
                 {"accepted", d.accepted},
                 {"cost_s", d.cost.seconds},
                 {"cost_j", d.cost.energy},
                 {"flush", d.cost.flushL1 || d.cost.flushL2}});
        o->metrics().counter("adapt/policy/proposed").add();
        o->metrics()
            .counter(d.accepted ? "adapt/policy/accepted"
                                : "adapt/policy/vetoed")
            .add();
    }
}

void
emitReconfig(obs::RunObserver *o, const HwConfig &from,
             const HwConfig &to, const ReconfigCostModel &cost_model,
             bool ee)
{
    if (o == nullptr || from == to)
        return;
    const ReconfigCost rc = cost_model.cost(from, to, ee);
    o->emit("adapt/controller", "reconfig",
            {{"from", from.toSpec()},
             {"to", to.toSpec()},
             {"cost_s", rc.seconds},
             {"cost_j", rc.energy},
             {"flush_l1", rc.flushL1},
             {"flush_l2", rc.flushL2}});
    o->metrics().counter("adapt/controller/reconfigs").add();
}

/** Journal "fault" events appended to the injector log this epoch. */
void
emitNewFaultEvents(obs::RunObserver *o, FaultInjector *faults,
                   std::size_t &seen)
{
    if (faults == nullptr)
        return;
    const std::vector<FaultEvent> &log = faults->events();
    if (o != nullptr) {
        for (std::size_t i = seen; i < log.size(); ++i) {
            o->emit("sim/faults", "fault",
                    {{"kind", faultKindName(log[i].kind)},
                     {"detail", log[i].detail}});
            o->metrics().counter("sim/faults/injected").add();
        }
    }
    seen = log.size();
}

void
emitGuardEvent(obs::RunObserver *o, const std::string &verdict,
               std::size_t flagged)
{
    if (o == nullptr)
        return;
    o->emit("adapt/guard", "guard",
            {{"verdict", verdict},
             {"flagged", static_cast<std::int64_t>(flagged)}});
    o->metrics().counter("adapt/guard/" + verdict).add();
}

/**
 * Predict the next configuration from `sample` and filter it through
 * the hysteresis policy, journaling both steps.
 */
HwConfig
predictAndFilter(const SessionState &s, const SessionContext &ctx,
                 const PerfCounterSample &sample,
                 const EpochRecord &rec)
{
    const HwConfig predicted = ctx.predictor->predict(s.current, sample);
    emitPrediction(ctx.observer, predicted);
    const PolicyOutcome outcome = ctx.policy->applyDetailed(
        s.current, predicted, rec.seconds, *ctx.costModel,
        ctx.mode == OptMode::EnergyEfficient);
    emitPolicyDecisions(ctx.observer, outcome);
    return outcome.config;
}

/**
 * The guarded decision: the guard classifies (and may repair) the
 * received sample, and the watchdog may hold the configuration or
 * revert it to the safe baseline before the predictor is consulted.
 */
HwConfig
guardedDecision(SessionState &s, const SessionContext &ctx,
                const std::optional<PerfCounterSample> &received,
                const EpochRecord &rec)
{
    obs::RunObserver *observer = ctx.observer;
    PerfCounterSample sample;
    bool usable = false;
    if (!received) {
        s.guard.recordMissing();
        emitGuardEvent(observer, "missing", 0);
    } else {
        sample = *received;
        const GuardReport report = s.guard.inspect(sample);
        emitGuardEvent(observer, sampleVerdictName(report.verdict),
                       report.flagged.size());
        if (report.verdict == SampleVerdict::Bad) {
            // Discard; fall back to last-known-good features.
            if (s.guard.lastKnownGood()) {
                sample = *s.guard.lastKnownGood();
                usable = true;
            }
        } else {
            usable = true;
        }
    }

    const double realized = metricValue(ctx.mode, rec.flops,
                                        rec.seconds, rec.totalEnergy());
    const Watchdog::Decision wd = s.watchdog.observe(realized, usable);
    if (observer != nullptr)
        observer->metrics()
            .gauge("adapt/watchdog/reference")
            .set(s.watchdog.reference());
    if (wd.revert)
        return s.safe;
    if (wd.hold || !usable)
        return s.current;
    return predictAndFilter(s, ctx, sample, rec);
}

} // namespace

SessionState
makeSessionState(const HwConfig &initial, const SessionContext &ctx,
                 const GuardOptions &guard_opts,
                 const WatchdogOptions &watchdog_opts)
{
    SessionState s;
    s.current = initial;
    s.safe = baselineConfig(initial.l1Type);
    s.guard = TelemetryGuard(guard_opts);
    s.watchdog = Watchdog(watchdog_opts);
    s.watchdog.attachObserver(ctx.observer);
    s.faultsSeen =
        ctx.faults != nullptr ? ctx.faults->events().size() : 0;
    return s;
}

void
stepEpoch(SessionState &s, const SessionContext &ctx,
          const EpochRecord &rec)
{
    const bool ee = ctx.mode == OptMode::EnergyEfficient;
    obs::RunObserver *observer = ctx.observer;
    const auto epoch = static_cast<std::uint32_t>(s.epoch);
    const HwConfig from = s.current;
    s.schedule.configs.push_back(from);
    // Telemetry of the epoch that just ran under `from`.
    emitEpochEvent(observer, s.epoch, s.tNow, from, rec, ctx.mode);

    std::optional<PerfCounterSample> received = ctx.faults
        ? ctx.faults->filterSample(epoch, rec.counters)
        : std::optional<PerfCounterSample>(rec.counters);
    // Unguarded, a missing sample reads as all-zero counters (stuck
    // telemetry register) and corruption feeds the predictor verbatim.
    const HwConfig commanded = ctx.useGuard
        ? guardedDecision(s, ctx, received, rec)
        : predictAndFilter(s, ctx,
                           received.value_or(PerfCounterSample{}), rec);

    s.current = ctx.faults
        ? ctx.faults->applyCommand(epoch, from, commanded)
        : commanded;
    emitNewFaultEvents(observer, ctx.faults, s.faultsSeen);
    emitReconfig(observer, from, s.current, *ctx.costModel, ee);
    s.tNow += rec.seconds;
    if (!(s.current == from))
        s.tNow += ctx.costModel->cost(from, s.current, ee).seconds;
    ++s.epoch;
}

} // namespace sadapt
