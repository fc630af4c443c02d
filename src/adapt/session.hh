/**
 * @file
 * The re-entrant per-session core of the SparseAdapt control loop.
 *
 * SessionState is everything one adaptation stream mutates epoch to
 * epoch — current configuration, simulated clock, decision history,
 * guard/watchdog defenses and the fault-event cursor — and
 * SessionContext is what it only reads (predictor, policy, cost model,
 * fault channel, guard switch, observer). stepEpoch() is the one loop
 * body: it advances one session by exactly one epoch and touches
 * nothing outside its two arguments (no function-local statics, no
 * globals), so any number of sessions can be interleaved in any order
 * — as the serve layer does every tick — and each one's decision
 * sequence is bit-identical to running it alone (tests/test_serve.cc
 * pins that).
 *
 * The batch drivers in adapt/controllers.cc (sparseAdaptSchedule,
 * robustSparseAdaptSchedule) are thin loops over stepEpoch() that
 * differ only in the context they set and the stats they report
 * (tests/test_obs_determinism.cc pins their journal shape).
 */

#ifndef SADAPT_ADAPT_SESSION_HH
#define SADAPT_ADAPT_SESSION_HH

#include <cstddef>

#include "adapt/guard.hh"
#include "adapt/policy.hh"
#include "adapt/predictor.hh"
#include "obs/observer.hh"
#include "sim/faults.hh"
#include "sim/reconfig.hh"
#include "sim/schedule.hh"
#include "sim/transmuter.hh"

namespace sadapt {

/**
 * Read-only collaborators of one session. All pointers are borrowed
 * and must outlive the session; `predictor`, `policy` and `costModel`
 * are required, the rest optional.
 */
struct SessionContext
{
    const Predictor *predictor = nullptr;
    const Policy *policy = nullptr;
    OptMode mode = OptMode::EnergyEfficient;
    const ReconfigCostModel *costModel = nullptr;

    /** Faultable telemetry/command path; null = clean channels. */
    FaultInjector *faults = nullptr;

    /**
     * Run the TelemetryGuard + Watchdog defenses. Off, with null
     * faults, the step is the paper's plain loop: telemetry,
     * prediction, policy, reconfiguration.
     */
    bool useGuard = false;

    /** Optional decision-trail sink; pure observer (may be null). */
    obs::RunObserver *observer = nullptr;
};

/** Everything one adaptation session mutates across epochs. */
struct SessionState
{
    HwConfig current;       //!< configuration in effect this epoch
    HwConfig safe;          //!< watchdog revert target (baseline)
    double tNow = 0.0;      //!< simulated seconds elapsed
    std::size_t epoch = 0;  //!< next epoch index to step
    Schedule schedule;      //!< configuration actually run, per epoch

    TelemetryGuard guard;
    Watchdog watchdog;

    /** Fault-injector events already journaled (cursor into its log). */
    std::size_t faultsSeen = 0;
};

/**
 * Initialize a session at `initial`: safe config derived from the L1
 * type, guard/watchdog built from the given options with the context's
 * observer attached, fault cursor synced to the injector's log.
 */
SessionState
makeSessionState(const HwConfig &initial, const SessionContext &ctx,
                 const GuardOptions &guard_opts = GuardOptions{},
                 const WatchdogOptions &watchdog_opts =
                     WatchdogOptions{});

/**
 * Advance one session by one epoch: journal the epoch's telemetry,
 * pass it through the fault channel (when `ctx.faults` is set) and
 * the guard/watchdog (when `ctx.useGuard`), predict, filter through
 * the policy, apply the reconfiguration and advance the session
 * clock.
 *
 * `rec` is the just-finished epoch's record under `s.current` — i.e.
 * `db.epochs(s.current)[s.epoch]` for an EpochDb-backed caller.
 */
void stepEpoch(SessionState &s, const SessionContext &ctx,
               const EpochRecord &rec);

} // namespace sadapt

#endif // SADAPT_ADAPT_SESSION_HH
