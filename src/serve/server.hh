/**
 * @file
 * Adaptation-as-a-service: a multi-tenant control server over the
 * re-entrant session core (adapt/session.hh).
 *
 * runServe() replays a deterministic traffic script. Each session runs
 * start to finish on one parallelFor() worker: build its workload,
 * open, then per epoch fetch its telemetry, step it through the
 * SparseAdapt loop (stepEpoch(): telemetry -> prediction -> policy ->
 * reconfig) and answer with its next configuration, then close. There
 * are min(jobs, window) workers (window 0: one per session), so the
 * window bounds how many sessions are open at once. Workers claim
 * sessions largest first (largestFirst()), so the wall time of a
 * script does not depend on the order its sessions arrive in. The
 * scheduling ticks are derived afterwards from arrival ticks and epoch
 * counts: sessions are admitted in id order, at or after arrival,
 * while the window has room, and served one epoch per tick.
 *
 * Determinism contract (DESIGN.md section 14): per-session pipelines
 * are fully isolated (own workload, EpochDb, cost model, journal
 * shard, metric registry) and each writes only its own session id's
 * slot; the merged journal/metrics are re-emitted in session id order
 * after every worker has joined — so the merged artifacts are
 * byte-identical for ANY --sessions window and worker count,
 * including fully serial replay. Window-dependent observations (tick
 * counts, wall-clock decision latency) are returned in ServeResult
 * only and never enter the merged journal or registry.
 *
 * Admitting a session replays nothing: its epoch count comes from the
 * trace and its epoch budget (Transmuter::epochCount with
 * SessionSpec::maxEpochs). Its epoch database replays each
 * configuration only up to the last epoch the session reads under it,
 * and a session's workload and database are released as soon as it
 * closes.
 */

#ifndef SADAPT_SERVE_SERVER_HH
#define SADAPT_SERVE_SERVER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "adapt/policy.hh"
#include "adapt/predictor.hh"
#include "serve/traffic.hh"

namespace sadapt::serve {

/**
 * Server configuration. Sessions may share state only via the handles
 * injected here (the predictor, the clock); the serve run-vs-run tests
 * (ServeParallel.*, Serve.*AcrossWindows, serve_cli_selfcheck) hold
 * the serve layer to that.
 */
struct ServeOptions
{
    /** Max concurrently open sessions (admission window); 0 = all. */
    unsigned sessions = 0;

    /**
     * Worker threads that serve sessions, each one session start to
     * finish; runServe() uses min(jobs, window), where window 0 means
     * the session count. Workers claim the largest sessions first.
     * Never changes the merged artifacts or ticks.
     */
    unsigned jobs = 1;

    /** Dataset scale for buildSessionWorkload() (pinned, not env). */
    double scale = 0.12;

    /** Shared decision-tree model (required; predict() is const). */
    const Predictor *predictor = nullptr;

    PolicyKind policy = PolicyKind::Hybrid;
    double tolerance = 0.4; //!< Hybrid policy tolerance
    OptMode mode = OptMode::EnergyEfficient;

    /**
     * Monotonic wall-clock in nanoseconds for decision-latency
     * sampling; null disables latency measurement (latency is
     * reported out-of-band and never journaled, so the clock cannot
     * perturb the merged artifacts). Injected so src/serve stays free
     * of direct clock calls (lint-wallclock). Workers call it
     * concurrently, so with more than one worker it must be
     * thread-safe (std::chrono::steady_clock is).
     */
    std::function<std::uint64_t()> nowNs;
};

/** Final outcome of one served session (simulated, deterministic). */
struct SessionOutcome
{
    std::uint64_t id = 0;
    std::string dataset;
    std::string kernel;
    std::size_t epochs = 0;        //!< epochs actually served
    std::uint32_t reconfigs = 0;   //!< applied configuration switches
    double seconds = 0.0;          //!< stitched simulated seconds
    double gflops = 0.0;
    double metricValue = 0.0;      //!< ScheduleEval::metric(mode)
};

/** Everything one replay produced. */
struct ServeResult
{
    /** Merged journal: server run event + shards in session id order. */
    std::string journalText;

    /** Merged metric registry snapshot (writeText form). */
    std::string metricsText;

    std::uint64_t ticks = 0;        //!< derived scheduling ticks
    std::uint64_t epochsServed = 0; //!< total epochs across sessions
    std::uint64_t decisions = 0;    //!< reconfiguration answers issued

    /**
     * Epoch records replayed across every session's database: the
     * replay work behind epochsServed. Reported here only, never
     * journaled, like the tick count.
     */
    std::uint64_t epochsReplayed = 0;

    /**
     * Wall-clock decision latency, nearest-rank quantiles of every
     * decision's sample (the session's own fetch plus its own step);
     * 0 without a clock.
     */
    double decisionP50Ms = 0.0;
    double decisionP99Ms = 0.0;

    std::vector<SessionOutcome> outcomes; //!< session id order
};

/**
 * Replay a traffic script through the control server. Fails (without
 * partial effects) on a null predictor or an unknown dataset id.
 */
[[nodiscard]] Result<ServeResult>
runServe(const TrafficScript &script, const ServeOptions &opt);

} // namespace sadapt::serve

#endif // SADAPT_SERVE_SERVER_HH
