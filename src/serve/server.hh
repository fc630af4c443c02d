/**
 * @file
 * Adaptation-as-a-service: a multi-tenant control server over the
 * re-entrant session core (adapt/session.hh).
 *
 * runServe() replays a deterministic traffic script: sessions are
 * admitted in arrival order up to a concurrency window, and every
 * scheduling tick advances each open session by one epoch through the
 * SparseAdapt loop (telemetry -> prediction -> policy -> reconfig).
 * A tick has two stages, both serial in session id order: admit due
 * arrivals and fetch each open session's telemetry, then step each
 * session through stepEpoch() and answer with its next configuration.
 * The server creates no threads.
 *
 * Determinism contract (DESIGN.md section 14): per-session pipelines
 * are fully isolated (own EpochDb, cost model, journal shard, metric
 * registry), every shared-structure access (epoch database fetches,
 * the optional epoch store, the final merge) runs in session id order,
 * and the merged journal/metrics are re-emitted in session id order
 * after the run — so the merged artifacts are byte-identical for ANY
 * --sessions window, including fully serial replay. Window-dependent
 * observations (tick counts, wall-clock decision latency) are returned
 * in ServeResult only and never enter the merged journal or registry.
 *
 * A session's epoch database replays no further than the session's
 * epoch budget (SessionSpec::maxEpochs), the most it can serve, and a
 * session's workload and database are released as soon as it closes.
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
#include "store/epoch_store.hh"

namespace sadapt::serve {

/**
 * Server configuration. Sessions may share state only via the handles
 * injected here (the predictor, the epoch store, the clock); the
 * lint-serve-session-state rule holds the serve layer to that.
 */
struct ServeOptions
{
    /** Max concurrently open sessions (admission window); 0 = all. */
    unsigned sessions = 0;

    /**
     * Ignored: runServe() creates no threads. Batched prediction on
     * worker threads measured slower than inline prediction and was
     * removed; the field stays because perfbench/bench.cc still sets
     * it.
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
     * Optional shared epoch store: sessions warm-start from (and
     * checkpoint into) it under their workload fingerprints. The
     * store's on-disk byte layout then depends on the admission
     * schedule; run EpochStore::compact() afterwards to get the
     * canonical sorted form that is byte-identical across any
     * --sessions window (the CLI and the serving tests do).
     */
    store::EpochStore *store = nullptr;

    /**
     * Monotonic wall-clock in nanoseconds for decision-latency
     * sampling; null disables latency measurement (latency is
     * reported out-of-band and never journaled, so the clock cannot
     * perturb the merged artifacts). Injected so src/serve stays free
     * of direct clock calls (lint-wallclock).
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

    std::uint64_t ticks = 0;        //!< scheduling ticks processed
    std::uint64_t epochsServed = 0; //!< total epochs across sessions
    std::uint64_t decisions = 0;    //!< reconfiguration answers issued

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
