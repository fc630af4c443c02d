#include "serve/server.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adapt/epoch_db.hh"
#include "adapt/session.hh"
#include "common/logging.hh"
#include "common/threading.hh"
#include "obs/journal.hh"
#include "obs/metrics.hh"
#include "obs/observer.hh"
#include "sim/config.hh"
#include "sparse/suite.hh"

namespace sadapt::serve {

namespace {

/**
 * One tenant's isolated pipeline: workload, epoch database, cost
 * model, policy, journal shard and metric registry. Nothing in here
 * is shared with another session except the injected ServeOptions
 * handles (predictor, store); the serve run-vs-run tests (windows,
 * worker counts, warm after kill -9) fail on any state that leaks
 * from one session into another's artifacts.
 *
 * The database replays the workload's trace in place, each
 * configuration only up to the last epoch the session reads under it,
 * and never past spec.maxEpochs, the most the session can serve.
 */
struct ServeSession
{
    SessionSpec spec;
    Workload workload;
    EpochDb db;
    ReconfigCostModel cost;
    HwConfig initial;
    Policy policy;
    std::ostringstream journalBuf; //!< this session's journal shard
    obs::RunObserver observer;
    SessionContext ctx;
    SessionState state;
    std::size_t epochsTotal = 0;  //!< epochs this session will serve

    ServeSession(const SessionSpec &sp, const ServeOptions &opt)
        : spec(sp),
          workload(buildSessionWorkload(sp, opt.scale)),
          db(workload, sp.maxEpochs),
          cost(workload.params),
          initial(baselineConfig(workload.l1Type)),
          policy(opt.policy, opt.tolerance),
          ctx{opt.predictor, &policy, opt.mode, &cost,
              nullptr,       false,   &observer},
          state(makeSessionState(initial, ctx)),
          epochsTotal(Transmuter(workload.params)
                          .epochCount(workload.trace, sp.maxEpochs))
    {
        // Shard journaling starts empty; the open event is emitted
        // right after construction, so it is the first line.
        observer.attachJournal(journalBuf);
        db.setJobs(1);
        if (opt.store != nullptr)
            db.attachStore(opt.store);
        state.schedule.configs.reserve(epochsTotal);
    }
};

/** What a served session leaves in its id's slot for the merge. */
struct SessionShard
{
    std::string journal; //!< the session's journal lines, seq from 0
    obs::MetricRegistry metrics;
    std::vector<std::uint64_t> latencyNs; //!< never merged or journaled
    std::uint64_t epochsReplayed = 0;
};

/**
 * Serve one session start to finish on the calling thread: open, one
 * fetch, stepEpoch() and decision per epoch, close. Writes only `row`
 * and `shard`.
 */
void
serveSession(const SessionSpec &spec, const ServeOptions &opt,
             SessionOutcome &row, SessionShard &shard)
{
    auto s = std::make_unique<ServeSession>(spec, opt);
    std::vector<std::uint64_t> latencyNs;
    s->observer.beginEpoch(0, 0.0);
    s->observer.emit("serve/session", "session",
                     {{"op", std::string("open")},
                      {"session", static_cast<std::int64_t>(spec.id)},
                      {"dataset", spec.dataset}, {"kernel", spec.kernel}});

    // A decision's latency is its own fetch plus its own step, each
    // bracketed by its own two clock reads.
    while (s->state.epoch < s->epochsTotal) {
        const std::uint64_t t0 = opt.nowNs ? opt.nowNs() : 0;
        const EpochRecord &rec =
            s->db.epoch(s->state.current, s->state.epoch);
        const std::uint64_t fetchNs = opt.nowNs ? opt.nowNs() - t0 : 0;
        const std::uint64_t t1 = opt.nowNs ? opt.nowNs() : 0;
        stepEpoch(s->state, s->ctx, rec);
        s->observer.emit(
            "serve/session", "session",
            {{"op", std::string("decision")},
             {"session", static_cast<std::int64_t>(spec.id)},
             {"cfg", s->state.current.toSpec()}});
        if (opt.nowNs)
            latencyNs.push_back(fetchNs + (opt.nowNs() - t1));
    }

    const ScheduleEval ev = evaluateSchedulePrefix(
        s->db, s->state.schedule, s->cost, opt.mode, s->initial);
    s->observer.beginEpoch(s->state.epoch, s->state.tNow);
    s->observer.emit(
        "serve/session", "session",
        {{"op", std::string("close")},
         {"session", static_cast<std::int64_t>(spec.id)},
         {"epochs", static_cast<std::int64_t>(s->state.epoch)},
         {"gflops", ev.gflops()}});

    row = {.id = spec.id, .dataset = spec.dataset, .kernel = spec.kernel,
           .epochs = s->state.epoch, .reconfigs = ev.reconfigCount,
           .seconds = ev.seconds, .gflops = ev.gflops(),
           .metricValue = ev.metric(opt.mode)};

    s->observer.flush();
    shard.journal = std::move(s->journalBuf).str();
    obs::MetricRegistry metrics;
    metrics.merge(s->observer.metrics());
    shard.epochsReplayed = s->db.epochsReplayed();
    // Copy what outlives the session only once it is released, so the
    // copies reuse its space instead of pinning the worker's heap.
    s.reset();
    shard.latencyNs = latencyNs;
    shard.metrics.merge(metrics);
}

/**
 * The scheduling ticks a window implies, from arrival ticks and served
 * epoch counts alone: sessions are admitted in id order, at or after
 * arrival, while fewer than `window` are open (0 = no limit), and are
 * served one epoch per tick. Idle ticks before an arrival never count.
 */
std::uint64_t
derivedTicks(const TrafficScript &script,
             const std::vector<SessionOutcome> &rows, std::size_t window)
{
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>> frees; //!< open slots' free ticks
    std::uint64_t at = 0, counted = 0, ticks = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        at = std::max(at, script.sessions[i].arrivalTick);
        while (!frees.empty() &&
               (frees.top() <= at ||
                (window != 0 && frees.size() >= window))) {
            at = std::max(at, frees.top());
            frees.pop();
        }
        const std::uint64_t until = at + rows[i].epochs;
        frees.push(until);
        ticks += std::max(until, counted) - std::max(at, counted);
        counted = std::max(counted, until);
    }
    return ticks;
}

/**
 * Nearest-rank `pct` (1..100) percentile of a sorted, non-empty
 * sample: the smallest value with at least pct% of the samples at or
 * below it.
 */
double
nearestRank(const std::vector<std::uint64_t> &sorted, std::size_t pct)
{
    const std::size_t rank = (sorted.size() * pct + 99) / 100;
    return static_cast<double>(sorted[rank - 1]);
}

} // namespace

Result<ServeResult>
runServe(const TrafficScript &script, const ServeOptions &opt)
{
    if (opt.predictor == nullptr)
        return Status::error("runServe: a predictor is required");
    // Every Table 5 dataset has a suite entry; nothing else is known.
    const std::vector<SuiteEntry> &suite = suiteEntries();
    for (const SessionSpec &sp : script.sessions)
        if (std::none_of(suite.begin(), suite.end(),
                         [&](const SuiteEntry &e) {
                             return e.id == sp.dataset;
                         }))
            return Status::error(str("runServe: unknown dataset '",
                                     sp.dataset, "' (session ",
                                     sp.id, ")"));

    const std::size_t n = script.sessions.size();
    const std::size_t window = opt.sessions;

    ServeResult out;
    out.outcomes.resize(n);

    // EpochStore is not thread-safe: with a store the run is serial,
    // in id order. More workers claim the largest sessions first.
    std::vector<SessionShard> shards(n);
    const std::size_t workers = opt.store != nullptr
        ? 1 : std::min<std::size_t>(opt.jobs, window != 0 ? window : n);
    std::vector<std::size_t> order = largestFirst(script);
    if (workers <= 1)
        std::sort(order.begin(), order.end());
    parallelFor(n, static_cast<unsigned>(workers), [&](std::size_t k) {
        const std::size_t i = order[k];
        serveSession(script.sessions[i], opt, out.outcomes[i], shards[i]);
    });

    std::ostringstream serverBuf;
    obs::RunObserver server;
    server.attachJournal(serverBuf);
    // Run metadata carries only replay-invariant knobs: the window
    // and the worker count must not leak into the merged artifacts.
    server.emit("serve/server", "run",
                {{"sessions", static_cast<std::int64_t>(n)},
                 {"scale", opt.scale},
                 {"mode", optModeName(opt.mode)},
                 {"policy", policyKindName(opt.policy)}});

    // Merge in session id order, restamping sequence numbers. By
    // stepEpoch()'s re-entrancy contract the shards, and so the result,
    // are independent of the window and the worker count.
    std::vector<std::uint64_t> latencyNs;
    obs::MetricRegistry &metrics = server.metrics();
    for (std::size_t i = 0; i < n; ++i) {
        const Status appended =
            server.journal()->appendShard(shards[i].journal);
        if (!appended.isOk())
            return Status::error("runServe: bad journal shard: " +
                                 appended.message());
        const std::size_t epochs = out.outcomes[i].epochs;
        metrics.counter("serve/sessions_opened").add();
        metrics.counter("serve/decisions").add(epochs);
        metrics.counter("serve/epochs_served").add(epochs);
        metrics.counter("serve/sessions_closed").add();
        metrics.merge(shards[i].metrics);
        out.decisions += epochs;
        out.epochsServed += epochs;
        out.epochsReplayed += shards[i].epochsReplayed;
        latencyNs.insert(latencyNs.end(), shards[i].latencyNs.begin(),
                         shards[i].latencyNs.end());
    }
    out.ticks = derivedTicks(script, out.outcomes, window);
    server.flush();
    out.journalText = serverBuf.str();
    std::ostringstream metricsOut;
    metrics.writeText(metricsOut);
    out.metricsText = metricsOut.str();
    if (!latencyNs.empty()) {
        std::sort(latencyNs.begin(), latencyNs.end());
        out.decisionP50Ms = nearestRank(latencyNs, 50) / 1e6;
        out.decisionP99Ms = nearestRank(latencyNs, 99) / 1e6;
    }
    return out;
}

} // namespace sadapt::serve
