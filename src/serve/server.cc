#include "serve/server.hh"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adapt/epoch_db.hh"
#include "adapt/session.hh"
#include "common/logging.hh"
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
 * handles (predictor, store) — which is exactly the boundary the
 * lint-serve-session-state rule enforces for this directory.
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
    const EpochRecord *rec = nullptr; //!< this tick's telemetry
    std::uint64_t fetchNs = 0; //!< this tick's fetch, for the latency

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
        // Shard journaling starts empty; the server emits the open
        // event right after construction, so it is the first line.
        observer.attachJournal(journalBuf);
        db.setJobs(1);
        if (opt.store != nullptr)
            db.attachStore(opt.store);
        state.schedule.configs.reserve(epochsTotal);
    }
};

/** What a closed session leaves for the final merge. */
struct ClosedShard
{
    std::string journal;       //!< the session's journal shard text
    obs::MetricRegistry metrics;
};

/** The dataset ids the traffic families can name. */
std::set<std::string>
knownDatasets()
{
    std::set<std::string> known;
    for (const std::string &id : syntheticIds())
        known.insert(id);
    for (const std::string &id : spmspmRealWorldIds())
        known.insert(id);
    for (const std::string &id : spmspvRealWorldIds())
        known.insert(id);
    return known;
}

/**
 * Close one session: final evaluation, close event, outcome row, and
 * its journal shard text and metrics saved in `shard` for the merge.
 */
void
closeSession(ServeSession &s, const ServeOptions &opt,
             obs::RunObserver &server, SessionOutcome &row,
             ClosedShard &shard)
{
    const ScheduleEval ev = evaluateSchedulePrefix(
        s.db, s.state.schedule, s.cost, opt.mode, s.initial);
    s.observer.beginEpoch(s.state.epoch, s.state.tNow);
    s.observer.emit(
        "serve/session", "session",
        {{"op", std::string("close")},
         {"session", static_cast<std::int64_t>(s.spec.id)},
         {"epochs", static_cast<std::int64_t>(s.state.epoch)},
         {"gflops", ev.gflops()}});
    server.metrics().counter("serve/sessions_closed").add();

    row.id = s.spec.id;
    row.dataset = s.spec.dataset;
    row.kernel = s.spec.kernel;
    row.epochs = s.state.epoch;
    row.reconfigs = ev.reconfigCount;
    row.seconds = ev.seconds;
    row.gflops = ev.gflops();
    row.metricValue = ev.metric(opt.mode);

    s.observer.flush();
    shard.journal = s.journalBuf.str();
    shard.metrics.merge(s.observer.metrics());
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
    const std::set<std::string> known = knownDatasets();
    for (const SessionSpec &sp : script.sessions)
        if (known.count(sp.dataset) == 0)
            return Status::error(str("runServe: unknown dataset '",
                                     sp.dataset, "' (session ",
                                     sp.id, ")"));

    const std::size_t window = opt.sessions;

    ServeResult out;
    out.outcomes.resize(script.sessions.size());

    std::ostringstream serverBuf;
    obs::RunObserver server;
    server.attachJournal(serverBuf);
    // Run metadata carries only replay-invariant knobs: the window
    // setting must not leak into the merged artifacts.
    server.emit(
        "serve/server", "run",
        {{"sessions",
          static_cast<std::int64_t>(script.sessions.size())},
         {"scale", opt.scale},
         {"mode", optModeName(opt.mode)},
         {"policy", policyKindName(opt.policy)}});

    std::vector<std::unique_ptr<ServeSession>> all(
        script.sessions.size());
    std::vector<ClosedShard> closed(script.sessions.size());
    std::vector<std::size_t> active; //!< open sessions, id order
    std::size_t nextArrival = 0;
    std::uint64_t tick = 0;
    std::vector<std::uint64_t> latencyNs; //!< never merged or journaled

    while (nextArrival < all.size() || !active.empty()) {
        // Idle fast-forward to the next arrival.
        if (active.empty() &&
            script.sessions[nextArrival].arrivalTick > tick)
            tick = script.sessions[nextArrival].arrivalTick;

        // Admit due arrivals, in id order, while the window has room.
        while (nextArrival < all.size() &&
               script.sessions[nextArrival].arrivalTick <= tick &&
               (window == 0 || active.size() < window)) {
            auto s = std::make_unique<ServeSession>(
                script.sessions[nextArrival], opt);
            s->observer.beginEpoch(0, 0.0);
            s->observer.emit(
                "serve/session", "session",
                {{"op", std::string("open")},
                 {"session",
                  static_cast<std::int64_t>(s->spec.id)},
                 {"dataset", s->spec.dataset},
                 {"kernel", s->spec.kernel}});
            server.metrics().counter("serve/sessions_opened").add();
            active.push_back(nextArrival);
            all[nextArrival] = std::move(s);
            ++nextArrival;
        }

        // Fetch (session id order): the telemetry of the epoch each
        // open session just finished. EpochDb and the shared store
        // are not thread-safe; every replay resumes here, in a
        // deterministic order, and runs only to the epoch fetched. A
        // session's decision latency is its own fetch plus its own
        // step, never another session's work.
        for (std::size_t i : active) {
            ServeSession &s = *all[i];
            const std::uint64_t t0 = opt.nowNs ? opt.nowNs() : 0;
            s.rec = &s.db.epoch(s.state.current, s.state.epoch);
            if (opt.nowNs)
                s.fetchNs = opt.nowNs() - t0;
        }

        // Step (session id order): advance each session one epoch and
        // answer with its next configuration.
        std::vector<std::size_t> still;
        still.reserve(active.size());
        for (std::size_t i : active) {
            ServeSession &s = *all[i];
            const std::uint64_t t0 = opt.nowNs ? opt.nowNs() : 0;
            stepEpoch(s.state, s.ctx, *s.rec);
            s.observer.emit(
                "serve/session", "session",
                {{"op", std::string("decision")},
                 {"session",
                  static_cast<std::int64_t>(s.spec.id)},
                 {"cfg", s.state.current.toSpec()}});
            server.metrics().counter("serve/decisions").add();
            server.metrics().counter("serve/epochs_served").add();
            ++out.decisions;
            ++out.epochsServed;
            if (opt.nowNs)
                latencyNs.push_back(s.fetchNs + (opt.nowNs() - t0));
            if (s.state.epoch >= s.epochsTotal) {
                closeSession(s, opt, server, out.outcomes[i],
                             closed[i]);
                out.epochsReplayed += s.db.epochsReplayed();
                all[i].reset(); // workload, trace and database
            } else {
                still.push_back(i);
            }
        }
        active.swap(still);
        ++tick;
        ++out.ticks;
    }

    // Merge: re-emit every shard in session id order through the
    // server journal (restamping sequence numbers) and fold the
    // per-session registries in. The result is independent of the
    // admission schedule and window — the shards themselves
    // already are, by stepEpoch()'s re-entrancy contract.
    for (ClosedShard &c : closed) {
        std::istringstream in(std::move(c.journal));
        Result<obs::JournalRead> shard = obs::readJournal(in);
        if (!shard.isOk())
            return Status::error("runServe: bad journal shard: " +
                                 shard.message());
        for (obs::JournalEvent &ev : shard.value().events)
            server.journal()->write(std::move(ev));
        server.metrics().merge(c.metrics);
    }
    server.flush();
    out.journalText = serverBuf.str();
    std::ostringstream metrics;
    server.metrics().writeText(metrics);
    out.metricsText = metrics.str();
    if (!latencyNs.empty()) {
        std::sort(latencyNs.begin(), latencyNs.end());
        out.decisionP50Ms = nearestRank(latencyNs, 50) / 1e6;
        out.decisionP99Ms = nearestRank(latencyNs, 99) / 1e6;
    }
    return out;
}

} // namespace sadapt::serve
