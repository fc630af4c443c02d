/**
 * @file
 * The structured event journal: an append-only, schema-versioned JSONL
 * record of everything the SparseAdapt control loop saw and decided.
 *
 * Every event is one flat JSON object per line with a fixed envelope —
 * schema version ("v"), sequence number ("seq"), epoch id ("epoch"),
 * simulated time in seconds ("t"), emitting component path ("path")
 * and event type ("type") — followed by free-form scalar payload
 * fields. Schema v1 event types:
 *
 *   run       run metadata (kernel, dataset, mode, policy, ...)
 *   epoch     one epoch executed: cfg spec, seconds, flops, metric
 *   prediction  per-tree model output: one field per parameter slug
 *               (l1_sharing, l2_sharing, l1_capacity, l2_capacity,
 *               clock, prefetch) holding the predicted value index
 *   policy    one hysteresis decision: param, from, to, accepted,
 *             cost_s, flush
 *   reconfig  an applied configuration switch: from, to (spec
 *             strings), cost_s, cost_j, flush_l1, flush_l2
 *   guard     telemetry-guard verdict: verdict (ok|suspect|bad|
 *             missing), flagged count
 *   watchdog  a degraded-mode state transition: from, to
 *             (normal|reverted), streak/held context
 *   fault     an injected fault: kind, detail
 *   store     a persistent epoch-store lifecycle point: op
 *             (open|flush) plus cumulative hit/miss/record stats
 *
 * Schema v2 adds one event type (readers accept v1 and v2 lines; the
 * writer stamps v2):
 *
 *   session   a serve-layer session lifecycle point: op
 *             (open|close|decision) plus the integer session id —
 *             open/close bracket one tenant's event stream inside a
 *             merged multi-session journal, decision marks one
 *             reconfiguration answer returned to that tenant
 *
 * Benchmarks deliberately do not journal store events (their journals
 * must stay byte-identical across cold- and warm-store runs); the
 * interactive CLI does.
 *
 * The journal is an *observer*: attaching or detaching a writer must
 * never change a single control decision (the determinism guard test
 * in tests/test_obs_determinism.cc enforces this).
 */

#ifndef SADAPT_OBS_JOURNAL_HH
#define SADAPT_OBS_JOURNAL_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.hh"

namespace sadapt::obs {

/** Version stamped into every journal event the writer emits. */
inline constexpr std::int64_t journalSchemaVersion = 2;

/** Oldest schema version readJournal() still accepts. */
inline constexpr std::int64_t journalMinSchemaVersion = 1;

/** One payload field value; integers stay exact through round-trips. */
using FieldValue =
    std::variant<std::int64_t, double, std::string, bool>;

/** One journal event: envelope plus ordered payload fields. */
struct JournalEvent
{
    /** Schema version the line carried (writer restamps on write). */
    std::int64_t schemaVersion = journalSchemaVersion;
    std::uint64_t seq = 0;
    std::uint64_t epoch = 0;
    double simTime = 0.0; //!< seconds of simulated time ("t")
    std::string path;     //!< emitting component, e.g. "adapt/policy"
    std::string type;

    std::vector<std::pair<std::string, FieldValue>> fields;

    /** Payload field by key; null when absent. */
    const FieldValue *field(std::string_view key) const;

    /** Typed accessors; nullopt when absent or the wrong type. */
    std::optional<std::int64_t> intField(std::string_view key) const;
    std::optional<double> numField(std::string_view key) const;
    std::optional<std::string> strField(std::string_view key) const;
    std::optional<bool> boolField(std::string_view key) const;
};

/**
 * Serializes events as one JSON object per line to a caller-owned
 * stream, stamping schema version and sequence numbers. Writing is
 * append-only; the writer never seeks.
 */
class JournalWriter
{
  public:
    explicit JournalWriter(std::ostream &out)
        : outV(&out)
    {
    }

    /** Append one event (ev.seq is overwritten with the next seq). */
    void write(JournalEvent ev);

    /**
     * Append another writer's output line by line, renumbering each
     * `{"v":2,"seq":N,` prefix with this writer's next seq; the rest
     * of every line is copied byte for byte. A line without that
     * prefix, or without its newline, is an error that appends
     * nothing.
     */
    [[nodiscard]] Status appendShard(std::string_view text);

    std::uint64_t eventsWritten() const { return seqV; }

  private:
    std::ostream *outV;
    std::uint64_t seqV = 0;
};

/** Result of reading a journal back. */
struct JournalRead
{
    std::vector<JournalEvent> events;

    /**
     * True when the final line was a partial record (the writing
     * process died mid-append); the events before it are intact and
     * returned.
     */
    bool truncated = false;
};

/**
 * Parse a JSONL journal. A malformed line anywhere but the end of the
 * file, an unsupported schema version, or a missing envelope key is a
 * recoverable error; a partial *final* line is recovered (see
 * JournalRead::truncated).
 */
[[nodiscard]] Result<JournalRead> readJournal(std::istream &in);

/** readJournal() from a file path. */
[[nodiscard]] Result<JournalRead>
readJournalFile(const std::string &path);

/** The schema v2 event types, for validators and tooling. */
const std::vector<std::string> &journalEventTypes();

} // namespace sadapt::obs

#endif // SADAPT_OBS_JOURNAL_HH
