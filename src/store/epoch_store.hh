/**
 * @file
 * EpochStore: the persistent, content-addressed epoch-result store.
 *
 * One store file is a RecordLog whose payloads each hold a single
 * *epoch cell*: the EpochRecord of one epoch of one (workload,
 * configuration) replay, addressed by
 *
 *   (store schema version, simulator salt, workload fingerprint,
 *    HwConfig::encode(), epoch index, epoch count)
 *
 * Storing per-cell rather than per-result means a partially flushed
 * result survives a crash: on resume only the missing cells are
 * simulated and put() appends only those, so a store never accumulates
 * duplicate cells in normal operation (compact() drops any that slip
 * in, along with stale and CRC-damaged records).
 *
 * get() only serves a result when *every* cell of the replay is
 * present and keyed by this build's salt — a stale or torn store can
 * cost re-simulation, never wrong results. The store is an observer
 * on the sweep path: attaching one changes which replays run, but
 * every served result is bit-identical to the replay it memoizes
 * (enforced by the warm/cold determinism tests).
 */

#ifndef SADAPT_STORE_EPOCH_STORE_HH
#define SADAPT_STORE_EPOCH_STORE_HH

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hh"
#include "obs/metrics.hh"
#include "obs/observer.hh"
#include "sim/transmuter.hh"
#include "store/record_log.hh"

namespace sadapt::store {

/**
 * Version of the record *payload* layout (the key header and the
 * serialized EpochRecord). Bump whenever the payload encoding or the
 * meaning of any keyed field changes; records with any other version
 * are ignored as stale.
 */
inline constexpr std::uint32_t storeSchemaVersion = 1;

/** The content address of one stored epoch cell. */
struct RecordKey
{
    std::uint32_t schemaVersion = storeSchemaVersion;
    std::uint64_t simSalt = 0;     //!< buildSimSalt() of the writer
    std::uint64_t fingerprint = 0; //!< workloadFingerprint()
    std::uint32_t configCode = 0;  //!< HwConfig::encode()
    std::uint32_t epochIndex = 0;
    std::uint32_t epochCount = 0;  //!< epochs in the full replay
};

/** One decoded record: its address plus the epoch it stores. */
struct StoredCell
{
    RecordKey key;
    EpochRecord epoch;
};

/** Serialize one epoch cell into a record payload. */
std::string encodeStoreRecord(const RecordKey &key,
                              const EpochRecord &epoch);

/**
 * Parse a record payload. Malformed payloads (short, oversized, or an
 * unsupported schema version whose layout we therefore cannot trust)
 * are recoverable errors; sadapt_check's store validator reports them
 * without repairing anything.
 */
[[nodiscard]] Result<StoredCell>
decodeStoreRecord(std::string_view payload);

/**
 * The schema version field of a record payload, readable even when the
 * version is unsupported (so validators can report it by name); null
 * when the payload is shorter than the field.
 */
std::optional<std::uint32_t>
recordPayloadVersion(std::string_view payload);

/** Tuning and keying knobs of one EpochStore instance. */
struct StoreOptions
{
    /**
     * Simulator salt folded into every key; 0 means buildSimSalt().
     * Tests and fixture generators override it to get byte-stable
     * files independent of the build revision.
     */
    std::uint64_t simSalt = 0;

    /**
     * In-memory LRU capacity, in decoded bytes (residentBytes() of
     * each resident SimResult). The default holds about 290k epoch
     * cells, so a sweep's whole working set stays resident and a
     * repeated get() never decodes from disk.
     */
    std::size_t maxResidentBytes = std::size_t{64} << 20;
};

/** Decoded size of a result, as the resident LRU charges it. */
std::size_t residentBytes(const SimResult &res);

/** Cumulative statistics of one EpochStore instance. */
struct StoreStats
{
    std::uint64_t hits = 0;       //!< get() served from memory or disk
    std::uint64_t misses = 0;     //!< get() that found no complete result
    std::uint64_t evictions = 0;  //!< results dropped from the LRU
    std::uint64_t putResults = 0; //!< put() calls that appended records
    std::uint64_t putRecords = 0; //!< epoch-cell records appended
    std::uint64_t servedEpochCells = 0; //!< cells of all served results
    std::uint64_t diskCellReads = 0; //!< cells get() decoded from disk

    std::uint64_t diskRecords = 0; //!< usable cells indexed from disk
    std::uint64_t diskResults = 0; //!< complete results indexed on disk
    std::uint64_t staleRecords = 0; //!< wrong salt/schema or malformed
    std::uint64_t corruptRecords = 0; //!< CRC-mismatch frames skipped
    std::uint64_t tornTailBytes = 0;  //!< bytes truncated on open

    std::string path;
};

/**
 * The store proper: a RecordLog plus an in-memory index of usable
 * cells and an LRU of materialized SimResults. Not thread-safe; the
 * sweep engine calls it only from its deterministic commit points.
 */
class EpochStore
{
  public:
    EpochStore() = default;

    /**
     * Open (creating if missing) a store file, recovering a torn tail
     * and indexing every record usable under this build's salt. Stale
     * and corrupt records are counted and skipped, never served.
     */
    [[nodiscard]] Status open(const std::string &path,
                              const StoreOptions &opts = {});

    bool isOpen() const { return log.isOpen(); }
    const std::string &path() const { return log.path(); }
    std::uint64_t simSalt() const { return saltV; }

    /**
     * Look up the full replay of cfg under a workload fingerprint.
     * Returns the result only when all of its epoch cells are stored;
     * a partial result is a miss (the caller re-simulates and put()
     * completes the missing cells).
     */
    std::optional<SimResult> get(std::uint64_t fingerprint,
                                 const HwConfig &cfg);

    /**
     * Store a replay result, appending only the epoch cells not
     * already on disk (so re-putting after a partial flush or a warm
     * hit is cheap and never duplicates records).
     */
    void put(std::uint64_t fingerprint, const HwConfig &cfg,
             const SimResult &res);

    /**
     * Durability checkpoint: fsync the record log (crash-safety
     * section of DESIGN.md promises completed cells survive power
     * loss, not just process death) and journal a "store" flush event
     * when an observer is attached. Sweeps call this at phase
     * boundaries.
     */
    void flush();

    /**
     * Rewrite the log keeping exactly the indexed usable cells (drops
     * stale, corrupt and duplicate records), then reopen it. Keys are
     * rewritten in sorted order, so compacting twice is a no-op and
     * equal stores compact to byte-identical files.
     */
    [[nodiscard]] Status compact();

    const StoreStats &stats() const { return statsV; }

    /**
     * Export hit/miss/eviction/put counters under store/ into a
     * registry. Pure observer; pass null to detach. Benchmarks attach
     * the registry alone so journal byte-identity across cold and
     * warm runs is preserved.
     */
    void attachMetrics(obs::MetricRegistry *metrics);

    /**
     * As attachMetrics(&obs->metrics()), plus "store" journal events
     * on open and flush. The interactive CLI attaches the full
     * observer; sweeps must not (see attachMetrics).
     */
    void attachObserver(obs::RunObserver *obs);

    void close();

  private:
    /** Index key of one (workload, configuration) replay. */
    using ResultKey = std::pair<std::uint64_t, std::uint32_t>;

    /** Disk cells of one replay, by epoch index (-1 = absent). */
    struct DiskEntry
    {
        std::uint32_t epochCount = 0;
        std::vector<std::int64_t> offsets;
        std::uint32_t presentCount = 0;

        bool
        complete() const
        {
            return epochCount > 0 && presentCount == epochCount;
        }
    };

    void indexScannedRecords(const ScanResult &scan);
    void indexCell(const StoredCell &cell, std::uint64_t offset);
    void touchLru(const ResultKey &key, SimResult res);
    void emitOpenEvent();

    RecordLog log;
    std::uint64_t saltV = 0;
    std::size_t maxResidentBytesV = 0;
    std::size_t residentBytesV = 0; //!< residentBytes() of lruList

    //!< std::map: deterministic iteration for compact().
    std::map<ResultKey, DiskEntry> diskIndex;

    std::list<std::pair<ResultKey, SimResult>> lruList;
    std::map<ResultKey,
             std::list<std::pair<ResultKey, SimResult>>::iterator>
        lruIndex;

    StoreStats statsV;
    std::uint64_t flushedHits = 0; //!< stats already journaled
    std::uint64_t flushedMisses = 0;
    std::uint64_t flushedPutRecords = 0;

    obs::MetricRegistry *metricsV = nullptr;
    obs::RunObserver *observerV = nullptr;
};

} // namespace sadapt::store

#endif // SADAPT_STORE_EPOCH_STORE_HH
