#include "store/epoch_store.hh"

#include <bit>
#include <filesystem>

#include "common/logging.hh"
#include "sim/counters.hh"
#include "store/fingerprint.hh"

namespace sadapt::store {

namespace {

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xffu);
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xffu);
}

void
putF64(std::string &out, double v)
{
    putU64(out, std::bit_cast<std::uint64_t>(v));
}

/** Bounds-checked little-endian reader over a record payload. */
class PayloadReader
{
  public:
    explicit PayloadReader(std::string_view payload)
        : data(payload)
    {
    }

    bool
    u32(std::uint32_t &v)
    {
        if (pos + 4 > data.size())
            return failed = true, false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(data[pos + i]))
                << (8 * i);
        pos += 4;
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        if (pos + 8 > data.size())
            return failed = true, false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(data[pos + i]))
                << (8 * i);
        pos += 8;
        return true;
    }

    bool
    f64(double &v)
    {
        std::uint64_t bits = 0;
        if (!u64(bits))
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }

    bool
    u8(std::uint8_t &v)
    {
        if (pos + 1 > data.size())
            return failed = true, false;
        v = static_cast<unsigned char>(data[pos++]);
        return true;
    }

    bool ok() const { return !failed; }
    bool atEnd() const { return pos == data.size(); }

  private:
    std::string_view data;
    std::size_t pos = 0;
    bool failed = false;
};

constexpr const char *storePath = "store";

} // namespace

std::string
encodeStoreRecord(const RecordKey &key, const EpochRecord &epoch)
{
    std::string out;
    const std::vector<double> counters = epoch.counters.toVector();
    out.reserve(32 + 4 + 4 + 8 + 7 * 8 + 1 + 4 + counters.size() * 8);

    putU32(out, key.schemaVersion);
    putU64(out, key.simSalt);
    putU64(out, key.fingerprint);
    putU32(out, key.configCode);
    putU32(out, key.epochIndex);
    putU32(out, key.epochCount);

    putU32(out, epoch.index);
    putU32(out, static_cast<std::uint32_t>(epoch.phase));
    putU64(out, epoch.cycles);
    putF64(out, epoch.seconds);
    putF64(out, epoch.flops);
    putF64(out, epoch.energy.core);
    putF64(out, epoch.energy.cache);
    putF64(out, epoch.energy.xbar);
    putF64(out, epoch.energy.dram);
    putF64(out, epoch.energy.background);
    out += static_cast<char>(epoch.telemetryValid ? 1 : 0);
    putU32(out, static_cast<std::uint32_t>(counters.size()));
    for (double c : counters)
        putF64(out, c);
    return out;
}

std::optional<std::uint32_t>
recordPayloadVersion(std::string_view payload)
{
    PayloadReader in(payload);
    std::uint32_t v = 0;
    if (!in.u32(v))
        return std::nullopt;
    return v;
}

Result<StoredCell>
decodeStoreRecord(std::string_view payload)
{
    PayloadReader in(payload);
    StoredCell cell;
    RecordKey &key = cell.key;
    if (!in.u32(key.schemaVersion))
        return Status::error("store: record payload too short");
    if (key.schemaVersion != storeSchemaVersion)
        return Status::error(
            str("store: unsupported schema version ",
                key.schemaVersion, " (expected ", storeSchemaVersion,
                ")"));
    in.u64(key.simSalt);
    in.u64(key.fingerprint);
    in.u32(key.configCode);
    in.u32(key.epochIndex);
    in.u32(key.epochCount);

    EpochRecord &ep = cell.epoch;
    std::uint32_t phase = 0;
    in.u32(ep.index);
    in.u32(phase);
    in.u64(ep.cycles);
    in.f64(ep.seconds);
    in.f64(ep.flops);
    in.f64(ep.energy.core);
    in.f64(ep.energy.cache);
    in.f64(ep.energy.xbar);
    in.f64(ep.energy.dram);
    in.f64(ep.energy.background);
    std::uint8_t valid = 0;
    in.u8(valid);
    std::uint32_t count = 0;
    in.u32(count);
    if (!in.ok())
        return Status::error("store: malformed record payload "
                             "(truncated key or epoch body)");
    ep.phase = static_cast<std::int32_t>(phase);
    ep.telemetryValid = valid != 0;
    if (count != PerfCounterSample::count())
        return Status::error(
            str("store: malformed record payload (", count,
                " counters, expected ", PerfCounterSample::count(),
                ")"));
    std::vector<double> counters(count, 0.0);
    for (std::uint32_t i = 0; i < count; ++i)
        in.f64(counters[i]);
    if (!in.ok() || !in.atEnd())
        return Status::error("store: malformed record payload "
                             "(counter block size mismatch)");
    ep.counters = counterSampleFromVector(counters);
    if (ep.index != key.epochIndex)
        return Status::error(
            str("store: record epoch body index ", ep.index,
                " disagrees with its key (", key.epochIndex, ")"));
    return cell;
}

std::size_t
residentBytes(const SimResult &res)
{
    return sizeof(SimResult) + res.epochs.size() * sizeof(EpochRecord);
}

Status
EpochStore::open(const std::string &path, const StoreOptions &opts)
{
    close();
    saltV = opts.simSalt != 0 ? opts.simSalt : buildSimSalt();
    maxResidentBytesV = opts.maxResidentBytes;

    ScanResult scan;
    SADAPT_TRY_STATUS(log.open(path, scan));
    statsV = StoreStats{};
    statsV.path = path;
    statsV.corruptRecords = scan.corruptRecords;
    statsV.tornTailBytes = scan.tornTailBytes;
    indexScannedRecords(scan);

    if (metricsV) {
        metricsV->counter("store/opens").add(1);
        metricsV->counter("store/corrupt_records")
            .add(statsV.corruptRecords);
        metricsV->counter("store/stale_records")
            .add(statsV.staleRecords);
        metricsV->gauge("store/disk_records")
            .set(static_cast<double>(statsV.diskRecords));
        metricsV->gauge("store/disk_results")
            .set(static_cast<double>(statsV.diskResults));
    }
    emitOpenEvent();
    return Status::ok();
}

void
EpochStore::indexScannedRecords(const ScanResult &scan)
{
    for (const ScanRecord &rec : scan.records) {
        Result<StoredCell> cell = decodeStoreRecord(rec.payload);
        if (!cell.isOk()) {
            ++statsV.staleRecords;
            continue;
        }
        if (cell.value().key.simSalt != saltV) {
            ++statsV.staleRecords;
            continue;
        }
        indexCell(cell.value(), rec.offset);
    }
    for (const auto &[key, entry] : diskIndex)
        if (entry.complete())
            ++statsV.diskResults;
}

void
EpochStore::indexCell(const StoredCell &cell, std::uint64_t offset)
{
    const RecordKey &key = cell.key;
    if (key.epochCount == 0 || key.epochIndex >= key.epochCount) {
        ++statsV.staleRecords;
        return;
    }
    DiskEntry &entry =
        diskIndex[ResultKey{key.fingerprint, key.configCode}];
    if (entry.epochCount == 0) {
        entry.epochCount = key.epochCount;
        entry.offsets.assign(key.epochCount, -1);
    } else if (entry.epochCount != key.epochCount) {
        warn(str("store: ", path(), ": record for config ",
                 key.configCode, " claims ", key.epochCount,
                 " epochs where earlier records claim ",
                 entry.epochCount, "; ignoring it"));
        ++statsV.staleRecords;
        return;
    }
    if (entry.offsets[key.epochIndex] < 0) {
        ++entry.presentCount;
        ++statsV.diskRecords;
    }
    // Duplicate cells (e.g. from a pre-compact era): latest wins.
    entry.offsets[key.epochIndex] =
        static_cast<std::int64_t>(offset);
}

std::optional<SimResult>
EpochStore::get(std::uint64_t fingerprint, const HwConfig &cfg)
{
    SADAPT_ASSERT(isOpen(), "get() on a closed EpochStore");
    const ResultKey key{fingerprint, cfg.encode()};

    if (auto it = lruIndex.find(key); it != lruIndex.end()) {
        lruList.splice(lruList.begin(), lruList, it->second);
        ++statsV.hits;
        statsV.servedEpochCells += it->second->second.epochs.size();
        if (metricsV) {
            metricsV->counter("store/hits").add(1);
            metricsV->counter("store/served_cells")
                .add(it->second->second.epochs.size());
        }
        return it->second->second;
    }

    const auto disk = diskIndex.find(key);
    if (disk != diskIndex.end() && disk->second.complete()) {
        SimResult res;
        res.config = cfg;
        res.epochs.reserve(disk->second.epochCount);
        bool intact = true;
        for (std::int64_t offset : disk->second.offsets) {
            Result<std::string> payload =
                log.readAt(static_cast<std::uint64_t>(offset));
            if (!payload.isOk()) {
                warn(str("store: ", path(), ": ",
                         payload.status().message(),
                         "; treating lookup as a miss"));
                intact = false;
                break;
            }
            Result<StoredCell> cell = decodeStoreRecord(payload.value());
            if (!cell.isOk()) {
                warn(str("store: ", path(), ": ",
                         cell.status().message(),
                         "; treating lookup as a miss"));
                intact = false;
                break;
            }
            res.epochs.push_back(cell.value().epoch);
        }
        statsV.diskCellReads += res.epochs.size();
        if (metricsV)
            metricsV->counter("store/disk_cell_reads")
                .add(res.epochs.size());
        if (intact) {
            ++statsV.hits;
            statsV.servedEpochCells += res.epochs.size();
            if (metricsV) {
                metricsV->counter("store/hits").add(1);
                metricsV->counter("store/served_cells")
                    .add(res.epochs.size());
            }
            touchLru(key, res);
            return res;
        }
    }

    ++statsV.misses;
    if (metricsV)
        metricsV->counter("store/misses").add(1);
    return std::nullopt;
}

void
EpochStore::put(std::uint64_t fingerprint, const HwConfig &cfg,
                const SimResult &res)
{
    SADAPT_ASSERT(isOpen(), "put() on a closed EpochStore");
    if (res.epochs.empty())
        return;
    const ResultKey key{fingerprint, cfg.encode()};
    const auto epochCount =
        static_cast<std::uint32_t>(res.epochs.size());

    DiskEntry &entry = diskIndex[key];
    if (entry.epochCount == 0) {
        entry.epochCount = epochCount;
        entry.offsets.assign(epochCount, -1);
    } else if (entry.epochCount != epochCount) {
        warn(str("store: ", path(), ": put() of ", epochCount,
                 " epochs for config ", cfg.encode(),
                 " conflicts with ", entry.epochCount,
                 " stored epochs; not storing it"));
        return;
    }

    const bool wasComplete = entry.complete();
    std::uint64_t appended = 0;
    // True while every cell sits at its own index, so `res` equals
    // what get() would decode from disk once the entry is complete.
    bool inOrder = true;
    for (std::size_t i = 0; i < res.epochs.size(); ++i) {
        const EpochRecord &epoch = res.epochs[i];
        inOrder = inOrder && epoch.index == i;
        if (epoch.index >= epochCount) {
            warn(str("store: ", path(), ": epoch index ", epoch.index,
                     " out of range in put(); skipping that cell"));
            continue;
        }
        if (entry.offsets[epoch.index] >= 0)
            continue; // already durable
        RecordKey rkey;
        rkey.simSalt = saltV;
        rkey.fingerprint = fingerprint;
        rkey.configCode = cfg.encode();
        rkey.epochIndex = epoch.index;
        rkey.epochCount = epochCount;
        const std::uint64_t offset =
            log.append(encodeStoreRecord(rkey, epoch));
        entry.offsets[epoch.index] =
            static_cast<std::int64_t>(offset);
        ++entry.presentCount;
        ++appended;
    }
    if (appended > 0) {
        ++statsV.putResults;
        statsV.putRecords += appended;
        statsV.diskRecords += appended;
        if (!wasComplete && entry.complete())
            ++statsV.diskResults;
        if (metricsV) {
            metricsV->counter("store/put_records").add(appended);
            metricsV->gauge("store/disk_records")
                .set(static_cast<double>(statsV.diskRecords));
            metricsV->gauge("store/disk_results")
                .set(static_cast<double>(statsV.diskResults));
        }
    }
    // Resident only what the disk can serve too, so hit or miss never
    // depends on LRU state.
    if (inOrder && entry.complete())
        touchLru(key, res);
}

void
EpochStore::touchLru(const ResultKey &key, SimResult res)
{
    residentBytesV += residentBytes(res);
    if (auto it = lruIndex.find(key); it != lruIndex.end()) {
        lruList.splice(lruList.begin(), lruList, it->second);
        residentBytesV -= residentBytes(it->second->second);
        it->second->second = std::move(res);
    } else {
        lruList.emplace_front(key, std::move(res));
        lruIndex[key] = lruList.begin();
    }
    while (residentBytesV > maxResidentBytesV) {
        residentBytesV -= residentBytes(lruList.back().second);
        lruIndex.erase(lruList.back().first);
        lruList.pop_back();
        ++statsV.evictions;
        if (metricsV)
            metricsV->counter("store/evictions").add(1);
    }
}

void
EpochStore::flush()
{
    if (!isOpen())
        return;
    const Status synced = log.sync();
    if (!synced.isOk())
        warn(str("store: ", path(),
                 ": flush is not durable: ", synced.message()));
    const bool changed = statsV.hits != flushedHits ||
        statsV.misses != flushedMisses ||
        statsV.putRecords != flushedPutRecords;
    if (observerV && changed) {
        observerV->emit(
            storePath, "store",
            {{"op", std::string("flush")},
             {"hits", static_cast<std::int64_t>(statsV.hits)},
             {"misses", static_cast<std::int64_t>(statsV.misses)},
             {"put_records",
              static_cast<std::int64_t>(statsV.putRecords)},
             {"disk_records",
              static_cast<std::int64_t>(statsV.diskRecords)},
             {"disk_results",
              static_cast<std::int64_t>(statsV.diskResults)}});
    }
    flushedHits = statsV.hits;
    flushedMisses = statsV.misses;
    flushedPutRecords = statsV.putRecords;
}

Status
EpochStore::compact()
{
    if (!isOpen())
        return Status::error("store: compact() on a closed store");

    // Materialize the survivors before touching the file; diskIndex is
    // a sorted map, so the rewrite order is deterministic.
    std::vector<std::string> survivors;
    survivors.reserve(statsV.diskRecords);
    for (const auto &[key, entry] : diskIndex) {
        for (std::int64_t offset : entry.offsets) {
            if (offset < 0)
                continue;
            Result<std::string> payload =
                log.readAt(static_cast<std::uint64_t>(offset));
            SADAPT_TRY_STATUS(payload.status());
            survivors.push_back(std::move(payload.value()));
        }
    }

    const std::string target = path();
    const std::string tmp = target + ".compact";
    log.close();
    {
        namespace fs = std::filesystem;
        std::error_code ec;
        fs::remove(tmp, ec); // a stale temp from a crashed compact
        RecordLog fresh;
        ScanResult scan;
        SADAPT_TRY_STATUS(fresh.open(tmp, scan));
        for (const std::string &payload : survivors)
            fresh.append(payload);
        // Reclaim-safe ordering: the replacement file is fully
        // durable *before* the rename makes it visible, and the
        // rename itself is made durable by syncing the directory —
        // so at every instant the target name resolves to either the
        // complete old file or the complete new one.
        SADAPT_TRY_STATUS(fresh.sync());
        fresh.close();
        fs::rename(tmp, target, ec);
        if (ec)
            return Status::error("store: compact rename failed: " +
                                 ec.message());
        SADAPT_TRY_STATUS(syncParentDir(target));
    }

    // Reindex from the rewritten file, preserving cumulative traffic
    // stats and the resident LRU (its contents are still valid).
    const StoreStats traffic = statsV;
    diskIndex.clear();
    ScanResult scan;
    SADAPT_TRY_STATUS(log.open(target, scan));
    statsV = StoreStats{};
    statsV.path = target;
    statsV.hits = traffic.hits;
    statsV.misses = traffic.misses;
    statsV.evictions = traffic.evictions;
    statsV.putResults = traffic.putResults;
    statsV.putRecords = traffic.putRecords;
    statsV.servedEpochCells = traffic.servedEpochCells;
    statsV.diskCellReads = traffic.diskCellReads;
    statsV.corruptRecords = scan.corruptRecords;
    statsV.tornTailBytes = scan.tornTailBytes;
    indexScannedRecords(scan);
    if (metricsV) {
        metricsV->counter("store/compactions").add(1);
        metricsV->gauge("store/disk_records")
            .set(static_cast<double>(statsV.diskRecords));
        metricsV->gauge("store/disk_results")
            .set(static_cast<double>(statsV.diskResults));
    }
    return Status::ok();
}

void
EpochStore::emitOpenEvent()
{
    if (!observerV)
        return;
    observerV->emit(
        storePath, "store",
        {{"op", std::string("open")},
         {"file", statsV.path},
         {"disk_records",
          static_cast<std::int64_t>(statsV.diskRecords)},
         {"disk_results",
          static_cast<std::int64_t>(statsV.diskResults)},
         {"stale_records",
          static_cast<std::int64_t>(statsV.staleRecords)},
         {"corrupt_records",
          static_cast<std::int64_t>(statsV.corruptRecords)},
         {"torn_tail_bytes",
          static_cast<std::int64_t>(statsV.tornTailBytes)}});
}

void
EpochStore::attachMetrics(obs::MetricRegistry *metrics)
{
    metricsV = metrics;
    observerV = nullptr;
}

void
EpochStore::attachObserver(obs::RunObserver *obs)
{
    observerV = obs;
    metricsV = obs != nullptr ? &obs->metrics() : nullptr;
}

void
EpochStore::close()
{
    if (isOpen())
        log.flush();
    log.close();
    diskIndex.clear();
    lruList.clear();
    lruIndex.clear();
    residentBytesV = 0;
    statsV = StoreStats{};
    flushedHits = flushedMisses = flushedPutRecords = 0;
}

} // namespace sadapt::store
