/**
 * @file
 * Persistent epoch-result store tests: CRC framing, torn-tail and
 * corrupt-record recovery in the record log, workload fingerprint
 * sensitivity, the EpochStore cache contract (round trip, salt
 * isolation, LRU, partial-put resume, compaction) and the EpochDb
 * warm-start determinism guarantees (DESIGN.md section 10).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "adapt/epoch_db.hh"
#include "common/rng.hh"
#include "sparse/generators.hh"
#include "store/crc32.hh"
#include "store/epoch_store.hh"
#include "store/fingerprint.hh"
#include "store/record_log.hh"
#include "scratch_dir.hh"

using namespace sadapt;

namespace {

namespace fs = std::filesystem;

/** Fresh path under the test temp dir (removed if left over). */
std::string
tempStorePath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    fs::remove(path);
    fs::remove(path + ".compact");
    return path;
}

Workload
smallWorkload(std::uint64_t epoch_fp = 100)
{
    static Rng rng(1);
    CsrMatrix a = makeUniformRandom(128, 1200, rng);
    WorkloadOptions wo;
    wo.epochFpOps = epoch_fp;
    SparseVector x = SparseVector::random(128, 0.5, rng);
    return makeSpMSpVWorkload("test", a, x, wo);
}

/** Byte-stable salt for every store file a test writes. */
constexpr std::uint64_t testSalt = 0x5ad7;

store::StoreOptions
testOptions(std::size_t resident = 64)
{
    store::StoreOptions o;
    o.simSalt = testSalt;
    o.maxResidentResults = resident;
    return o;
}

/** Flip one byte of a file in place (simulates media corruption). */
void
flipByte(const std::string &path, std::uint64_t offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(c ^ 0xff));
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
expectResultsEqual(const SimResult &a, const SimResult &b)
{
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        const EpochRecord &x = a.epochs[i];
        const EpochRecord &y = b.epochs[i];
        EXPECT_EQ(x.index, y.index);
        EXPECT_EQ(x.phase, y.phase);
        EXPECT_EQ(x.cycles, y.cycles);
        EXPECT_EQ(x.seconds, y.seconds);
        EXPECT_EQ(x.flops, y.flops);
        EXPECT_EQ(x.energy.core, y.energy.core);
        EXPECT_EQ(x.energy.dram, y.energy.dram);
        EXPECT_EQ(x.telemetryValid, y.telemetryValid);
        EXPECT_EQ(x.counters.toVector(), y.counters.toVector());
    }
    EXPECT_EQ(a.totalSeconds(), b.totalSeconds());
    EXPECT_EQ(a.totalEnergy(), b.totalEnergy());
}

} // namespace

// ---------------------------------------------------------------- crc32

TEST(Crc32, KnownVectors)
{
    // The standard reflected IEEE check value.
    const char msg[] = "123456789";
    EXPECT_EQ(store::crc32(msg, 9), 0xcbf43926u);
    EXPECT_EQ(store::crc32("", 0), 0u);
    EXPECT_EQ(store::crc32("a", 1), 0xe8b7be43u);
}

TEST(Crc32, SensitiveToEveryByte)
{
    std::string buf(64, '\x5a');
    const std::uint32_t base = store::crc32(buf.data(), buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] ^= 1;
        EXPECT_NE(store::crc32(buf.data(), buf.size()), base);
        buf[i] ^= 1;
    }
}

// ----------------------------------------------------------- record log

TEST(RecordLog, RoundTrip)
{
    const std::string path = tempStorePath("log_roundtrip.store");
    const std::vector<std::string> payloads = {
        "alpha", std::string(1, '\0') + "binary\xff", "", "gamma"};
    {
        store::RecordLog log;
        store::ScanResult scan;
        ASSERT_TRUE(log.open(path, scan).isOk());
        EXPECT_TRUE(scan.records.empty());
        for (const std::string &p : payloads)
            log.append(p);
        log.flush();
    }
    store::RecordLog log;
    store::ScanResult scan;
    ASSERT_TRUE(log.open(path, scan).isOk());
    ASSERT_EQ(scan.records.size(), payloads.size());
    EXPECT_EQ(scan.corruptRecords, 0u);
    EXPECT_EQ(scan.tornTailBytes, 0u);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        EXPECT_EQ(scan.records[i].payload, payloads[i]);
        const Result<std::string> back =
            log.readAt(scan.records[i].offset);
        ASSERT_TRUE(back.isOk());
        EXPECT_EQ(back.value(), payloads[i]);
    }
}

TEST(RecordLog, TornTailTruncatedOnOpen)
{
    const std::string path = tempStorePath("log_torn.store");
    {
        store::RecordLog log;
        store::ScanResult scan;
        ASSERT_TRUE(log.open(path, scan).isOk());
        log.append("first record");
        log.append("second record that will be torn");
        log.flush();
    }
    const std::uint64_t full = fs::file_size(path);
    fs::resize_file(path, full - 5); // cut into the last payload

    store::RecordLog log;
    store::ScanResult scan;
    ASSERT_TRUE(log.open(path, scan).isOk());
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].payload, "first record");
    EXPECT_GT(scan.tornTailBytes, 0u);
    EXPECT_EQ(fs::file_size(path), scan.validEnd);

    // The log continues from the last good frame.
    const std::uint64_t off = log.append("replacement");
    log.flush();
    const Result<std::string> back = log.readAt(off);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), "replacement");
}

TEST(RecordLog, CorruptRecordSkippedNotFatal)
{
    const std::string path = tempStorePath("log_corrupt.store");
    std::uint64_t second_offset = 0;
    {
        store::RecordLog log;
        store::ScanResult scan;
        ASSERT_TRUE(log.open(path, scan).isOk());
        log.append("record zero");
        second_offset = log.append("record one");
        log.append("record two");
        log.flush();
    }
    // Flip a payload byte of the middle record (CRC now mismatches).
    flipByte(path, second_offset + 12 + 3);

    store::RecordLog log;
    store::ScanResult scan;
    ASSERT_TRUE(log.open(path, scan).isOk());
    EXPECT_EQ(scan.corruptRecords, 1u);
    EXPECT_EQ(scan.tornTailBytes, 0u);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0].payload, "record zero");
    EXPECT_EQ(scan.records[1].payload, "record two");
    // A direct read of the damaged frame reports the mismatch too.
    EXPECT_FALSE(log.readAt(second_offset).isOk());
}

// ---------------------------------------------------------- fingerprint

TEST(Fingerprint, StableForIdenticalWorkloads)
{
    const Workload wl = smallWorkload();
    EXPECT_EQ(store::workloadFingerprint(wl.trace, wl.params,
                                         wl.l1Type),
              store::workloadFingerprint(wl.trace, wl.params,
                                         wl.l1Type));
}

TEST(Fingerprint, SensitiveToWorkloadAndParams)
{
    const Workload wl = smallWorkload(100);
    const std::uint64_t base =
        store::workloadFingerprint(wl.trace, wl.params, wl.l1Type);

    // Different epoch granularity re-keys the whole store entry.
    const Workload other = smallWorkload(200);
    EXPECT_NE(store::workloadFingerprint(other.trace, other.params,
                                         other.l1Type),
              base);

    // So does the compile-time L1 memory type alone.
    EXPECT_NE(store::workloadFingerprint(wl.trace, wl.params,
                                         MemType::Spm),
              base);

    // And any run parameter folded into the key.
    RunParams p = wl.params;
    p.memBandwidth *= 2.0;
    EXPECT_NE(store::workloadFingerprint(wl.trace, p, wl.l1Type),
              base);
}

// ----------------------------------------------------------- EpochStore

TEST(EpochStore, RoundTripThroughMemoryAndDisk)
{
    const std::string path = tempStorePath("store_roundtrip.store");
    Workload wl = smallWorkload();
    EpochDb db(wl);
    const SimResult res = db.result(baselineConfig());
    const std::uint64_t fp =
        store::workloadFingerprint(wl.trace, wl.params, wl.l1Type);

    {
        store::EpochStore st;
        ASSERT_TRUE(st.open(path, testOptions()).isOk());
        EXPECT_FALSE(st.get(fp, baselineConfig()).has_value());
        EXPECT_EQ(st.stats().misses, 1u);
        st.put(fp, baselineConfig(), res);
        EXPECT_EQ(st.stats().putRecords, res.epochs.size());
        // Served from the in-memory LRU.
        const auto hit = st.get(fp, baselineConfig());
        ASSERT_TRUE(hit.has_value());
        expectResultsEqual(*hit, res);
        st.flush();
    }

    // Reopen: served from disk, bit-identical to the replay.
    store::EpochStore st;
    ASSERT_TRUE(st.open(path, testOptions()).isOk());
    EXPECT_EQ(st.stats().diskResults, 1u);
    EXPECT_EQ(st.stats().diskRecords, res.epochs.size());
    const auto hit = st.get(fp, baselineConfig());
    ASSERT_TRUE(hit.has_value());
    expectResultsEqual(*hit, res);
    EXPECT_EQ(st.stats().hits, 1u);

    // A different configuration or workload is a miss, not a near hit.
    EXPECT_FALSE(st.get(fp, maxConfig()).has_value());
    EXPECT_FALSE(st.get(fp + 1, baselineConfig()).has_value());
}

TEST(EpochStore, WrongSaltNeverServes)
{
    const std::string path = tempStorePath("store_salt.store");
    Workload wl = smallWorkload();
    EpochDb db(wl);
    const SimResult res = db.result(baselineConfig());
    const std::uint64_t fp =
        store::workloadFingerprint(wl.trace, wl.params, wl.l1Type);
    {
        store::EpochStore st;
        ASSERT_TRUE(st.open(path, testOptions()).isOk());
        st.put(fp, baselineConfig(), res);
        st.flush();
    }
    store::StoreOptions other = testOptions();
    other.simSalt = testSalt + 1;
    store::EpochStore st;
    ASSERT_TRUE(st.open(path, other).isOk());
    EXPECT_EQ(st.stats().staleRecords, res.epochs.size());
    EXPECT_EQ(st.stats().diskResults, 0u);
    EXPECT_FALSE(st.get(fp, baselineConfig()).has_value());
}

TEST(EpochStore, LruEvictionKeepsDiskCopies)
{
    const std::string path = tempStorePath("store_lru.store");
    Workload wl = smallWorkload();
    EpochDb db(wl);
    const SimResult r0 = db.result(baselineConfig());
    const SimResult r1 = db.result(maxConfig());
    const std::uint64_t fp =
        store::workloadFingerprint(wl.trace, wl.params, wl.l1Type);

    store::EpochStore st;
    ASSERT_TRUE(st.open(path, testOptions(1)).isOk());
    st.put(fp, baselineConfig(), r0);
    st.put(fp, maxConfig(), r1); // evicts r0 from the LRU
    EXPECT_GE(st.stats().evictions, 1u);

    // Both results still served (the evicted one re-read from disk).
    const auto h0 = st.get(fp, baselineConfig());
    const auto h1 = st.get(fp, maxConfig());
    ASSERT_TRUE(h0.has_value());
    ASSERT_TRUE(h1.has_value());
    expectResultsEqual(*h0, r0);
    expectResultsEqual(*h1, r1);
}

TEST(EpochStore, PartialResultResumesWithOnlyMissingCells)
{
    const std::string path = tempStorePath("store_resume.store");
    Workload wl = smallWorkload();
    EpochDb db(wl);
    const SimResult res = db.result(baselineConfig());
    ASSERT_GE(res.epochs.size(), 2u);
    const std::uint64_t fp =
        store::workloadFingerprint(wl.trace, wl.params, wl.l1Type);
    {
        store::EpochStore st;
        ASSERT_TRUE(st.open(path, testOptions()).isOk());
        st.put(fp, baselineConfig(), res);
        st.flush();
    }
    // Kill the tail: the last cell's frame is torn mid-payload.
    fs::resize_file(path, fs::file_size(path) - 20);

    store::EpochStore st;
    ASSERT_TRUE(st.open(path, testOptions()).isOk());
    EXPECT_GT(st.stats().tornTailBytes, 0u);
    EXPECT_EQ(st.stats().diskResults, 0u); // incomplete now
    EXPECT_FALSE(st.get(fp, baselineConfig()).has_value());

    // Re-putting appends exactly the one missing cell.
    st.put(fp, baselineConfig(), res);
    EXPECT_EQ(st.stats().putRecords, 1u);
    EXPECT_EQ(st.stats().diskResults, 1u);
    const auto hit = st.get(fp, baselineConfig());
    ASSERT_TRUE(hit.has_value());
    expectResultsEqual(*hit, res);
}

TEST(EpochStore, CompactDropsDamageAndIsIdempotent)
{
    const std::string path = tempStorePath("store_compact.store");
    Workload wl = smallWorkload();
    EpochDb db(wl);
    const SimResult r0 = db.result(baselineConfig());
    const SimResult r1 = db.result(maxConfig());
    const std::uint64_t fp =
        store::workloadFingerprint(wl.trace, wl.params, wl.l1Type);
    {
        store::EpochStore st;
        ASSERT_TRUE(st.open(path, testOptions()).isOk());
        st.put(fp, baselineConfig(), r0);
        st.put(fp, maxConfig(), r1);
        st.flush();
    }
    // Damage one record of r1 on disk: that result goes incomplete and
    // compaction must drop the damaged frame for good.
    {
        std::ifstream in(path, std::ios::binary);
        store::ScanResult scan = store::scanRecordStream(in);
        ASSERT_EQ(scan.records.size(),
                  r0.epochs.size() + r1.epochs.size());
        const std::uint64_t off =
            scan.records[r0.epochs.size()].offset;
        flipByte(path, off + 12 + 40);
    }

    store::EpochStore st;
    ASSERT_TRUE(st.open(path, testOptions()).isOk());
    EXPECT_EQ(st.stats().corruptRecords, 1u);
    EXPECT_EQ(st.stats().diskResults, 1u);
    ASSERT_TRUE(st.compact().isOk());
    EXPECT_EQ(st.stats().corruptRecords, 0u);
    EXPECT_EQ(st.stats().diskRecords,
              r0.epochs.size() + r1.epochs.size() - 1);

    // Idempotent: compacting a compacted store is a byte-level no-op.
    const std::string first = fileBytes(path);
    ASSERT_TRUE(st.compact().isOk());
    EXPECT_EQ(fileBytes(path), first);

    // The intact result still serves; the damaged one is a clean miss.
    const auto h0 = st.get(fp, baselineConfig());
    ASSERT_TRUE(h0.has_value());
    expectResultsEqual(*h0, r0);
    EXPECT_FALSE(st.get(fp, maxConfig()).has_value());
}

// ------------------------------------------------- EpochDb integration

TEST(EpochDbStore, WarmStartSkipsSimulation)
{
    const std::string path = tempStorePath("db_warm.store");
    Workload wl = smallWorkload();
    const std::vector<HwConfig> cfgs = {baselineConfig(), maxConfig(),
                                        bestAvgConfig(MemType::Cache)};

    store::EpochStore cold;
    ASSERT_TRUE(cold.open(path, testOptions()).isOk());
    EpochDb db1(wl);
    db1.attachStore(&cold);
    EXPECT_NE(db1.storeFingerprint(), 0u);
    db1.ensure(cfgs);
    cold.flush();
    EXPECT_EQ(cold.stats().hits, 0u);
    EXPECT_EQ(cold.stats().misses, cfgs.size());
    const SimResult ref = db1.result(baselineConfig());
    cold.close();

    // A fresh database over the same store replays nothing.
    store::EpochStore warm;
    ASSERT_TRUE(warm.open(path, testOptions()).isOk());
    EpochDb db2(wl);
    db2.attachStore(&warm);
    db2.ensure(cfgs);
    EXPECT_EQ(warm.stats().hits, cfgs.size());
    EXPECT_EQ(warm.stats().misses, 0u);
    EXPECT_EQ(warm.stats().putRecords, 0u);
    expectResultsEqual(db2.result(baselineConfig()), ref);
}

TEST(EpochDbStore, StoreBytesIdenticalForAnyJobs)
{
    const std::string p1 = tempStorePath("db_jobs1.store");
    const std::string p8 = tempStorePath("db_jobs8.store");
    Workload wl = smallWorkload();
    const std::vector<HwConfig> cfgs = {
        maxConfig(), baselineConfig(), bestAvgConfig(MemType::Cache),
        baselineConfig()};

    auto sweep = [&](const std::string &path, unsigned jobs) {
        store::EpochStore st;
        ASSERT_TRUE(st.open(path, testOptions()).isOk());
        EpochDb db(wl);
        db.setJobs(jobs);
        db.attachStore(&st);
        db.ensure(cfgs);
        st.flush();
        st.close();
    };
    sweep(p1, 1);
    sweep(p8, 8);
    EXPECT_EQ(fileBytes(p1), fileBytes(p8));
}

TEST(EpochDbStore, ResultConsultsStoreOnCacheMiss)
{
    const std::string path = tempStorePath("db_result.store");
    Workload wl = smallWorkload();
    store::EpochStore st;
    ASSERT_TRUE(st.open(path, testOptions()).isOk());
    {
        EpochDb db(wl);
        db.attachStore(&st);
        db.result(baselineConfig());
    }
    EXPECT_EQ(st.stats().misses, 1u);
    EpochDb db(wl);
    db.attachStore(&st);
    db.result(baselineConfig());
    EXPECT_EQ(st.stats().hits, 1u);
    EXPECT_EQ(st.stats().putRecords,
              db.result(baselineConfig()).epochs.size());
}

// -------------------------------------------------- crash durability

TEST(EpochStoreCrash, FlushedResultsSurviveAnImmediateReader)
{
    // flush() fsyncs the record log, so a second process (here, a
    // second handle over the same file) sees every flushed cell even
    // while the writer stays open.
    const std::string path = tempStorePath("store_flush_dur.store");
    Workload wl = smallWorkload();
    EpochDb db(wl);
    const SimResult res = db.result(baselineConfig());
    const std::uint64_t fp =
        store::workloadFingerprint(wl.trace, wl.params, wl.l1Type);

    store::EpochStore writer;
    ASSERT_TRUE(writer.open(path, testOptions()).isOk());
    writer.put(fp, baselineConfig(), res);
    writer.flush();

    store::EpochStore reader;
    ASSERT_TRUE(reader.open(path, testOptions()).isOk());
    EXPECT_EQ(reader.stats().diskResults, 1u);
    EXPECT_EQ(reader.stats().tornTailBytes, 0u);
    const auto hit = reader.get(fp, baselineConfig());
    ASSERT_TRUE(hit.has_value());
    expectResultsEqual(*hit, res);
}

/**
 * Fork a child that compacts the store in a tight loop and SIGKILL it
 * at a sweep of delays, so the kill lands before, inside and after the
 * rewrite-rename-dirsync window. Whatever the timing, a reopen must
 * serve every result bit-exactly: compact() builds the replacement in
 * a scratch file and installs it with an atomic rename, so readers
 * only ever see the old file or the new file, both fully intact.
 * (Tests may fork; lint-process-control scopes src/ only.)
 */
TEST(EpochStoreCrash, Kill9MidCompactLosesNothing)
{
    const std::string path = tempStorePath("store_kill9.store");
    Workload wl = smallWorkload();
    EpochDb db(wl);
    const SimResult r0 = db.result(baselineConfig());
    const SimResult r1 = db.result(maxConfig());
    const std::uint64_t fp =
        store::workloadFingerprint(wl.trace, wl.params, wl.l1Type);
    {
        store::EpochStore st;
        ASSERT_TRUE(st.open(path, testOptions()).isOk());
        st.put(fp, baselineConfig(), r0);
        st.put(fp, maxConfig(), r1);
        st.flush();
        ASSERT_TRUE(st.compact().isOk()); // canonical byte layout
    }
    const std::string canonical = fileBytes(path);

    for (unsigned trial = 0; trial < 12; ++trial) {
        std::fflush(nullptr); // no duplicated stdio buffers in the child
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: compact forever until killed. _Exit codes mark
            // setup errors; SIGKILL is the expected way out.
            for (;;) {
                store::EpochStore st;
                if (!st.open(path, testOptions()).isOk())
                    std::_Exit(2);
                if (!st.compact().isOk())
                    std::_Exit(3);
                st.close();
            }
        }
        ::usleep(150 * trial); // sweep the kill across the window
        ASSERT_EQ(::kill(pid, SIGKILL), 0);
        int wstatus = 0;
        ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(wstatus))
            << "child exited with " << WEXITSTATUS(wstatus);

        // Old or new file — never a blend, never a loss.
        store::EpochStore st;
        ASSERT_TRUE(st.open(path, testOptions()).isOk());
        EXPECT_EQ(st.stats().corruptRecords, 0u) << "trial " << trial;
        EXPECT_EQ(st.stats().tornTailBytes, 0u) << "trial " << trial;
        EXPECT_EQ(st.stats().diskResults, 2u) << "trial " << trial;
        const auto h0 = st.get(fp, baselineConfig());
        const auto h1 = st.get(fp, maxConfig());
        ASSERT_TRUE(h0.has_value()) << "trial " << trial;
        ASSERT_TRUE(h1.has_value()) << "trial " << trial;
        expectResultsEqual(*h0, r0);
        expectResultsEqual(*h1, r1);
        EXPECT_EQ(fileBytes(path), canonical) << "trial " << trial;
        st.close();
        fs::remove(path + ".compact"); // scratch a kill may leave
    }
}

/**
 * The one crash-resume path of a sweep: a jobs=4 EpochDb sweep in
 * ensure() batches, with the store flushed at every batch boundary
 * (what the benches' prefetchConfigs does). A forked child runs the
 * sweep and reports its first flush over a pipe; the parent SIGKILLs
 * it right away, so the kill lands while the child replays or commits
 * a later batch, or once it has finished. Rerunning the same sweep
 * against the same store must serve every flushed config from disk,
 * simulate only the rest, and end bit-identical to an uninterrupted
 * jobs=1 run: same results, same compacted store bytes.
 * (Tests may fork; lint-process-control scopes src/ only.)
 */
TEST(EpochStoreCrash, Kill9MidSweepRerunSimulatesOnlyUnflushed)
{
    const test::ScratchDir scratch;
    const Workload wl = smallWorkload();
    Rng rng(23);
    const std::vector<HwConfig> cfgs =
        ConfigSpace(wl.l1Type).sample(14, rng);
    const std::vector<std::vector<HwConfig>> batches = {
        {cfgs.begin(), cfgs.begin() + 2},
        {cfgs.begin() + 2, cfgs.begin() + 8},
        {cfgs.begin() + 8, cfgs.end()}};

    // One sweep, flushing the store at every batch boundary; returns
    // the store misses (= configs simulated) of each batch.
    auto sweep = [&](EpochDb &db, store::EpochStore &st) {
        std::vector<std::uint64_t> misses;
        for (const std::vector<HwConfig> &batch : batches) {
            const std::uint64_t before = st.stats().misses;
            db.ensure(batch);
            st.flush();
            misses.push_back(st.stats().misses - before);
        }
        return misses;
    };

    // Reference: uninterrupted, serial, compacted.
    const std::string ref_path = scratch.path("ref.store");
    EpochDb ref(wl);
    {
        store::EpochStore st;
        ASSERT_TRUE(st.open(ref_path, testOptions()).isOk());
        ref.attachStore(&st);
        sweep(ref, st);
        ref.attachStore(nullptr);
        ASSERT_TRUE(st.compact().isOk());
    }
    const std::string ref_bytes = fileBytes(ref_path);

    const std::string path = scratch.path("killed.store");
    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    std::fflush(nullptr); // no duplicated stdio buffers in the child
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: the parallel sweep. _Exit codes mark setup errors;
        // SIGKILL is the expected way out.
        ::close(ready[0]);
        store::EpochStore st;
        if (!st.open(path, testOptions()).isOk())
            std::_Exit(2);
        EpochDb db(wl);
        db.setJobs(4);
        db.attachStore(&st);
        for (std::size_t b = 0; b < batches.size(); ++b) {
            db.ensure(batches[b]);
            st.flush();
            const char flushed = 1;
            if (b == 0 && ::write(ready[1], &flushed, 1) != 1)
                std::_Exit(3);
        }
        for (;;)
            ::pause(); // finished before the kill landed
    }
    ::close(ready[1]);
    char flushed = 0;
    const ssize_t got = ::read(ready[0], &flushed, 1);
    ::close(ready[0]);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_EQ(got, 1) << "child died before its first flush";
    ASSERT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL)
        << "child exited with " << WEXITSTATUS(wstatus);

    // Rerun the sweep to completion on whatever the store kept.
    store::EpochStore st;
    ASSERT_TRUE(st.open(path, testOptions()).isOk());
    EXPECT_EQ(st.stats().corruptRecords, 0u);
    EpochDb db(wl);
    db.setJobs(4);
    db.attachStore(&st);
    const std::vector<std::uint64_t> misses = sweep(db, st);
    // The first batch was flushed before the kill: nothing in it is
    // simulated again.
    EXPECT_EQ(misses[0], 0u);

    for (const HwConfig &cfg : cfgs)
        expectResultsEqual(db.result(cfg), ref.result(cfg));
    ASSERT_TRUE(st.compact().isOk());
    EXPECT_EQ(fileBytes(path), ref_bytes);
}
