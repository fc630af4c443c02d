/**
 * @file
 * The trace-reload contract: a workload whose trace was written to a
 * text trace file and read back replays exactly like the in-memory
 * workload it came from. EpochDb records, metric snapshots, journal
 * bytes and persistent store files are byte-identical at jobs=1 and
 * at jobs=4, the workload fingerprint is the same, and so a reloaded
 * run finds every store cell the in-memory run wrote.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/runner.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/observer.hh"
#include "sparse/generators.hh"
#include "store/epoch_store.hh"
#include "store/fingerprint.hh"
#include "scratch_dir.hh"

using namespace sadapt;

namespace {

namespace fs = std::filesystem;

Workload
baseWorkload()
{
    Rng rng(7);
    CsrMatrix a = makeRmat(256, 2200, rng);
    SparseVector x = SparseVector::random(256, 0.5, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 60;
    return makeSpMSpVWorkload("fmt-det", a, x, wo);
}

/**
 * Round-trip the workload's trace through a text trace file and
 * return the workload rebuilt from the reloaded trace, exactly as a
 * consumer handed a trace file would see it.
 */
Workload
reloadedWorkload(const Workload &base, const test::ScratchDir &scratch)
{
    const std::string path = scratch.path("workload.trace");
    {
        std::ofstream out(path);
        writeTraceText(base.trace, out);
    }
    Result<TraceText> parsed = readTraceTextFile(path);
    SADAPT_ASSERT(parsed.isOk(), parsed.message());
    fs::remove(path);
    Workload wl = base;
    wl.trace = parsed.value().trace;
    return wl;
}

/** One small trained predictor, shared across this file's tests. */
const Predictor &
sharedPredictor()
{
    static const Predictor pred = [] {
        TrainerOptions opts;
        opts.mode = OptMode::EnergyEfficient;
        opts.includeSpMSpM = false;
        opts.spmspvDims = {256};
        opts.densities = {0.01, 0.04};
        opts.bandwidths = {1e9};
        opts.search.randomSamples = 10;
        opts.search.neighborCap = 12;
        opts.seed = 5;
        Predictor p;
        Rng rng(13);
        p.train(buildTrainingSet(opts), rng);
        return p;
    }();
    return pred;
}

constexpr std::uint64_t testSalt = 0x5ad7;

store::StoreOptions
storeOptions()
{
    store::StoreOptions o;
    o.simSalt = testSalt;
    return o;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Everything the contract promises is byte-identical. */
struct PipelineOutput
{
    ScheduleEval stat, greedy, sa;
    std::vector<std::vector<EpochRecord>> records; //!< probeConfigs()
    std::size_t simulated = 0;
    std::uint64_t fingerprint = 0;
    std::string journal;
    std::string metrics;
    std::string storeBytes;
};

/** A fixed config sample whose EpochDb records are compared. */
std::vector<HwConfig>
probeConfigs(const Workload &wl)
{
    Rng rng(19);
    return ConfigSpace(wl.l1Type).sample(6, rng);
}

/**
 * The full control-loop pipeline from one workload: journal-attached
 * observer, persistent store, predictor-driven SparseAdapt plus the
 * ideal-static and greedy references.
 */
PipelineOutput
runPipeline(const Workload &wl, unsigned jobs, const std::string &tag,
            const test::ScratchDir &scratch)
{
    const std::string store_path = scratch.path(tag + ".store");

    PipelineOutput out;
    {
        std::ostringstream journal;
        obs::RunObserver observer;
        observer.attachJournal(journal);
        store::EpochStore st;
        SADAPT_ASSERT(st.open(store_path, storeOptions()).isOk(),
                      "store open failed");
        ComparisonOptions co;
        co.mode = OptMode::EnergyEfficient;
        co.oracleSamples = 8;
        co.policy = Policy(PolicyKind::Hybrid, 0.4);
        co.seed = 3;
        co.jobs = jobs;
        co.observer = &observer;
        co.store = &st;
        Comparison cmp(wl, &sharedPredictor(), co);
        out.stat = cmp.idealStatic();
        out.greedy = cmp.idealGreedy();
        out.sa = cmp.sparseAdapt();
        for (const HwConfig &cfg : probeConfigs(wl))
            out.records.push_back(cmp.db().epochs(cfg));
        out.simulated = cmp.db().simulatedConfigs();
        out.fingerprint = cmp.db().storeFingerprint();
        st.flush();
        out.journal = journal.str();
        std::ostringstream metrics;
        observer.metrics().writeText(metrics);
        out.metrics = metrics.str();
    }
    out.storeBytes = fileBytes(store_path);
    fs::remove(store_path);
    return out;
}

void
expectIdenticalEvals(const ScheduleEval &a, const ScheduleEval &b)
{
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.reconfigSeconds, b.reconfigSeconds);
    EXPECT_EQ(a.reconfigEnergy, b.reconfigEnergy);
    EXPECT_EQ(a.reconfigCount, b.reconfigCount);
}

void
expectIdenticalRecords(const std::vector<EpochRecord> &a,
                       const std::vector<EpochRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t e = 0; e < a.size(); ++e) {
        EXPECT_EQ(a[e].index, b[e].index) << "epoch " << e;
        EXPECT_EQ(a[e].phase, b[e].phase) << "epoch " << e;
        EXPECT_EQ(a[e].cycles, b[e].cycles) << "epoch " << e;
        EXPECT_EQ(a[e].seconds, b[e].seconds) << "epoch " << e;
        EXPECT_EQ(a[e].flops, b[e].flops) << "epoch " << e;
        EXPECT_EQ(a[e].totalEnergy(), b[e].totalEnergy())
            << "epoch " << e;
    }
}

void
expectIdenticalOutputs(const PipelineOutput &a, const PipelineOutput &b)
{
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t c = 0; c < a.records.size(); ++c)
        expectIdenticalRecords(a.records[c], b.records[c]);
    expectIdenticalEvals(a.stat, b.stat);
    expectIdenticalEvals(a.greedy, b.greedy);
    expectIdenticalEvals(a.sa, b.sa);
    EXPECT_EQ(a.simulated, b.simulated);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_FALSE(a.journal.empty());
    EXPECT_EQ(a.journal, b.journal);   // byte-identical decision trail
    EXPECT_EQ(a.metrics, b.metrics);   // byte-identical metric snapshot
    EXPECT_FALSE(a.storeBytes.empty());
    EXPECT_EQ(a.storeBytes, b.storeBytes); // byte-identical store file
}

} // namespace

TEST(TraceFormatDeterminism, FingerprintIsFormatIndependent)
{
    const test::ScratchDir scratch;
    const Workload base = baseWorkload();
    const Workload text = reloadedWorkload(base, scratch);
    EXPECT_EQ(store::workloadFingerprint(text.trace, text.params,
                                         text.l1Type),
              store::workloadFingerprint(base.trace, base.params,
                                         base.l1Type));
}

TEST(TraceFormatDeterminism, TextVsInMemoryByteIdenticalJobs1)
{
    const test::ScratchDir scratch;
    const Workload base = baseWorkload();
    expectIdenticalOutputs(
        runPipeline(base, 1, "mem_j1", scratch),
        runPipeline(reloadedWorkload(base, scratch), 1, "text_j1",
                    scratch));
}

TEST(TraceFormatDeterminism, TextVsInMemoryByteIdenticalJobs4)
{
    const test::ScratchDir scratch;
    const Workload base = baseWorkload();
    const PipelineOutput text = runPipeline(
        reloadedWorkload(base, scratch), 4, "text_j4", scratch);
    expectIdenticalOutputs(runPipeline(base, 4, "mem_j4", scratch),
                           text);
    // And the parallel runs match the serial contract too.
    expectIdenticalOutputs(text, runPipeline(base, 1, "mem_s", scratch));
}

TEST(TraceFormatDeterminism, StoreCellsSharedAcrossFormats)
{
    const test::ScratchDir scratch;
    const Workload base = baseWorkload();
    const std::string store_path = scratch.path("shared.store");
    const std::vector<HwConfig> cfgs = probeConfigs(base);

    // Warm the store from the in-memory workload...
    {
        store::EpochStore st;
        ASSERT_TRUE(st.open(store_path, storeOptions()).isOk());
        EpochDb db(base);
        db.attachStore(&st);
        db.ensure(cfgs);
        st.flush();
    }

    // ...then the text-reloaded workload finds every cell complete:
    // nothing left to simulate, every lookup a store hit.
    const Workload text = reloadedWorkload(base, scratch);
    store::EpochStore st;
    ASSERT_TRUE(st.open(store_path, storeOptions()).isOk());
    EpochDb db(text);
    db.attachStore(&st);
    db.ensure(cfgs);
    EXPECT_EQ(st.stats().misses, 0u)
        << "reloading the trace re-keyed cached cells";
    EXPECT_GT(st.stats().hits, 0u);
}
