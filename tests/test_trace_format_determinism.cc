/**
 * @file
 * The trace-format determinism contract: a workload replayed from a
 * text trace file and from a columnar trace file produces byte-
 * identical EpochDb results, metric snapshots, journal bytes and
 * persistent store files — at jobs=1 and at jobs=4 — and
 * content-identical traces in either format share the same store
 * cells (the workload fingerprint is format-independent).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "adapt/runner.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/observer.hh"
#include "sim/trace_columnar.hh"
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
 * Round-trip the workload's trace through one on-disk format and
 * return the workload rebuilt from the reloaded trace, exactly as a
 * consumer handed a trace file would see it.
 */
Workload
reloadedWorkload(const Workload &base, const std::string &format,
                 const test::ScratchDir &scratch)
{
    const std::string path = scratch.path("trace." + format);
    Workload wl = base;
    if (format == "text") {
        {
            std::ofstream out(path);
            writeTraceText(base.trace, out);
        }
        Result<TraceText> parsed = readTraceTextFile(path);
        SADAPT_ASSERT(parsed.isOk(), parsed.message());
        wl.trace = parsed.value().trace;
    } else {
        const Status st = writeTraceColumnarFile(base.trace, path);
        SADAPT_ASSERT(st.isOk(), st.message());
        Result<ColumnarTrace> loaded = readTraceColumnarFile(path);
        SADAPT_ASSERT(loaded.isOk(), loaded.message());
        wl.trace = loaded.value().toTrace();
    }
    fs::remove(path);
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
    std::size_t simulated = 0;
    std::uint64_t fingerprint = 0;
    std::string journal;
    std::string metrics;
    std::string storeBytes;
};

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
expectIdenticalOutputs(const PipelineOutput &a, const PipelineOutput &b)
{
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
    const Workload text = reloadedWorkload(base, "text", scratch);
    const Workload columnar =
        reloadedWorkload(base, "columnar", scratch);

    const std::uint64_t fp =
        store::workloadFingerprint(base.trace, base.params, base.l1Type);
    EXPECT_EQ(store::workloadFingerprint(text.trace, text.params,
                                         text.l1Type),
              fp);
    EXPECT_EQ(store::workloadFingerprint(columnar.trace,
                                         columnar.params,
                                         columnar.l1Type),
              fp);

    // The SoA view overload folds the identical byte sequence, so
    // replays keyed off a mmap-loaded view hit the same store cells.
    const ColumnarTrace soa = ColumnarTrace::fromTrace(base.trace);
    EXPECT_EQ(store::workloadFingerprint(soa.view(), base.params,
                                         base.l1Type),
              fp);
}

TEST(TraceFormatDeterminism, TextVsColumnarByteIdenticalJobs1)
{
    const test::ScratchDir scratch;
    const Workload base = baseWorkload();
    const PipelineOutput text = runPipeline(
        reloadedWorkload(base, "text", scratch), 1, "text_j1", scratch);
    const PipelineOutput columnar =
        runPipeline(reloadedWorkload(base, "columnar", scratch), 1,
                    "columnar_j1", scratch);
    expectIdenticalOutputs(text, columnar);
}

TEST(TraceFormatDeterminism, TextVsColumnarByteIdenticalJobs4)
{
    const test::ScratchDir scratch;
    const Workload base = baseWorkload();
    const PipelineOutput text = runPipeline(
        reloadedWorkload(base, "text", scratch), 4, "text_j4", scratch);
    const PipelineOutput columnar =
        runPipeline(reloadedWorkload(base, "columnar", scratch), 4,
                    "columnar_j4", scratch);
    expectIdenticalOutputs(text, columnar);
    // And the parallel runs match the serial contract too.
    expectIdenticalOutputs(
        text, runPipeline(reloadedWorkload(base, "text", scratch), 1,
                          "text_s", scratch));
}

TEST(TraceFormatDeterminism, StoreCellsSharedAcrossFormats)
{
    const test::ScratchDir scratch;
    const Workload base = baseWorkload();
    const std::string store_path = scratch.path("shared.store");

    Rng rng(19);
    const std::vector<HwConfig> cfgs =
        ConfigSpace(base.l1Type).sample(6, rng);

    // Warm the store from the text-loaded workload...
    {
        const Workload text = reloadedWorkload(base, "text", scratch);
        store::EpochStore st;
        ASSERT_TRUE(st.open(store_path, storeOptions()).isOk());
        EpochDb db(text);
        db.attachStore(&st);
        db.ensure(cfgs);
        st.flush();
    }

    // ...then the columnar-loaded workload finds every cell complete:
    // nothing left to simulate, every lookup a store hit.
    const Workload columnar =
        reloadedWorkload(base, "columnar", scratch);
    store::EpochStore st;
    ASSERT_TRUE(st.open(store_path, storeOptions()).isOk());
    EpochDb db(columnar);
    db.attachStore(&st);
    db.ensure(cfgs);
    EXPECT_EQ(st.stats().misses, 0u)
        << "a format change re-keyed cached cells";
    EXPECT_GT(st.stats().hits, 0u);
}
