/**
 * @file
 * The determinism contract of the parallel sweep engine (DESIGN.md
 * section 9): for any jobs value, EpochDb contents, exported metrics,
 * journal bytes and every stitched ScheduleEval are bit-identical to
 * the jobs=1 serial run — with and without fault injection, and when
 * the batch completes partially read entries.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "adapt/runner.hh"
#include "common/rng.hh"
#include "obs/observer.hh"
#include "scratch_dir.hh"
#include "sparse/generators.hh"
#include "store/epoch_store.hh"

using namespace sadapt;

namespace {

Workload
sweepWorkload()
{
    Rng rng(7);
    CsrMatrix a = makeRmat(256, 2200, rng);
    SparseVector x = SparseVector::random(256, 0.5, rng);
    WorkloadOptions wo;
    wo.epochFpOps = 60;
    return makeSpMSpVWorkload("par-det", a, x, wo);
}

std::vector<HwConfig>
sampledCandidates(const Workload &wl, std::size_t n)
{
    Rng rng(19);
    std::vector<HwConfig> cfgs = ConfigSpace(wl.l1Type).sample(n, rng);
    // Duplicates and already-cached configs must be handled too.
    cfgs.push_back(cfgs.front());
    cfgs.push_back(baselineConfig(wl.l1Type));
    return cfgs;
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

ComparisonOptions
optionsWith(unsigned jobs, obs::RunObserver *observer)
{
    ComparisonOptions co;
    co.mode = OptMode::EnergyEfficient;
    co.oracleSamples = 8;
    co.policy = Policy(PolicyKind::Hybrid, 0.4);
    co.seed = 3;
    co.jobs = jobs;
    co.observer = observer;
    return co;
}

void
expectIdenticalEpochs(EpochDb &a, EpochDb &b, const HwConfig &cfg)
{
    const std::vector<EpochRecord> &ea = a.epochs(cfg);
    const std::vector<EpochRecord> &eb = b.epochs(cfg);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t e = 0; e < ea.size(); ++e) {
        EXPECT_EQ(ea[e].cycles, eb[e].cycles) << "epoch " << e;
        EXPECT_EQ(ea[e].seconds, eb[e].seconds) << "epoch " << e;
        EXPECT_EQ(ea[e].flops, eb[e].flops) << "epoch " << e;
        EXPECT_EQ(ea[e].totalEnergy(), eb[e].totalEnergy())
            << "epoch " << e;
    }
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

std::string
metricsText(const obs::MetricRegistry &reg)
{
    std::ostringstream out;
    reg.writeText(out);
    return out.str();
}

} // namespace

TEST(ParallelDeterminism, EnsureMatchesSerialBitExactly)
{
    Workload wl = sweepWorkload();
    const std::vector<HwConfig> cfgs = sampledCandidates(wl, 12);

    EpochDb serial(wl);
    serial.setJobs(1);
    serial.ensure(cfgs);

    EpochDb parallel(wl);
    parallel.setJobs(8);
    parallel.ensure(cfgs);

    EXPECT_EQ(parallel.simulatedConfigs(), serial.simulatedConfigs());
    for (const HwConfig &cfg : cfgs)
        expectIdenticalEpochs(serial, parallel, cfg);
}

TEST(ParallelDeterminism, MetricShardsMergeLikeSerialExports)
{
    Workload wl = sweepWorkload();
    const std::vector<HwConfig> cfgs = sampledCandidates(wl, 10);

    obs::MetricRegistry serial_metrics;
    EpochDb serial(wl);
    serial.attachMetrics(&serial_metrics);
    serial.setJobs(1);
    serial.ensure(cfgs);

    obs::MetricRegistry parallel_metrics;
    EpochDb parallel(wl);
    parallel.attachMetrics(&parallel_metrics);
    parallel.setJobs(8);
    parallel.ensure(cfgs);

    EXPECT_GT(serial_metrics.size(), 0u);
    EXPECT_EQ(metricsText(parallel_metrics),
              metricsText(serial_metrics));
}

TEST(ParallelDeterminism, ComparisonSchemesIdenticalAcrossJobs)
{
    Workload wl = sweepWorkload();

    auto run = [&](unsigned jobs, std::string *journal_out,
                   std::string *metrics_out) {
        std::ostringstream journal;
        obs::RunObserver observer;
        observer.attachJournal(journal);
        Comparison cmp(wl, &sharedPredictor(),
                       optionsWith(jobs, &observer));
        struct
        {
            ScheduleEval stat, greedy, oracle, sa;
            std::size_t simulated;
        } out;
        out.stat = cmp.idealStatic();
        out.greedy = cmp.idealGreedy();
        out.oracle = cmp.oracle();
        out.sa = cmp.sparseAdapt();
        out.simulated = cmp.db().simulatedConfigs();
        *journal_out = journal.str();
        *metrics_out = metricsText(observer.metrics());
        return out;
    };

    std::string journal1, metrics1, journal8, metrics8;
    const auto serial = run(1, &journal1, &metrics1);
    const auto parallel = run(8, &journal8, &metrics8);

    expectIdenticalEvals(parallel.stat, serial.stat);
    expectIdenticalEvals(parallel.greedy, serial.greedy);
    expectIdenticalEvals(parallel.oracle, serial.oracle);
    expectIdenticalEvals(parallel.sa, serial.sa);
    EXPECT_EQ(parallel.simulated, serial.simulated);
    EXPECT_FALSE(journal1.empty());
    EXPECT_EQ(journal8, journal1); // byte-identical decision trail
    EXPECT_EQ(metrics8, metrics1); // byte-identical metric snapshot
}

TEST(ParallelDeterminism, FaultInjectedRunIdenticalAcrossJobs)
{
    Workload wl = sweepWorkload();
    const FaultSpec spec = FaultSpec::uniform(0.05, 42);

    auto run = [&](unsigned jobs) {
        Comparison cmp(wl, &sharedPredictor(),
                       optionsWith(jobs, nullptr));
        // Warm the database through a parallel candidate sweep first,
        // so the robust loop below stitches from batch-replayed state.
        cmp.db().ensure(cmp.candidates());
        return cmp.sparseAdaptRobust(spec, /*guarded=*/true);
    };

    const Comparison::RobustEval serial = run(1);
    const Comparison::RobustEval parallel = run(8);

    expectIdenticalEvals(parallel.eval, serial.eval);
    EXPECT_EQ(parallel.faults.faultsInjected,
              serial.faults.faultsInjected);
    EXPECT_EQ(parallel.faults.samplesDropped,
              serial.faults.samplesDropped);
    EXPECT_EQ(parallel.guard.samplesClamped,
              serial.guard.samplesClamped);
    EXPECT_EQ(parallel.watchdogReverts, serial.watchdogReverts);
    EXPECT_EQ(parallel.watchdogHeldEpochs, serial.watchdogHeldEpochs);
}

namespace {

/** What one partial-then-ensure pass leaves behind. */
struct PartialPass
{
    std::vector<std::vector<EpochRecord>> records;
    std::uint64_t replayed = 0;
    std::string metrics;
    std::string storeBytes;
};

/*
 * Read a few epochs of some candidates (leaving their replays
 * suspended unless artifacts are attached), then ensure() the whole
 * set, which completes the partial entries alongside fresh replays.
 */
PartialPass
partialThenEnsure(const Workload &wl, const std::vector<HwConfig> &cfgs,
                  unsigned jobs, const std::string &store_path)
{
    PartialPass out;
    obs::MetricRegistry metrics;
    store::EpochStore st;
    {
        EpochDb db(wl);
        db.setJobs(jobs);
        if (!store_path.empty()) {
            SADAPT_ASSERT(st.open(store_path).isOk(), "store open");
            db.attachStore(&st);
            db.attachMetrics(&metrics);
        }
        const std::size_t n = db.numEpochs();
        for (std::size_t i = 0; i < cfgs.size(); i += 2)
            db.epoch(cfgs[i], (i / 2) % n);
        db.ensure(cfgs);
        for (const HwConfig &cfg : cfgs)
            out.records.push_back(db.epochs(cfg));
        out.replayed = db.epochsReplayed();
    }
    if (!store_path.empty()) {
        st.flush();
        std::ifstream in(store_path, std::ios::binary);
        out.storeBytes.assign(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
        out.metrics = metricsText(metrics);
    }
    return out;
}

void
expectSameRecords(const PartialPass &got, const PartialPass &want)
{
    ASSERT_EQ(got.records.size(), want.records.size());
    for (std::size_t c = 0; c < got.records.size(); ++c) {
        ASSERT_EQ(got.records[c].size(), want.records[c].size());
        for (std::size_t e = 0; e < got.records[c].size(); ++e) {
            const EpochRecord &a = got.records[c][e];
            const EpochRecord &b = want.records[c][e];
            EXPECT_EQ(a.cycles, b.cycles);
            EXPECT_EQ(a.seconds, b.seconds);
            EXPECT_EQ(a.totalEnergy(), b.totalEnergy());
            EXPECT_EQ(a.counters.toVector(), b.counters.toVector());
        }
    }
}

} // namespace

TEST(ParallelDeterminism, EnsureCompletesPartialEntriesLikeSerial)
{
    Workload wl = sweepWorkload();
    const std::vector<HwConfig> cfgs = sampledCandidates(wl, 9);
    std::set<std::uint64_t> keys;
    for (const HwConfig &cfg : cfgs)
        keys.insert(EpochDb::key(cfg));

    // No artifacts: the partial entries stay suspended until ensure().
    const PartialPass serial = partialThenEnsure(wl, cfgs, 1, "");
    const PartialPass wide = partialThenEnsure(wl, cfgs, 4, "");
    expectSameRecords(wide, serial);
    const std::size_t n = serial.records.front().size();
    EXPECT_EQ(serial.replayed, keys.size() * n);
    EXPECT_EQ(wide.replayed, serial.replayed);

    // A store and metrics attached: every replay completes at first
    // touch, and the artifacts are the same at any jobs value.
    const test::ScratchDir scratch;
    const PartialPass serial_art =
        partialThenEnsure(wl, cfgs, 1, scratch.path("serial.store"));
    const PartialPass wide_art =
        partialThenEnsure(wl, cfgs, 4, scratch.path("wide.store"));
    expectSameRecords(serial_art, serial);
    expectSameRecords(wide_art, serial);
    EXPECT_FALSE(serial_art.storeBytes.empty());
    EXPECT_EQ(wide_art.storeBytes, serial_art.storeBytes);
    EXPECT_FALSE(serial_art.metrics.empty());
    EXPECT_EQ(wide_art.metrics, serial_art.metrics);
    EXPECT_EQ(wide_art.replayed, serial_art.replayed);
}

TEST(EpochDbKey, RoundTripsAndStaysInjective)
{
    Workload wl = sweepWorkload();
    EpochDb db(wl);
    Rng rng(23);
    std::vector<HwConfig> cfgs = ConfigSpace(wl.l1Type).sample(32, rng);
    for (const HwConfig &std_cfg :
         {baselineConfig(wl.l1Type), bestAvgConfig(wl.l1Type),
          maxConfig(wl.l1Type)})
        cfgs.push_back(std_cfg);

    std::set<std::uint64_t> seen;
    for (const HwConfig &cfg : cfgs) {
        const std::uint64_t k = EpochDb::key(cfg);
        EXPECT_EQ(k, cfg.encode());
        const HwConfig back = db.keyConfig(k);
        EXPECT_TRUE(back == cfg)
            << "key " << k << " decoded to a different config";
        seen.insert(k);
    }
    // Distinct configurations sampled without replacement must map to
    // distinct keys (the encode self-check proves this exhaustively;
    // this is the spot-check at the EpochDb boundary).
    std::set<std::uint32_t> codes;
    for (const HwConfig &cfg : cfgs)
        codes.insert(cfg.encode());
    EXPECT_EQ(seen.size(), codes.size());
}
