/**
 * @file
 * The resumable replay (sim::Replay) and the epoch count it closes.
 *
 * A replay suspended at every epoch boundary, with other replays run
 * in between and the object moved between steps, must produce the
 * one-shot Transmuter::run records bit for bit, on both kernels, both
 * system shapes and both L1 types. A switching schedule with fault
 * injection is pinned by digest (records plus the injector's event
 * log), and a Replay driven by hand with switchTo() must reproduce
 * it. Transmuter::epochCount must equal the count a replay actually
 * closes on every suite input and on hand-built edge cases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "epoch_records.hh"
#include "sim/faults.hh"
#include "sim/reconfig.hh"
#include "sim/schedule.hh"
#include "sim/transmuter.hh"
#include "sparse/suite.hh"

using namespace sadapt;
using sadapt::test::expectSameRecord;

namespace {

constexpr SystemShape smallShape{2, 8};
constexpr SystemShape bigShape{4, 16};

CsrMatrix
stepperMatrix(std::uint32_t dim, std::uint64_t nnz)
{
    Rng rng(2024);
    return makeUniformRandom(dim, nnz, rng);
}

Workload
spmspm(SystemShape shape, MemType l1, std::uint64_t epoch_fp_ops)
{
    WorkloadOptions wo;
    wo.shape = shape;
    wo.l1Type = l1;
    wo.epochFpOps = epoch_fp_ops;
    return makeSpMSpMWorkload("stepper_spmspm", stepperMatrix(128, 900),
                              wo);
}

Workload
spmspv(SystemShape shape, MemType l1, std::uint64_t epoch_fp_ops)
{
    const CsrMatrix a = stepperMatrix(192, 1600);
    Rng rng(77);
    const SparseVector x = SparseVector::random(192, 0.5, rng);
    WorkloadOptions wo;
    wo.shape = shape;
    wo.l1Type = l1;
    wo.epochFpOps = epoch_fp_ops;
    return makeSpMSpVWorkload("stepper_spmspv", a, x, wo);
}

struct StepperCase
{
    std::string what;
    Workload wl;
    HwConfig cfg;
};

std::vector<StepperCase>
stepperCases()
{
    std::vector<StepperCase> cases;
    cases.push_back({"spmspm 2x8 cache", spmspm(smallShape,
                                                MemType::Cache, 150),
                     bestAvgConfig(MemType::Cache)});
    cases.push_back({"spmspm 4x16 cache", spmspm(bigShape,
                                                 MemType::Cache, 40),
                     maxConfig(MemType::Cache)});
    cases.push_back({"spmspm 2x8 spm", spmspm(smallShape, MemType::Spm,
                                              150),
                     baselineConfig(MemType::Spm)});
    cases.push_back({"spmspv 2x8 cache", spmspv(smallShape,
                                                MemType::Cache, 20),
                     maxConfig(MemType::Cache)});
    cases.push_back({"spmspv 4x16 cache", spmspv(bigShape,
                                                 MemType::Cache, 5),
                     baselineConfig(MemType::Cache)});
    cases.push_back({"spmspv 4x16 spm", spmspv(bigShape, MemType::Spm,
                                               5),
                     bestAvgConfig(MemType::Spm)});
    return cases;
}

/** A schedule that switches clock, capacities and sharing modes. */
Schedule
switchingSchedule(MemType l1, std::size_t epochs)
{
    const HwConfig a = baselineConfig(l1);
    const HwConfig b = maxConfig(l1);
    HwConfig c = bestAvgConfig(l1);
    c.clockIdx = 1;
    Schedule s;
    for (std::size_t e = 0; e < epochs; ++e)
        s.configs.push_back(e % 3 == 0 ? a : e % 3 == 1 ? b : c);
    return s;
}

FaultSpec
stepperFaults()
{
    FaultSpec spec;
    spec.dropRate = 0.1;
    spec.corruptRate = 0.15;
    spec.delayRate = 0.1;
    spec.reconfigFailRate = 0.3;
    spec.seed = 9;
    return spec;
}

/** FNV-1a over 64-bit words and strings. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    word(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }

    void
    text(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
};

/** Every record field, then every fault event of the injector. */
std::uint64_t
digestOf(const std::vector<EpochRecord> &epochs,
         const FaultInjector &faults)
{
    Digest d;
    d.word(epochs.size());
    for (const EpochRecord &r : epochs) {
        d.word(r.index);
        d.word(static_cast<std::uint64_t>(r.phase));
        d.word(r.cycles);
        d.real(r.seconds);
        d.real(r.flops);
        d.real(r.energy.core);
        d.real(r.energy.cache);
        d.real(r.energy.xbar);
        d.real(r.energy.dram);
        d.real(r.energy.background);
        d.word(r.telemetryValid ? 1 : 0);
        for (double v : r.counters.toVector())
            d.real(v);
    }
    d.word(faults.events().size());
    for (const FaultEvent &ev : faults.events()) {
        d.word(ev.epoch);
        d.word(static_cast<std::uint64_t>(ev.kind));
        d.text(ev.detail);
    }
    return d.h;
}

/** Records a replay closes when stepped to its end. */
std::vector<EpochRecord>
stepToEnd(Replay &replay)
{
    std::vector<EpochRecord> out;
    while (std::optional<EpochRecord> rec = replay.step())
        out.push_back(*rec);
    return out;
}

} // namespace

TEST(ReplayStepper, ResumingAtEveryBoundaryMatchesRun)
{
    const std::vector<StepperCase> cases = stepperCases();
    std::vector<SimResult> want;
    std::vector<Replay> replays;
    for (const StepperCase &c : cases) {
        const Transmuter sim(c.wl.params);
        want.push_back(sim.run(c.wl.trace, c.cfg));
        ASSERT_GT(want.back().epochs.size(), 2u) << c.what;
        replays.emplace_back(sim, c.wl.trace, c.cfg);
    }

    // Round-robin: every replay resumes after all the others ran an
    // epoch, and moves to a new object at every boundary.
    std::vector<std::vector<EpochRecord>> got(cases.size());
    for (bool progress = true; progress;) {
        progress = false;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            if (replays[i].done())
                continue;
            Replay moved(std::move(replays[i]));
            if (std::optional<EpochRecord> rec = moved.step()) {
                got[i].push_back(*rec);
                progress = true;
            }
            replays[i] = std::move(moved);
        }
    }

    for (std::size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE(cases[i].what);
        EXPECT_TRUE(replays[i].done());
        EXPECT_FALSE(replays[i].step().has_value());
        ASSERT_EQ(got[i].size(), want[i].epochs.size());
        for (std::size_t e = 0; e < got[i].size(); ++e) {
            SCOPED_TRACE("epoch " + std::to_string(e));
            expectSameRecord(got[i][e], want[i].epochs[e]);
        }
    }
}

TEST(ReplayStepper, BudgetedRunIsAPrefixOfTheStepper)
{
    for (const StepperCase &c : stepperCases()) {
        SCOPED_TRACE(c.what);
        const Transmuter sim(c.wl.params);
        Replay replay(sim, c.wl.trace, c.cfg);
        const std::vector<EpochRecord> all = stepToEnd(replay);
        for (const std::size_t budget : {std::size_t{1}, std::size_t{2},
                                         all.size() + 3}) {
            const SimResult r = sim.run(c.wl.trace, c.cfg, budget);
            ASSERT_EQ(r.epochs.size(), std::min(budget, all.size()));
            sadapt::test::expectPrefixOf(r.epochs, all);
        }
    }
}

/*
 * A switching schedule with telemetry and command faults. The digest
 * covers every record and the injector's event log, so the order of
 * filterSample()/applyCommand() calls at each boundary is pinned too.
 * The value was computed by the one-shot engine this stepper replaced.
 */
TEST(ReplayStepper, SwitchingScheduleWithFaultsIsPinned)
{
    struct Pinned
    {
        Workload wl;
        bool ee;
        std::uint64_t digest;
    };
    Pinned pins[] = {
        {spmspm(bigShape, MemType::Cache, 40), true,
         0x96f6fdf4657a960bull},
        {spmspv(smallShape, MemType::Spm, 20), false,
         0x86739c82e1dd47c3ull},
    };
    for (Pinned &p : pins) {
        SCOPED_TRACE(p.wl.name);
        const Transmuter sim(p.wl.params);
        const std::size_t n = sim.epochCount(p.wl.trace, 0);
        // Two spare entries: past the last epoch they must be ignored.
        const Schedule schedule = switchingSchedule(p.wl.l1Type, n + 2);
        const ReconfigCostModel cost(p.wl.params);

        FaultInjector faults(stepperFaults());
        const SimResult live =
            sim.runSchedule(p.wl.trace, schedule, cost, p.ee, &faults);
        ASSERT_EQ(live.epochs.size(), n);
        EXPECT_GT(faults.stats().reconfigFailures, 0u);
        const std::uint64_t got = digestOf(live.epochs, faults);
        EXPECT_EQ(got, p.digest)
            << "computed digest 0x" << std::hex << got;

        // The same schedule, driven by hand through switchTo().
        FaultInjector again(stepperFaults());
        Replay replay(sim, p.wl.trace, schedule.configs.front(), &again);
        std::vector<EpochRecord> driven;
        while (std::optional<EpochRecord> rec = replay.step()) {
            driven.push_back(*rec);
            if (!replay.done() && driven.size() < schedule.configs.size())
                replay.switchTo(schedule.configs[driven.size()], cost,
                                p.ee);
        }
        EXPECT_EQ(digestOf(driven, again), got);
    }
}

/*
 * epochCount() against the count a replay closes, for every suite
 * input at two scales and both L1 types, built the way serve sessions
 * build them (SpMSpM for the fig08 ids, SpMSpV for the rest).
 */
TEST(EpochCount, MatchesReplayedCountOnEverySuiteInput)
{
    std::vector<std::string> ids = syntheticIds();
    for (const std::string &id : spmspmRealWorldIds())
        ids.push_back(id);
    for (const std::string &id : spmspvRealWorldIds())
        ids.push_back(id);
    ASSERT_EQ(ids.size(), 22u);
    const std::vector<std::string> spmspm_ids = spmspmRealWorldIds();

    for (const double scale : {0.03, 0.06}) {
        for (const MemType l1 : {MemType::Cache, MemType::Spm}) {
            for (const std::string &id : ids) {
                SCOPED_TRACE(id + " scale " + std::to_string(scale) +
                             (l1 == MemType::Spm ? " spm" : " cache"));
                WorkloadOptions wo;
                wo.l1Type = l1;
                Workload wl;
                if (std::find(spmspm_ids.begin(), spmspm_ids.end(), id) !=
                    spmspm_ids.end()) {
                    wo.epochFpOps = std::max<std::uint64_t>(
                        250, static_cast<std::uint64_t>(5000 * scale));
                    wl = makeSpMSpMWorkload(id, makeSuiteMatrix(id, scale),
                                            wo);
                } else {
                    const double v_scale = std::min(1.0, 4.0 * scale);
                    const CsrMatrix m = makeSuiteMatrix(id, v_scale);
                    Rng rng(0x5adaull * 31 + m.rows());
                    const SparseVector x =
                        SparseVector::random(m.cols(), 0.5, rng);
                    wo.epochFpOps = std::max<std::uint64_t>(
                        100, static_cast<std::uint64_t>(500 * v_scale));
                    wl = makeSpMSpVWorkload(id, m, x, wo);
                }
                const Transmuter sim(wl.params);
                Replay replay(sim, wl.trace, baselineConfig(l1));
                const std::size_t n = stepToEnd(replay).size();
                EXPECT_EQ(sim.epochCount(wl.trace, 0), n);
                EXPECT_EQ(sim.epochCount(wl.trace, 1), 1u);
                EXPECT_EQ(sim.epochCount(wl.trace, 8),
                          std::min<std::size_t>(8, n));
            }
        }
    }
}

namespace {

/** 2x8 system, epoch target 2 FP ops x 16 GPEs = 32. */
RunParams
edgeParams()
{
    RunParams rp;
    rp.shape = smallShape;
    rp.epochFpOps = 2;
    return rp;
}

/** Give every GPE `fp` ops of `kind`, then `tail` integer ops. */
Trace
edgeTrace(std::uint32_t fp, OpKind kind, std::uint32_t tail,
          bool lcp_work = false)
{
    Trace t(smallShape);
    for (std::uint32_t g = 0; g < smallShape.numGpes(); ++g) {
        for (std::uint32_t i = 0; i < fp; ++i)
            t.pushGpe(g, {Addr{64} * (i % 8), 1, kind});
        for (std::uint32_t i = 0; i < tail; ++i)
            t.pushGpe(g, {0, 0, OpKind::IntOp});
    }
    if (lcp_work)
        for (std::uint32_t tile = 0; tile < smallShape.tiles; ++tile)
            for (int i = 0; i < 50; ++i)
                t.pushLcp(tile, {Addr{4096} + 64 * i, 2, OpKind::FpLoad});
    return t;
}

std::size_t
replayedCount(const Transmuter &sim, const Trace &t, MemType l1)
{
    Replay replay(sim, t, baselineConfig(l1));
    return stepToEnd(replay).size();
}

} // namespace

TEST(EpochCount, HandBuiltEdgeCases)
{
    const Transmuter sim(edgeParams());
    struct Case
    {
        std::string what;
        Trace trace;
        MemType l1;
        std::size_t want;
    };
    Case cases[] = {
        {"empty trace", Trace(smallShape), MemType::Cache, 1},
        {"integer ops only", edgeTrace(0, OpKind::IntOp, 7),
         MemType::Cache, 1},
        {"loads only (no FP kind)", edgeTrace(5, OpKind::Load, 0),
         MemType::Cache, 1},
        // 16 GPEs x 4 FP ops = 64 = exactly two targets: both close in
        // the loop and no tail record follows.
        {"exact multiple", edgeTrace(4, OpKind::FpOp, 0),
         MemType::Cache, 2},
        {"non-FP ops after the last close",
         edgeTrace(4, OpKind::FpOp, 9), MemType::Cache, 2},
        {"remainder closes a tail epoch", edgeTrace(5, OpKind::FpLoad, 3),
         MemType::Cache, 3},
        // LCP FP ops never count toward the target.
        {"LCP FP work does not count", edgeTrace(4, OpKind::FpOp, 0, true),
         MemType::Cache, 2},
        {"SPM words count", edgeTrace(6, OpKind::SpmLoad, 2),
         MemType::Spm, 3},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        EXPECT_EQ(replayedCount(sim, c.trace, c.l1), c.want);
        EXPECT_EQ(sim.epochCount(c.trace, 0), c.want);
        EXPECT_EQ(sim.epochCount(c.trace, 1), 1u);
        EXPECT_EQ(sim.epochCount(c.trace, 8), std::min<std::size_t>(
                                                  8, c.want));
        EXPECT_EQ(sim.run(c.trace, baselineConfig(c.l1)).epochs.size(),
                  c.want);
    }
}
