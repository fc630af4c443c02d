/**
 * @file
 * Tests for the telemetry guard, the controller watchdog, and the
 * behaviour of the predictor/policy under degraded telemetry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "adapt/guard.hh"
#include "adapt/policy.hh"
#include "adapt/predictor.hh"
#include "adapt/telemetry.hh"
#include "obs/journal.hh"
#include "obs/observer.hh"

using namespace sadapt;

namespace {

/** A plausible, in-bounds telemetry sample. */
PerfCounterSample
cleanSample()
{
    PerfCounterSample s;
    s.l1AccessThroughput = 0.5;
    s.l1Occupancy = 0.6;
    s.l1MissRate = 0.2;
    s.l1CapNorm = 0.0625;
    s.l2AccessThroughput = 0.3;
    s.l2Occupancy = 0.4;
    s.l2MissRate = 0.5;
    s.l2CapNorm = 0.0625;
    s.gpeIpc = 0.4;
    s.gpeFpIpc = 0.1;
    s.lcpIpc = 0.2;
    s.clockNorm = 1.0;
    s.memReadBwUtil = 0.7;
    s.memWriteBwUtil = 0.2;
    return s;
}

/** Warm a guard's history with n clean epochs. */
void
warm(TelemetryGuard &guard, int n)
{
    for (int i = 0; i < n; ++i) {
        PerfCounterSample s = cleanSample();
        ASSERT_EQ(guard.inspect(s).verdict, SampleVerdict::Ok);
    }
}

} // namespace

TEST(TelemetryGuard, CleanSamplesPassUnmodified)
{
    TelemetryGuard guard;
    for (int i = 0; i < 10; ++i) {
        PerfCounterSample s = cleanSample();
        const GuardReport r = guard.inspect(s);
        EXPECT_EQ(r.verdict, SampleVerdict::Ok);
        EXPECT_TRUE(r.flagged.empty());
        EXPECT_EQ(s.toVector(), cleanSample().toVector());
    }
    EXPECT_EQ(guard.stats().samplesOk, 10u);
    EXPECT_EQ(guard.stats().samplesClamped, 0u);
    ASSERT_TRUE(guard.lastKnownGood().has_value());
}

TEST(TelemetryGuard, NonFiniteCounterRepairedFromHistory)
{
    TelemetryGuard guard;
    warm(guard, 6);
    PerfCounterSample s = cleanSample();
    s.l1MissRate = std::numeric_limits<double>::quiet_NaN();
    const GuardReport r = guard.inspect(s);
    EXPECT_EQ(r.verdict, SampleVerdict::Suspect);
    ASSERT_EQ(r.flagged.size(), 1u);
    // Repaired to the rolling median of the clean history.
    EXPECT_NEAR(s.l1MissRate, 0.2, 1e-12);
    EXPECT_EQ(guard.stats().samplesClamped, 1u);
}

TEST(TelemetryGuard, OutOfBoundsWithoutHistoryClamps)
{
    TelemetryGuard guard; // no history yet: bounds are all we have
    PerfCounterSample s = cleanSample();
    s.l1MissRate = 1.7; // a rate cannot exceed 1
    const GuardReport r = guard.inspect(s);
    EXPECT_EQ(r.verdict, SampleVerdict::Suspect);
    EXPECT_DOUBLE_EQ(s.l1MissRate, 1.0);
}

TEST(TelemetryGuard, HugeSpikeImputedNotClamped)
{
    TelemetryGuard guard;
    warm(guard, 6);
    PerfCounterSample s = cleanSample();
    s.gpeIpc = 400.0; // 1000x spike, far outside [0, 4]
    const GuardReport r = guard.inspect(s);
    EXPECT_EQ(r.verdict, SampleVerdict::Suspect);
    // With history, the repair is the median (0.4), not the physical
    // bound (4.0): the spike carries no information about the truth.
    EXPECT_NEAR(s.gpeIpc, 0.4, 1e-12);
}

TEST(TelemetryGuard, InBoundsOutlierImputedFromMedian)
{
    TelemetryGuard guard;
    warm(guard, 6);
    PerfCounterSample s = cleanSample();
    s.l1AccessThroughput = 3.5; // within [0, 4] but 7 sigma off
    const GuardReport r = guard.inspect(s);
    EXPECT_EQ(r.verdict, SampleVerdict::Suspect);
    EXPECT_NEAR(s.l1AccessThroughput, 0.5, 1e-12);
}

TEST(TelemetryGuard, MostlyGarbageSampleDiscarded)
{
    TelemetryGuard guard;
    warm(guard, 6);
    const PerfCounterSample good = *guard.lastKnownGood();
    PerfCounterSample s = cleanSample();
    // Corrupt well over badFraction (25%) of the 19 counters.
    s.l1AccessThroughput = -3.0;
    s.l1Occupancy = 55.0;
    s.l1MissRate = std::numeric_limits<double>::infinity();
    s.l2MissRate = -1.0;
    s.gpeIpc = 1e9;
    s.lcpIpc = std::numeric_limits<double>::quiet_NaN();
    const PerfCounterSample before = s;
    const GuardReport r = guard.inspect(s);
    EXPECT_EQ(r.verdict, SampleVerdict::Bad);
    EXPECT_GE(r.flagged.size(), 6u);
    // BAD samples are left untouched and last-known-good is preserved.
    EXPECT_EQ(s.toVector().back(), before.toVector().back());
    EXPECT_EQ(guard.lastKnownGood()->toVector(), good.toVector());
    EXPECT_EQ(guard.stats().samplesDiscarded, 1u);
}

TEST(TelemetryGuard, SustainedLevelShiftEventuallyAccepted)
{
    // A legitimate phase change looks like an outlier at first, but
    // raw values are admitted to history, so the median catches up and
    // the new level stops being flagged within about half a window.
    TelemetryGuard guard;
    warm(guard, 8);
    int flagged_epochs = 0;
    bool accepted = false;
    for (int i = 0; i < 8; ++i) {
        PerfCounterSample s = cleanSample();
        s.l1MissRate = 0.9; // new phase: much worse locality
        const GuardReport r = guard.inspect(s);
        if (r.verdict == SampleVerdict::Ok) {
            accepted = true;
            EXPECT_DOUBLE_EQ(s.l1MissRate, 0.9);
            break;
        }
        ++flagged_epochs;
    }
    EXPECT_TRUE(accepted);
    EXPECT_LE(flagged_epochs, 5);
}

TEST(TelemetryGuard, MissingSamplesAreCounted)
{
    TelemetryGuard guard;
    guard.recordMissing();
    guard.recordMissing();
    EXPECT_EQ(guard.stats().samplesMissing, 2u);
}

TEST(TelemetryGuard, ResetClearsHistoryAndStats)
{
    TelemetryGuard guard;
    warm(guard, 6);
    guard.reset();
    EXPECT_EQ(guard.stats().samplesOk, 0u);
    EXPECT_FALSE(guard.lastKnownGood().has_value());
}

TEST(Watchdog, HealthyRunNeverTrips)
{
    Watchdog wd;
    for (int i = 0; i < 100; ++i) {
        const auto d = wd.observe(1.0 + 0.01 * (i % 5), true);
        EXPECT_FALSE(d.hold);
        EXPECT_FALSE(d.revert);
    }
    EXPECT_EQ(wd.reverts(), 0u);
    EXPECT_EQ(wd.state(), WatchdogState::Normal);
    EXPECT_NEAR(wd.reference(), 1.0, 0.1);
}

TEST(Watchdog, MissingTelemetryHoldsConfiguration)
{
    Watchdog wd;
    wd.observe(1.0, true);
    const auto d = wd.observe(1.0, false);
    EXPECT_TRUE(d.hold);
    EXPECT_FALSE(d.revert);
    EXPECT_EQ(wd.heldEpochs(), 1u);
}

TEST(Watchdog, ConsecutiveCollapseTriggersRevert)
{
    WatchdogOptions opts;
    opts.degradedLimit = 4;
    Watchdog wd(opts);
    for (int i = 0; i < 5; ++i)
        wd.observe(1.0, true);
    // Efficiency collapses to 10% of the reference.
    Watchdog::Decision d{};
    int epochs_to_revert = 0;
    while (!d.revert && epochs_to_revert < 10) {
        d = wd.observe(0.1, true);
        ++epochs_to_revert;
    }
    EXPECT_TRUE(d.revert);
    EXPECT_EQ(epochs_to_revert, 4);
    EXPECT_EQ(wd.state(), WatchdogState::Reverted);
    EXPECT_EQ(wd.reverts(), 1u);
}

TEST(Watchdog, IsolatedDipDoesNotRevert)
{
    WatchdogOptions opts;
    opts.degradedLimit = 4;
    Watchdog wd(opts);
    for (int i = 0; i < 5; ++i)
        wd.observe(1.0, true);
    for (int round = 0; round < 10; ++round) {
        // Three degraded epochs, then recovery: streak resets.
        EXPECT_FALSE(wd.observe(0.1, true).revert);
        EXPECT_FALSE(wd.observe(0.1, true).revert);
        EXPECT_FALSE(wd.observe(0.1, true).revert);
        EXPECT_FALSE(wd.observe(1.0, true).revert);
    }
    EXPECT_EQ(wd.reverts(), 0u);
}

TEST(Watchdog, HoldsBaselineForHysteresisThenResumes)
{
    WatchdogOptions opts;
    opts.degradedLimit = 2;
    opts.holdEpochs = 3;
    Watchdog wd(opts);
    for (int i = 0; i < 5; ++i)
        wd.observe(1.0, true);
    wd.observe(0.1, true);
    EXPECT_TRUE(wd.observe(0.1, true).revert);
    // The baseline recovers efficiency 0.9; the watchdog keeps
    // commanding it until the hold expires.
    int held = 0;
    while (wd.state() == WatchdogState::Reverted && held < 10) {
        EXPECT_TRUE(wd.observe(0.9, true).revert);
        ++held;
    }
    EXPECT_EQ(held, 3);
    // Adaptation resumed, with the reference re-seeded from the
    // baseline's realized efficiency (no immediate re-trigger).
    EXPECT_EQ(wd.state(), WatchdogState::Normal);
    EXPECT_FALSE(wd.observe(0.9, true).revert);
    EXPECT_NEAR(wd.reference(), 0.9, 0.05);
}

TEST(Watchdog, EveryTripEmitsExactlyOneTransitionEvent)
{
    // Degraded-mode transitions are part of the audit trail: each
    // Normal -> Reverted trip (and each recovery) must appear as
    // exactly one journaled watchdog event.
    std::ostringstream journal;
    obs::RunObserver observer;
    observer.attachJournal(journal);

    WatchdogOptions opts;
    opts.degradedLimit = 2;
    opts.holdEpochs = 2;
    Watchdog wd(opts);
    wd.attachObserver(&observer);

    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 5; ++i)
            wd.observe(1.0, true);
        // Collapse until the watchdog trips, then ride out the hold.
        for (int i = 0; wd.state() == WatchdogState::Normal && i < 20;
             ++i)
            wd.observe(0.1, true);
        ASSERT_EQ(wd.state(), WatchdogState::Reverted);
        for (int i = 0;
             wd.state() == WatchdogState::Reverted && i < 20; ++i)
            wd.observe(0.9, true);
        ASSERT_EQ(wd.state(), WatchdogState::Normal);
    }
    EXPECT_EQ(wd.reverts(), 3u);

    std::istringstream in(journal.str());
    const auto read = sadapt::obs::readJournal(in);
    ASSERT_TRUE(read.isOk()) << read.message();
    std::size_t to_reverted = 0, to_normal = 0;
    for (const auto &ev : read.value().events) {
        ASSERT_EQ(ev.type, "watchdog");
        ASSERT_EQ(ev.path, "adapt/watchdog");
        const auto to = ev.strField("to");
        ASSERT_TRUE(to.has_value());
        if (*to == "reverted") {
            ++to_reverted;
            EXPECT_EQ(ev.strField("from"), "normal");
        } else {
            ++to_normal;
            EXPECT_EQ(*to, "normal");
            EXPECT_EQ(ev.strField("from"), "reverted");
        }
    }
    // Exactly one event per edge: 3 trips, 3 recoveries.
    EXPECT_EQ(to_reverted, wd.reverts());
    EXPECT_EQ(to_normal, 3u);
}

TEST(Watchdog, CollapseDoesNotDragReferenceDown)
{
    Watchdog wd;
    for (int i = 0; i < 10; ++i)
        wd.observe(1.0, true);
    const double ref_before = wd.reference();
    wd.observe(0.1, true);
    wd.observe(0.1, true);
    EXPECT_DOUBLE_EQ(wd.reference(), ref_before);
}

// --- Predictor / Policy under degraded inputs ------------------------

namespace {

/** Predictor trained to map the clean sample to maxConfig(). */
Predictor
spikyPredictor()
{
    TrainingSet set;
    for (int i = 0; i < 4; ++i)
        set.add(buildFeatures(baselineConfig(), cleanSample()),
                maxConfig());
    Predictor pred;
    pred.trainFixed(set, TreeParams{});
    return pred;
}

} // namespace

TEST(DegradedInputs, PredictorSurvivesAllZeroSample)
{
    const Predictor pred = spikyPredictor();
    // A stuck telemetry register reads as all zeros; prediction must
    // still produce a well-formed configuration.
    const HwConfig out =
        pred.predict(baselineConfig(), PerfCounterSample{});
    for (Param p : allParams())
        EXPECT_LT(paramValue(out, p), paramCardinality(p));
}

TEST(DegradedInputs, PredictorSurvivesNonFiniteSample)
{
    const Predictor pred = spikyPredictor();
    PerfCounterSample s = cleanSample();
    s.gpeIpc = std::numeric_limits<double>::quiet_NaN();
    s.l1MissRate = std::numeric_limits<double>::infinity();
    const HwConfig out = pred.predict(baselineConfig(), s);
    for (Param p : allParams())
        EXPECT_LT(paramValue(out, p), paramCardinality(p));
}

TEST(DegradedInputs, GuardedSpikeLeavesPredictionUnchanged)
{
    // A single 1000x spike, routed through the guard, must not change
    // the prediction: the spiked counter is imputed from history.
    const Predictor pred = spikyPredictor();
    TelemetryGuard guard;
    warm(guard, 6);

    PerfCounterSample clean = cleanSample();
    const HwConfig want = pred.predict(baselineConfig(), clean);

    PerfCounterSample spiked = cleanSample();
    spiked.memReadBwUtil *= 1000.0;
    const GuardReport r = guard.inspect(spiked);
    EXPECT_NE(r.verdict, SampleVerdict::Bad);
    EXPECT_EQ(pred.predict(baselineConfig(), spiked), want);
}

TEST(DegradedInputs, ConservativePolicyBoundsPerEpochChange)
{
    // Even when a degraded sample makes the predictor want maxConfig,
    // the conservative policy only lets hysteresis-allowed (non-flush)
    // changes through in one epoch.
    ReconfigCostModel cost(SystemShape{}, 1e9, EnergyParams{});
    Policy policy(PolicyKind::Conservative);
    const HwConfig cur = baselineConfig();
    const HwConfig got =
        policy.apply(cur, maxConfig(), 1e-3, cost, true);
    EXPECT_EQ(got.l1Sharing, cur.l1Sharing);
    EXPECT_EQ(got.l2Sharing, cur.l2Sharing);
}
