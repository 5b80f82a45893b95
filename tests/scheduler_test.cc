/**
 * @file
 * Tests for Sinan's online scheduler: warm-up behaviour, the safety
 * fallbacks, candidate filtering, victim tracking, bounds, the
 * degraded-telemetry paths, and exception safety.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "app/apps.h"
#include "common/check.h"
#include "core/scheduler.h"
#include "core/telemetry_guard.h"
#include "harness/telemetry_log.h"
#include "test_util.h"

namespace sinan {
namespace {

using testutil::MakeObs;
using testutil::SmallFeatures;
using testutil::SyntheticDataset;

/** Fixture with a tiny hybrid model trained on the synthetic law. */
class SchedulerFixture : public ::testing::Test {
  protected:
    static void
    SetUpTestSuite()
    {
        features_ = new FeatureConfig(SmallFeatures(4, 3));
        const Dataset all = SyntheticDataset(*features_, 500, 71);
        Rng rng(73);
        const auto [train, valid] = all.Split(0.9, rng);
        HybridConfig cfg;
        cfg.train.epochs = 15;
        cfg.bt.n_trees = 60;
        model_ = new HybridModel(*features_, cfg, 77);
        model_->Train(train, valid);

        app_ = new Application();
        app_->name = "toy";
        app_->qos_ms = features_->qos_ms;
        for (int i = 0; i < features_->n_tiers; ++i) {
            TierSpec t;
            t.name = "tier" + std::to_string(i);
            t.min_cpu = 0.2;
            t.max_cpu = 8.0;
            t.init_cpu = 2.0;
            app_->tiers.push_back(t);
        }
        RequestType rt;
        rt.name = "r";
        rt.root.tier = 0;
        app_->request_types.push_back(rt);
    }

    static void
    TearDownTestSuite()
    {
        delete model_;
        delete features_;
        delete app_;
        model_ = nullptr;
        features_ = nullptr;
        app_ = nullptr;
    }

    static FeatureConfig* features_;
    static HybridModel* model_;
    static Application* app_;
};

FeatureConfig* SchedulerFixture::features_ = nullptr;
HybridModel* SchedulerFixture::model_ = nullptr;
Application* SchedulerFixture::app_ = nullptr;

TEST_F(SchedulerFixture, WarmupUsesConservativeUtilizationStepping)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    const std::vector<double> alloc(app_->tiers.size(), 2.0);
    // Window needs `history` observations; until then the scheduler
    // falls back to utilization stepping (no model predictions).
    for (int t = 0; t + 1 < features_->history; ++t) {
        // Low utilization, healthy latency: warmup holds.
        const IntervalObservation obs =
            MakeObs(*features_, t, 100, 2.0, 0.2, 100);
        EXPECT_EQ(sched.Decide(obs, alloc, *app_), alloc);
        EXPECT_LT(sched.LastPredictedP99(), 0.0);
    }
}

TEST_F(SchedulerFixture, WarmupGrowsStarvedAllocation)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    // Saturated tiers during warmup must be grown immediately, not
    // held until the window fills.
    const IntervalObservation obs =
        MakeObs(*features_, 0, 400, 2.0, 0.95, 450);
    const std::vector<double> next = sched.Decide(obs, alloc, *app_);
    for (size_t i = 0; i < next.size(); ++i)
        EXPECT_GT(next[i], alloc[i]);
}

TEST_F(SchedulerFixture, ObservedViolationTriggersBlanketUpscale)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    for (int t = 0; t < features_->history; ++t) {
        const IntervalObservation obs =
            MakeObs(*features_, t, 100, 2.0, 0.5, 100);
        alloc = sched.Decide(obs, alloc, *app_);
    }
    const std::vector<double> before = alloc;
    const IntervalObservation bad = MakeObs(
        *features_, features_->history, 100, 2.0, 0.9,
        app_->qos_ms + 100.0);
    const std::vector<double> after = sched.Decide(bad, before, *app_);
    for (size_t i = 0; i < after.size(); ++i)
        EXPECT_GT(after[i], before[i]);
}

TEST_F(SchedulerFixture, PersistentViolationEscalatesToMax)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    for (int t = 0;
         t < features_->history + SinanScheduler::kMaxFallbackAfter; ++t) {
        const IntervalObservation obs = MakeObs(
            *features_, t, 100, 2.0, 0.95, app_->qos_ms + 200.0);
        alloc = sched.Decide(obs, alloc, *app_);
    }
    for (size_t i = 0; i < alloc.size(); ++i)
        EXPECT_DOUBLE_EQ(alloc[i], app_->tiers[i].max_cpu);
}

TEST_F(SchedulerFixture, PersistentViolationReducesModelTrust)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    // Healthy warmup, then a violation streak: after kMaxFallbackAfter
    // consecutive observed violations the safety fallback escalates and
    // the model's trust is reduced.
    for (int t = 0; t < features_->history; ++t) {
        const IntervalObservation obs =
            MakeObs(*features_, t, 100, 2.0, 0.5, 100);
        alloc = sched.Decide(obs, alloc, *app_);
    }
    EXPECT_FALSE(sched.TrustReduced());
    int t = features_->history;
    // The violations before the threshold: blanket upscales but no
    // trust change yet.
    for (int v = 0; v + 1 < SinanScheduler::kMaxFallbackAfter; ++v) {
        alloc = sched.Decide(MakeObs(*features_, t++, 100, 2.0, 0.95,
                                     app_->qos_ms + 200.0),
                             alloc, *app_);
        EXPECT_FALSE(sched.TrustReduced()) << "violation " << v;
    }
    // The next consecutive violation reaches kMaxFallbackAfter.
    alloc = sched.Decide(
        MakeObs(*features_, t++, 100, 2.0, 0.95, app_->qos_ms + 200.0),
        alloc, *app_);
    EXPECT_TRUE(sched.TrustReduced());
    // Trust stays reduced through later healthy intervals…
    for (int k = 0; k < 3; ++k) {
        alloc = sched.Decide(
            MakeObs(*features_, t++, 100, 2.0, 0.4, 90), alloc, *app_);
        EXPECT_TRUE(sched.TrustReduced());
    }
    // …until Reset().
    sched.Reset();
    EXPECT_FALSE(sched.TrustReduced());
}

TEST_F(SchedulerFixture, TrustRestoredAfterSustainedHealthyStreak)
{
    // Regression: trust_reduced_ used to latch on forever; the paper
    // restores trust as predictions prove out.
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    for (int t = 0; t < features_->history; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 2.0, 0.5, 100), alloc, *app_);
    }
    // Violation streak reaching kMaxFallbackAfter loses trust...
    int t = features_->history;
    for (int v = 0; v < SinanScheduler::kMaxFallbackAfter; ++v) {
        alloc = sched.Decide(
            MakeObs(*features_, t++, 100, 2.0, 0.95,
                    app_->qos_ms + 200.0),
            alloc, *app_);
    }
    ASSERT_TRUE(sched.TrustReduced());
    // ...a short healthy stretch is not enough to restore it...
    for (int k = 0; k + 1 < SinanScheduler::kTrustRestoreHealthy; ++k) {
        alloc = sched.Decide(
            MakeObs(*features_, t++, 100, 2.0, 0.4, 90), alloc, *app_);
        EXPECT_TRUE(sched.TrustReduced());
    }
    // ...but a sustained one is.
    alloc = sched.Decide(
        MakeObs(*features_, t++, 100, 2.0, 0.4, 90), alloc, *app_);
    EXPECT_FALSE(sched.TrustReduced());
}

TEST_F(SchedulerFixture, MispredictionsDecayDuringHealthyStreak)
{
    // Regression: mispredictions_ only ever grew, so one bad phase
    // early in a long run poisoned the trust budget permanently.
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 4.0);
    for (int t = 0; t + 1 < features_->history; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 4.0, 0.4, 90), alloc, *app_);
    }
    // First model decision: a prediction is pending.
    alloc = sched.Decide(
        MakeObs(*features_, features_->history, 100, 4.0, 0.4, 90),
        alloc, *app_);
    ASSERT_GT(sched.LastPredictedP99(), 0.0);
    // The model predicted OK but the interval violated: misprediction.
    alloc = sched.Decide(
        MakeObs(*features_, features_->history + 1, 100, 4.0, 0.95,
                app_->qos_ms + 100.0),
        alloc, *app_);
    ASSERT_EQ(sched.Mispredictions(), 1);
    // Every kTrustDecayEvery-th comfortably-healthy interval forgives
    // one misprediction: the count holds until then, then reaches zero.
    int t = features_->history + 2;
    for (int k = 0; k + 1 < SinanScheduler::kTrustDecayEvery; ++k) {
        alloc = sched.Decide(MakeObs(*features_, t++, 100, 4.0, 0.4, 90),
                             alloc, *app_);
        EXPECT_EQ(sched.Mispredictions(), 1) << "healthy interval " << k;
    }
    alloc = sched.Decide(MakeObs(*features_, t++, 100, 4.0, 0.4, 90),
                         alloc, *app_);
    EXPECT_EQ(sched.Mispredictions(), 0);
}

TEST_F(SchedulerFixture, BrokenViolationStreakKeepsTrust)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    for (int t = 0; t < features_->history; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 2.0, 0.5, 100), alloc, *app_);
    }
    // Violation streaks one short of kMaxFallbackAfter, separated by
    // healthy intervals, never escalate, so trust is kept.
    int t = features_->history;
    for (int round = 0; round < 3; ++round) {
        for (int v = 0; v + 1 < SinanScheduler::kMaxFallbackAfter; ++v) {
            alloc = sched.Decide(
                MakeObs(*features_, t++, 100, 2.0, 0.95,
                        app_->qos_ms + 150.0),
                alloc, *app_);
        }
        alloc = sched.Decide(
            MakeObs(*features_, t++, 100, 2.0, 0.4, 90), alloc, *app_);
    }
    EXPECT_FALSE(sched.TrustReduced());
}

TEST_F(SchedulerFixture, EscalatedFallbackScalesUpEveryTier)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    for (int t = 0; t < features_->history; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 2.0, 0.5, 100), alloc, *app_);
    }
    // Drive into the escalated fallback and check the scale-up-all
    // shape: every tier strictly grows (until clamped at max_cpu).
    std::vector<double> before = alloc;
    for (int v = 0; v < SinanScheduler::kMaxFallbackAfter; ++v) {
        before = alloc;
        alloc = sched.Decide(
            MakeObs(*features_, features_->history + v, 100, 2.0, 0.95,
                    app_->qos_ms + 200.0),
            alloc, *app_);
        for (size_t i = 0; i < alloc.size(); ++i) {
            if (before[i] < app_->tiers[i].max_cpu - 1e-9) {
                EXPECT_GT(alloc[i], before[i]) << "tier " << i;
            }
            EXPECT_LE(alloc[i], app_->tiers[i].max_cpu + 1e-9);
        }
    }
    EXPECT_TRUE(sched.TrustReduced());
}

TEST_F(SchedulerFixture, DecisionsStayWithinSpecBounds)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    Rng rng(79);
    for (int t = 0; t < 30; ++t) {
        const IntervalObservation obs =
            MakeObs(*features_, t, rng.Uniform(50, 400), 2.0,
                    rng.Uniform(0.2, 0.9), rng.Uniform(50, 450));
        alloc = sched.Decide(obs, alloc, *app_);
        for (size_t i = 0; i < alloc.size(); ++i) {
            EXPECT_GE(alloc[i], app_->tiers[i].min_cpu - 1e-9);
            EXPECT_LE(alloc[i], app_->tiers[i].max_cpu + 1e-9);
        }
    }
}

TEST_F(SchedulerFixture, ExposesPredictionsAfterNormalDecision)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 4.0);
    double last = -1.0;
    for (int t = 0; t < features_->history + 2; ++t) {
        const IntervalObservation obs =
            MakeObs(*features_, t, 100, 4.0, 0.4, 90);
        alloc = sched.Decide(obs, alloc, *app_);
        last = sched.LastPredictedP99();
    }
    EXPECT_GT(last, 0.0);
    EXPECT_GE(sched.LastViolationProb(), 0.0);
    EXPECT_LE(sched.LastViolationProb(), 1.0);
}

TEST_F(SchedulerFixture, ReclaimsWhenComfortablyMeetingQos)
{
    // Plenty of allocation and low predicted latency: within a few
    // intervals total CPU must come down.
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 6.0);
    const double total_before =
        std::accumulate(alloc.begin(), alloc.end(), 0.0);
    for (int t = 0; t < features_->history + 6; ++t) {
        const IntervalObservation obs =
            MakeObs(*features_, t, 100, 6.0, 0.15, 80);
        alloc = sched.Decide(obs, alloc, *app_);
    }
    const double total_after =
        std::accumulate(alloc.begin(), alloc.end(), 0.0);
    EXPECT_LT(total_after, total_before);
}

TEST_F(SchedulerFixture, NeverDownsizesSaturatedTier)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    for (int t = 0; t < features_->history; ++t) {
        const IntervalObservation obs =
            MakeObs(*features_, t, 100, 2.0, 0.5, 90);
        alloc = sched.Decide(obs, alloc, *app_);
    }
    // Tier 0 saturated, others idle.
    IntervalObservation obs =
        MakeObs(*features_, features_->history, 100, 2.0, 0.2, 90);
    obs.tiers[0].cpu_used = obs.tiers[0].cpu_limit * 0.99;
    const std::vector<double> before = alloc;
    const std::vector<double> after = sched.Decide(obs, before, *app_);
    EXPECT_GE(after[0], before[0] - 1e-9);
}

TEST_F(SchedulerFixture, ResetClearsState)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    for (int t = 0; t < features_->history + 2; ++t) {
        const IntervalObservation obs =
            MakeObs(*features_, t, 100, 2.0, 0.5, 90);
        alloc = sched.Decide(obs, alloc, *app_);
    }
    sched.Reset();
    // After reset the warm-up fallback applies again (holds at low
    // utilization, no model prediction).
    const IntervalObservation obs =
        MakeObs(*features_, 0, 100, 2.0, 0.2, 90);
    const std::vector<double> fresh(app_->tiers.size(), 3.0);
    EXPECT_EQ(sched.Decide(obs, fresh, *app_), fresh);
    EXPECT_EQ(sched.Mispredictions(), 0);
    EXPECT_FALSE(sched.TrustReduced());
}

// ---- graceful degradation --------------------------------------------

/** Blank observation: what the harness hands the manager when the
 *  telemetry pipeline dropped the interval outright. */
IntervalObservation
BlankObs(double time_s)
{
    IntervalObservation obs;
    obs.time_s = time_s;
    return obs;
}

TEST_F(SchedulerFixture, DegradedTelemetryNeverThrowsOrShrinks)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    DecisionTrace trace;
    MetricsRegistry metrics;
    sched.AttachTelemetry(&trace, &metrics);
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    int t = 0;
    for (; t < features_->history + 2; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 2.0, 0.5, 100), alloc, *app_);
    }

    // Absent (dropped interval), non-finite, and stale observations
    // must all route through the degraded path without a throw and
    // without reclaiming CPU from any tier.
    IntervalObservation nan_obs =
        MakeObs(*features_, t++, 100, 2.0, 0.5, 100);
    nan_obs.latency_ms.back() =
        std::numeric_limits<double>::quiet_NaN();
    IntervalObservation stale_obs =
        MakeObs(*features_, 0, 100, 2.0, 0.5, 100); // time goes back
    const std::vector<IntervalObservation> degraded = {
        BlankObs(static_cast<double>(t)), nan_obs, stale_obs};

    const size_t traced_before = trace.intervals.size();
    for (const IntervalObservation& obs : degraded) {
        const std::vector<double> before = alloc;
        ASSERT_NO_THROW(alloc = sched.Decide(obs, before, *app_));
        for (size_t i = 0; i < alloc.size(); ++i)
            EXPECT_GE(alloc[i], before[i] - 1e-9) << "tier " << i;
    }
    ASSERT_EQ(trace.intervals.size(), traced_before + degraded.size());
    EXPECT_EQ(trace.intervals[traced_before].telemetry,
              TelemetryHealth::kAbsent);
    EXPECT_EQ(trace.intervals[traced_before + 1].telemetry,
              TelemetryHealth::kNonFinite);
    EXPECT_EQ(trace.intervals[traced_before + 2].telemetry,
              TelemetryHealth::kStale);
    EXPECT_EQ(metrics.Counter("sinan.scheduler.degraded"), 3u);
    EXPECT_EQ(sched.SilentIntervals(), 3);

    // A fresh observation clears the silent counter.
    alloc = sched.Decide(MakeObs(*features_, t + 10, 100, 2.0, 0.5, 100),
                         alloc, *app_);
    EXPECT_EQ(sched.SilentIntervals(), 0);
    sched.AttachTelemetry(nullptr, nullptr);
}

TEST_F(SchedulerFixture, WatchdogUpscalesAfterPersistentSilence)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    MetricsRegistry metrics;
    sched.AttachTelemetry(nullptr, &metrics);
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    int t = 0;
    for (; t < features_->history + 2; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 2.0, 0.5, 100), alloc, *app_);
    }

    // A blackout: every further interval is a blank observation. Once
    // the silence reaches the watchdog threshold, every tier must grow
    // each interval (until clamped).
    for (int k = 0; k < 5; ++k) {
        const std::vector<double> before = alloc;
        alloc = sched.Decide(BlankObs(static_cast<double>(t++)), before,
                             *app_);
        if (k + 1 >= SinanScheduler::kWatchdogSilentAfter) {
            for (size_t i = 0; i < alloc.size(); ++i) {
                if (before[i] < app_->tiers[i].max_cpu - 1e-9) {
                    EXPECT_GT(alloc[i], before[i]) << "tier " << i;
                }
            }
        }
    }
    EXPECT_EQ(metrics.Counter("sinan.scheduler.watchdog"),
              5u - SinanScheduler::kWatchdogSilentAfter + 1u);
    EXPECT_EQ(sched.SilentIntervals(), 5);
    sched.AttachTelemetry(nullptr, nullptr);
}

TEST_F(SchedulerFixture, DegradedWindowDecisionNeverReclaims)
{
    // With a full window the degraded path consults the model on the
    // last-known-good features — but must reject every down candidate.
    SinanScheduler sched(*model_, SchedulerConfig{});
    DecisionTrace trace;
    sched.AttachTelemetry(&trace, nullptr);
    // Generous allocation and comfortable latency: the fresh path
    // would be tempted to reclaim here.
    std::vector<double> alloc(app_->tiers.size(), 6.0);
    int t = 0;
    for (; t < features_->history + 6; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 6.0, 0.15, 80), alloc, *app_);
    }
    const std::vector<double> before = alloc;
    alloc = sched.Decide(BlankObs(static_cast<double>(t)), before, *app_);
    ASSERT_FALSE(trace.intervals.empty());
    const DecisionTraceEntry& e = trace.intervals.back();
    EXPECT_EQ(e.kind, DecisionKind::kDegradedModel);
    EXPECT_FALSE(e.may_reclaim);
    for (const CandidateTrace& ct : e.candidates) {
        if (ct.kind == ActionKind::kScaleDown ||
            ct.kind == ActionKind::kScaleDownBatch) {
            EXPECT_EQ(ct.outcome,
                      CandidateOutcome::kRejectedDegradedTelemetry);
        }
    }
    for (size_t i = 0; i < alloc.size(); ++i)
        EXPECT_GE(alloc[i], before[i] - 1e-9);
    sched.AttachTelemetry(nullptr, nullptr);
}

TEST_F(SchedulerFixture, DegradedBeforeAnyGoodTelemetryHolds)
{
    // Telemetry broken from the very first interval: nothing to fall
    // back on, so the scheduler holds (and the watchdog eventually
    // takes over).
    SinanScheduler sched(*model_, SchedulerConfig{});
    DecisionTrace trace;
    sched.AttachTelemetry(&trace, nullptr);
    const std::vector<double> alloc(app_->tiers.size(), 2.0);
    std::vector<double> a = alloc;
    int k = 0;
    for (; k + 1 < SinanScheduler::kWatchdogSilentAfter; ++k) {
        a = sched.Decide(BlankObs(static_cast<double>(k)), a, *app_);
        EXPECT_EQ(a, alloc);
        EXPECT_EQ(trace.intervals.back().kind,
                  DecisionKind::kDegradedHold);
    }
    a = sched.Decide(BlankObs(static_cast<double>(k)), a, *app_);
    EXPECT_EQ(trace.intervals.back().kind,
              DecisionKind::kWatchdogUpscale);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_GT(a[i], alloc[i]);
    sched.AttachTelemetry(nullptr, nullptr);
}

TEST_F(SchedulerFixture, WatchdogFiresExactlyAtConfiguredSilence)
{
    // Pins the off-by-one: the blanket upscale fires on the
    // kWatchdogSilentAfter-th consecutive blind interval (the silence
    // count includes the interval being decided), not the one after.
    SinanScheduler sched(*model_, SchedulerConfig{});
    DecisionTrace trace;
    MetricsRegistry metrics;
    sched.AttachTelemetry(&trace, &metrics);
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    int t = 0;
    for (; t < features_->history + 2; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 2.0, 0.5, 100), alloc, *app_);
    }
    for (int k = 0; k + 1 < SinanScheduler::kWatchdogSilentAfter; ++k) {
        alloc = sched.Decide(BlankObs(static_cast<double>(t++)), alloc,
                             *app_);
        EXPECT_EQ(trace.intervals.back().kind,
                  DecisionKind::kDegradedModel);
    }
    EXPECT_EQ(metrics.Counter("sinan.scheduler.watchdog"), 0u);
    alloc = sched.Decide(BlankObs(static_cast<double>(t++)), alloc, *app_);
    EXPECT_EQ(trace.intervals.back().kind,
              DecisionKind::kWatchdogUpscale);
    EXPECT_EQ(metrics.Counter("sinan.scheduler.watchdog"), 1u);
    EXPECT_EQ(sched.SilentIntervals(), SinanScheduler::kWatchdogSilentAfter);
    sched.AttachTelemetry(nullptr, nullptr);
}

// ---- graded telemetry confidence -------------------------------------

TEST(TelemetryGuardTest, ResetClearsLastGoodAndSilentCounter)
{
    const FeatureConfig f = SmallFeatures(3, 2);
    TelemetryGuard guard(3);
    guard.CommitFresh(MakeObs(f, 10.0, 100, 2.0, 0.5, 90));
    guard.CommitDegraded();
    guard.CommitDegraded();
    ASSERT_TRUE(guard.HasLastGood());
    ASSERT_EQ(guard.SilentIntervals(), 2);
    // An observation older than the last good one is stale...
    const IntervalObservation older =
        MakeObs(f, 5.0, 100, 2.0, 0.5, 90);
    ASSERT_EQ(guard.Classify(older), TelemetryHealth::kStale);
    guard.Reset();
    EXPECT_FALSE(guard.HasLastGood());
    EXPECT_EQ(guard.SilentIntervals(), 0);
    // ...but after Reset() the staleness reference is gone too — the
    // same observation classifies fresh, proving last_good_ was
    // cleared along with the counter.
    EXPECT_EQ(guard.Classify(older), TelemetryHealth::kFresh);
}

TEST(TelemetryGuardTest, AssessGradesObservationsPerTier)
{
    const FeatureConfig f = SmallFeatures(4, 2);
    TelemetryGuard guard(4);

    // Fresh: full confidence on every channel.
    IntervalObservation obs = MakeObs(f, 1.0, 100, 2.0, 0.5, 90);
    TelemetryAssessment a = guard.Assess(obs, 0.6);
    EXPECT_EQ(a.health, TelemetryHealth::kFresh);
    EXPECT_TRUE(a.latency_fresh);
    EXPECT_DOUBLE_EQ(a.confidence, 1.0);

    // One poisoned tier: that tier scores 0, the rest (and the real
    // latency channel) keep full confidence — (1 + 3) / 5.
    obs.tiers[1].cpu_used = std::numeric_limits<double>::quiet_NaN();
    a = guard.Assess(obs, 0.6);
    EXPECT_EQ(a.health, TelemetryHealth::kNonFinite);
    ASSERT_EQ(a.tier_confidence.size(), 4u);
    EXPECT_DOUBLE_EQ(a.tier_confidence[0], 1.0);
    EXPECT_DOUBLE_EQ(a.tier_confidence[1], 0.0);
    EXPECT_DOUBLE_EQ(a.tier_confidence[2], 1.0);
    EXPECT_DOUBLE_EQ(a.tier_confidence[3], 1.0);
    EXPECT_TRUE(a.latency_fresh);
    EXPECT_DOUBLE_EQ(a.confidence, 0.8);

    // Poisoned latency drops the QoS channel too: 3 / 5.
    obs.latency_ms.back() = std::numeric_limits<double>::quiet_NaN();
    a = guard.Assess(obs, 0.6);
    EXPECT_FALSE(a.latency_fresh);
    EXPECT_DOUBLE_EQ(a.confidence, 0.6);

    // A non-finite global field invalidates the whole frame.
    IntervalObservation bad_rps = MakeObs(f, 2.0, 100, 2.0, 0.5, 90);
    bad_rps.rps = std::numeric_limits<double>::quiet_NaN();
    a = guard.Assess(bad_rps, 0.6);
    EXPECT_EQ(a.health, TelemetryHealth::kNonFinite);
    EXPECT_DOUBLE_EQ(a.confidence, 0.0);

    // Absent scores 0 across the board.
    IntervalObservation blank;
    blank.time_s = 3.0;
    a = guard.Assess(blank, 0.6);
    EXPECT_EQ(a.health, TelemetryHealth::kAbsent);
    EXPECT_DOUBLE_EQ(a.confidence, 0.0);

    // Staleness decays with the silent run length: decay^(k+1)
    // counting the interval under assessment.
    guard.CommitFresh(MakeObs(f, 10.0, 100, 2.0, 0.5, 90));
    const IntervalObservation stale =
        MakeObs(f, 10.0, 100, 2.0, 0.5, 90);
    EXPECT_DOUBLE_EQ(guard.Assess(stale, 0.5).confidence, 0.5);
    guard.CommitDegraded();
    EXPECT_DOUBLE_EQ(guard.Assess(stale, 0.5).confidence, 0.25);
}

TEST(TelemetryGuardTest, RepairImputesZeroConfidencePieces)
{
    const FeatureConfig f = SmallFeatures(4, 2);
    TelemetryGuard guard(4);
    const IntervalObservation good =
        MakeObs(f, 1.0, 100, 2.0, 0.5, 90);
    guard.CommitFresh(good);

    IntervalObservation obs = MakeObs(f, 2.0, 120, 2.0, 0.6, 95);
    obs.tiers[2].queue_len = std::numeric_limits<double>::quiet_NaN();
    obs.latency_ms[0] = std::numeric_limits<double>::quiet_NaN();
    const TelemetryAssessment a = guard.Assess(obs, 0.6);
    const IntervalObservation rep = guard.Repair(obs, a);

    // The poisoned tier is replaced wholesale from the last good
    // picture; untouched tiers keep this interval's values.
    EXPECT_DOUBLE_EQ(rep.tiers[2].queue_len, good.tiers[2].queue_len);
    EXPECT_DOUBLE_EQ(rep.tiers[2].cpu_used, good.tiers[2].cpu_used);
    EXPECT_DOUBLE_EQ(rep.tiers[0].cpu_used, obs.tiers[0].cpu_used);
    // A non-finite latency vector is replaced by the last good one.
    EXPECT_EQ(rep.latency_ms, good.latency_ms);
    // Repair copies; the input observation is not mutated.
    EXPECT_TRUE(std::isnan(obs.tiers[2].queue_len));

    // Stale frames pass through unchanged (a coherent old picture).
    const IntervalObservation stale =
        MakeObs(f, 0.5, 80, 2.0, 0.4, 85);
    const TelemetryAssessment sa = guard.Assess(stale, 0.6);
    ASSERT_EQ(sa.health, TelemetryHealth::kStale);
    EXPECT_EQ(guard.Repair(stale, sa).latency_ms, stale.latency_ms);
}

TEST_F(SchedulerFixture, UncertaintyFreshPathMatchesBaseline)
{
    // With fresh telemetry the uncertainty-enabled scheduler routes
    // through the exact same fresh path — decisions are identical.
    SchedulerConfig on;
    on.uncertainty.enabled = true;
    SinanScheduler sched_on(*model_, on);
    SinanScheduler sched_off(*model_, SchedulerConfig{});
    std::vector<double> a_on(app_->tiers.size(), 4.0);
    std::vector<double> a_off = a_on;
    Rng rng(101);
    for (int t = 0; t < features_->history + 8; ++t) {
        const IntervalObservation obs =
            MakeObs(*features_, t, rng.Uniform(50, 400), 4.0,
                    rng.Uniform(0.2, 0.9), rng.Uniform(50, 450));
        a_on = sched_on.Decide(obs, a_on, *app_);
        a_off = sched_off.Decide(obs, a_off, *app_);
        ASSERT_EQ(a_on, a_off) << "diverged at interval " << t;
    }
}

TEST_F(SchedulerFixture, PartialNanRoutesThroughUncertainModel)
{
    SchedulerConfig cfg;
    cfg.uncertainty.enabled = true;
    SinanScheduler sched(*model_, cfg);
    DecisionTrace trace;
    MetricsRegistry metrics;
    sched.AttachTelemetry(&trace, &metrics);
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    int t = 0;
    for (; t < features_->history + 2; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 2.0, 0.4, 90), alloc, *app_);
    }

    // One NaN tier, real latency: confidence (1 + 3) / 5 = 0.8, above
    // the floor — the graded path consults the model on the repaired
    // observation instead of freezing in the binary ladder.
    IntervalObservation obs =
        MakeObs(*features_, t, 100, 2.0, 0.4, 90);
    obs.tiers[1].cpu_used = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> before = alloc;
    alloc = sched.Decide(obs, before, *app_);

    ASSERT_FALSE(trace.intervals.empty());
    const DecisionTraceEntry& e = trace.intervals.back();
    EXPECT_EQ(e.telemetry, TelemetryHealth::kNonFinite);
    EXPECT_EQ(e.kind, DecisionKind::kUncertainModel);
    EXPECT_DOUBLE_EQ(e.confidence, 0.8);
    ASSERT_EQ(e.tier_confidence.size(), app_->tiers.size());
    EXPECT_DOUBLE_EQ(e.tier_confidence[1], 0.0);
    EXPECT_DOUBLE_EQ(e.uncertainty_margin_ms,
                     SinanScheduler::kUncertaintyMarginFrac * app_->qos_ms *
                         0.2);
    EXPECT_EQ(metrics.Counter("sinan.scheduler.uncertain"), 1u);
    // The graded path is still a degraded interval for the guard.
    EXPECT_EQ(sched.SilentIntervals(), 1);
    sched.AttachTelemetry(nullptr, nullptr);
}

TEST_F(SchedulerFixture, ZeroConfidenceFallsBackToLadder)
{
    SchedulerConfig cfg;
    cfg.uncertainty.enabled = true;
    SinanScheduler sched(*model_, cfg);
    DecisionTrace trace;
    sched.AttachTelemetry(&trace, nullptr);
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    int t = 0;
    for (; t < features_->history + 2; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 2.0, 0.4, 90), alloc, *app_);
    }

    // Every channel poisoned: confidence 0, strictly below any
    // positive floor — the interval is decided by the binary ladder.
    IntervalObservation obs =
        MakeObs(*features_, t, 100, 2.0, 0.4, 90);
    for (TierMetrics& m : obs.tiers)
        m.cpu_used = std::numeric_limits<double>::quiet_NaN();
    obs.latency_ms.back() = std::numeric_limits<double>::quiet_NaN();
    alloc = sched.Decide(obs, alloc, *app_);

    const DecisionTraceEntry& e = trace.intervals.back();
    EXPECT_EQ(e.telemetry, TelemetryHealth::kNonFinite);
    EXPECT_EQ(e.kind, DecisionKind::kDegradedModel);
    EXPECT_DOUBLE_EQ(e.confidence, 0.0);
    sched.AttachTelemetry(nullptr, nullptr);
}

TEST_F(SchedulerFixture, ConfidenceGaugeFollowsEveryInterval)
{
    // With the graded policy on, the gauge reports the confidence the
    // latest interval was decided at — not a graded interval's value
    // left behind once telemetry is fresh again or the ladder runs.
    SchedulerConfig cfg;
    cfg.uncertainty.enabled = true;
    SinanScheduler sched(*model_, cfg);
    DecisionTrace trace;
    MetricsRegistry metrics;
    sched.AttachTelemetry(&trace, &metrics);
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    int t = 0;
    for (; t < features_->history + 2; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 2.0, 0.4, 90), alloc, *app_);
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    auto nan_tier = [&](int at) {
        IntervalObservation obs = MakeObs(*features_, at, 100, 2.0, 0.4, 90);
        obs.tiers[1].cpu_used = nan;
        return obs;
    };
    const char* gauge = "sinan.scheduler.confidence";

    alloc = sched.Decide(nan_tier(t++), alloc, *app_);
    ASSERT_EQ(trace.intervals.back().kind, DecisionKind::kUncertainModel);
    EXPECT_DOUBLE_EQ(metrics.Gauge(gauge), 0.8);
    alloc = sched.Decide(MakeObs(*features_, t++, 100, 2.0, 0.4, 90),
                         alloc, *app_);
    ASSERT_EQ(trace.intervals.back().telemetry, TelemetryHealth::kFresh);
    EXPECT_DOUBLE_EQ(metrics.Gauge(gauge), 1.0);

    alloc = sched.Decide(nan_tier(t++), alloc, *app_);
    ASSERT_EQ(trace.intervals.back().kind, DecisionKind::kUncertainModel);
    IntervalObservation poisoned = MakeObs(*features_, t++, 100, 2.0, 0.4, 90);
    for (TierMetrics& m : poisoned.tiers)
        m.cpu_used = nan;
    poisoned.latency_ms.back() = nan;
    alloc = sched.Decide(poisoned, alloc, *app_);
    ASSERT_EQ(trace.intervals.back().kind, DecisionKind::kDegradedModel);
    EXPECT_DOUBLE_EQ(metrics.Gauge(gauge),
                     trace.intervals.back().confidence);
    sched.AttachTelemetry(nullptr, nullptr);

    // With the policy off the gauge is never emitted.
    SinanScheduler off(*model_, SchedulerConfig{});
    MetricsRegistry off_metrics;
    off.AttachTelemetry(nullptr, &off_metrics);
    alloc.assign(app_->tiers.size(), 2.0);
    for (int k = 0; k < features_->history + 2; ++k) {
        alloc = off.Decide(MakeObs(*features_, k, 100, 2.0, 0.4, 90),
                           alloc, *app_);
    }
    alloc = off.Decide(nan_tier(features_->history + 2), alloc, *app_);
    EXPECT_EQ(off_metrics.Gauges().count(gauge), 0u);
    off.AttachTelemetry(nullptr, nullptr);
}

TEST_F(SchedulerFixture, StaleDecayStaysGradedUntilWatchdog)
{
    // Redelivered telemetry decays geometrically: at kStaleDecay 0.6
    // both the first (0.6) and the second (0.36) stale interval stay
    // above kConfidenceFloor 0.35 and ride the graded path; the third
    // silent interval is the watchdog's (0.216), so a stale-only run
    // never reaches the ladder by decay. The below-floor ladder rule
    // is ZeroConfidenceFallsBackToLadder's.
    static_assert(SinanScheduler::kStaleDecay == 0.6);
    static_assert(SinanScheduler::kConfidenceFloor == 0.35);
    static_assert(SinanScheduler::kWatchdogSilentAfter == 3);
    SchedulerConfig cfg;
    cfg.uncertainty.enabled = true;
    SinanScheduler sched(*model_, cfg);
    DecisionTrace trace;
    sched.AttachTelemetry(&trace, nullptr);
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    int t = 0;
    for (; t < features_->history + 2; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 2.0, 0.4, 90), alloc, *app_);
    }

    const IntervalObservation stale =
        MakeObs(*features_, 0, 100, 2.0, 0.4, 90); // time goes back
    alloc = sched.Decide(stale, alloc, *app_);
    EXPECT_EQ(trace.intervals.back().kind,
              DecisionKind::kUncertainModel);
    EXPECT_NEAR(trace.intervals.back().confidence, 0.6, 1e-12);
    alloc = sched.Decide(stale, alloc, *app_);
    EXPECT_EQ(trace.intervals.back().kind,
              DecisionKind::kUncertainModel);
    EXPECT_NEAR(trace.intervals.back().confidence, 0.36, 1e-12);
    alloc = sched.Decide(stale, alloc, *app_);
    EXPECT_EQ(trace.intervals.back().kind,
              DecisionKind::kWatchdogUpscale);
    EXPECT_NEAR(trace.intervals.back().confidence, 0.216, 1e-12);
    sched.AttachTelemetry(nullptr, nullptr);
}

// ---- trust lifecycle under alternating phases ------------------------

TEST_F(SchedulerFixture, TrustLifecycleSurvivesDegradedPhases)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    std::vector<double> alloc(app_->tiers.size(), 2.0);
    int t = 0;
    for (; t < features_->history; ++t) {
        alloc = sched.Decide(
            MakeObs(*features_, t, 100, 2.0, 0.5, 100), alloc, *app_);
    }

    // Phase 1: persistent violations lose trust via escalation.
    for (int v = 0; v < SinanScheduler::kMaxFallbackAfter; ++v) {
        alloc = sched.Decide(
            MakeObs(*features_, t++, 100, 2.0, 0.95,
                    app_->qos_ms + 200.0),
            alloc, *app_);
    }
    ASSERT_TRUE(sched.TrustReduced());

    // Phase 2: telemetry blackout. The trust machinery freezes — the
    // silence is neither healthy evidence nor a new misprediction —
    // and the watchdog runs the allocation.
    const int mispred_before = sched.Mispredictions();
    static_assert(SinanScheduler::kWatchdogSilentAfter < 4);
    for (int k = 0; k < 4; ++k) {
        alloc = sched.Decide(BlankObs(static_cast<double>(t++)), alloc,
                             *app_);
        EXPECT_TRUE(sched.TrustReduced());
        EXPECT_EQ(sched.Mispredictions(), mispred_before);
    }
    EXPECT_EQ(sched.SilentIntervals(), 4);

    // Phase 3: telemetry returns healthy. The healthy streak restarts
    // from zero (the outage reset it), so restoration takes the full
    // kTrustRestoreHealthy stretch — not less.
    for (int k = 0; k + 1 < SinanScheduler::kTrustRestoreHealthy; ++k) {
        alloc = sched.Decide(
            MakeObs(*features_, t++, 100, 2.0, 0.4, 90), alloc, *app_);
        EXPECT_TRUE(sched.TrustReduced()) << "healthy interval " << k;
    }
    alloc = sched.Decide(MakeObs(*features_, t++, 100, 2.0, 0.4, 90),
                         alloc, *app_);
    EXPECT_FALSE(sched.TrustReduced());
    EXPECT_EQ(sched.SilentIntervals(), 0);

    // Phase 4: a second violation phase reduces trust again — the
    // lifecycle is repeatable, not one-shot.
    for (int v = 0; v < SinanScheduler::kMaxFallbackAfter; ++v) {
        alloc = sched.Decide(
            MakeObs(*features_, t++, 100, 2.0, 0.95,
                    app_->qos_ms + 200.0),
            alloc, *app_);
    }
    EXPECT_TRUE(sched.TrustReduced());
}

// ---- exception safety ------------------------------------------------

/** A trained model whose Evaluate can be armed to throw once — the
 *  only throwing operation on the scheduler's model path. */
class ThrowingModel : public HybridModel {
  public:
    explicit ThrowingModel(const HybridModel& trained)
        : HybridModel(trained)
    {
    }

    std::vector<Prediction>
    Evaluate(const MetricWindow& window,
             const std::vector<std::vector<double>>& allocations) override
    {
        if (armed_) {
            armed_ = false;
            throw ContractViolation("injected model fault");
        }
        return HybridModel::Evaluate(window, allocations);
    }

    void Arm() { armed_ = true; }

  private:
    bool armed_ = false;
};

/** One decision mode the throwing model is armed on. */
struct ThrowCase {
    const char* name;
    bool uncertainty;
    /** The interval-t frame that reaches Evaluate in this mode. */
    IntervalObservation (*frame)(const FeatureConfig& f, int t);
};

class ContractViolationMidDecide
    : public SchedulerFixture,
      public ::testing::WithParamInterface<ThrowCase> {};

TEST_P(ContractViolationMidDecide, LeavesStateUnchanged)
{
    const ThrowCase& tc = GetParam();
    SchedulerConfig cfg;
    cfg.uncertainty.enabled = tc.uncertainty;
    ThrowingModel faulty(*model_);
    SinanScheduler sched(faulty, cfg);
    SinanScheduler ref(*model_, cfg);
    DecisionTrace trace, ref_trace;
    MetricsRegistry metrics, ref_metrics;
    sched.AttachTelemetry(&trace, &metrics);
    ref.AttachTelemetry(&ref_trace, &ref_metrics);

    std::vector<double> alloc(app_->tiers.size(), 4.0);
    std::vector<double> ref_alloc = alloc;
    int t = 0;
    for (; t < features_->history + 2; ++t) {
        const IntervalObservation obs =
            MakeObs(*features_, t, 100, 4.0, 0.4, 90);
        alloc = sched.Decide(obs, alloc, *app_);
        ref_alloc = ref.Decide(obs, ref_alloc, *app_);
        ASSERT_EQ(alloc, ref_alloc);
    }

    // Arm the fault: Decide must throw and leave every observable
    // piece of scheduler state untouched (strong guarantee).
    const size_t traced = trace.intervals.size();
    const std::string metrics_csv = metrics.ToCsv();
    const int mispred = sched.Mispredictions();
    const bool trust_reduced = sched.TrustReduced();
    const int silent = sched.SilentIntervals();
    const IntervalObservation obs = tc.frame(*features_, t);
    faulty.Arm();
    EXPECT_THROW(sched.Decide(obs, alloc, *app_), ContractViolation);
    EXPECT_EQ(trace.intervals.size(), traced);
    EXPECT_EQ(metrics.ToCsv(), metrics_csv);
    EXPECT_EQ(sched.Mispredictions(), mispred);
    EXPECT_EQ(sched.TrustReduced(), trust_reduced);
    EXPECT_EQ(sched.SilentIntervals(), silent);

    // Retrying the same interval (fault cleared) must produce exactly
    // what the never-faulted reference produces — i.e. the throw did
    // not advance the window, the victim list, the guard, or the trust
    // state.
    alloc = sched.Decide(obs, alloc, *app_);
    ref_alloc = ref.Decide(obs, ref_alloc, *app_);
    EXPECT_EQ(alloc, ref_alloc);
    for (int k = 0; k < 4; ++k) {
        const IntervalObservation next =
            MakeObs(*features_, ++t, 100, 4.0, 0.4, 90);
        alloc = sched.Decide(next, alloc, *app_);
        ref_alloc = ref.Decide(next, ref_alloc, *app_);
        EXPECT_EQ(alloc, ref_alloc) << "diverged at step " << k;
    }
    EXPECT_EQ(DecisionTraceToCsv(trace), DecisionTraceToCsv(ref_trace));
    EXPECT_EQ(metrics.ToCsv(), ref_metrics.ToCsv());
    sched.AttachTelemetry(nullptr, nullptr);
    ref.AttachTelemetry(nullptr, nullptr);
}

IntervalObservation
FreshFrame(const FeatureConfig& f, int t)
{
    return MakeObs(f, t, 100, 4.0, 0.4, 90);
}

IntervalObservation
StaleFrame(const FeatureConfig& f, int /*t*/)
{
    return MakeObs(f, 0, 100, 4.0, 0.4, 90); // time goes back
}

IntervalObservation
NanTierFrame(const FeatureConfig& f, int t)
{
    IntervalObservation obs = MakeObs(f, t, 100, 4.0, 0.4, 90);
    obs.tiers[1].cpu_used = std::numeric_limits<double>::quiet_NaN();
    return obs;
}

// Fresh runs the model on the live frame; a stale frame with the
// graded policy off takes the blind (ladder) model path; one NaN tier
// with it on takes the graded model path.
INSTANTIATE_TEST_SUITE_P(
    EveryMode, ContractViolationMidDecide,
    ::testing::Values(ThrowCase{"Fresh", false, FreshFrame},
                      ThrowCase{"BlindStale", false, StaleFrame},
                      ThrowCase{"GradedNanTier", true, NanTierFrame}),
    [](const ::testing::TestParamInfo<ThrowCase>& p) {
        return std::string(p.param.name);
    });

} // namespace
} // namespace sinan
