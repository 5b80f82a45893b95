/**
 * @file
 * Tests for the autoscaling and PowerChief baselines.
 */
#include <gtest/gtest.h>

#include "app/apps.h"
#include "baselines/autoscale.h"
#include "baselines/powerchief.h"
#include "test_util.h"

namespace sinan {
namespace {

using testutil::MakeObs;
using testutil::SmallFeatures;

/** Toy app with wide CPU bounds so rules apply unclamped. */
Application
ToyApp(int n_tiers)
{
    Application app;
    app.name = "toy";
    app.qos_ms = 500.0;
    for (int i = 0; i < n_tiers; ++i) {
        TierSpec t;
        t.name = "t" + std::to_string(i);
        t.min_cpu = 0.1;
        t.max_cpu = 100.0;
        t.init_cpu = 2.0;
        app.tiers.push_back(t);
    }
    RequestType rt;
    rt.root.tier = 0;
    app.request_types.push_back(rt);
    return app;
}

TEST(AutoScaleOpt, AppliesPaperBands)
{
    const Application app = ToyApp(1);
    AutoScaler opt = MakeAutoScaleOpt();
    const FeatureConfig f = SmallFeatures(1, 3);
    const std::vector<double> alloc = {10.0};

    auto decide = [&](double util) {
        return opt.Decide(MakeObs(f, 0, 100, 10.0, util, 100), alloc,
                          app)[0];
    };
    EXPECT_NEAR(decide(0.75), 13.0, 1e-9);  // [70,100] -> +30%
    EXPECT_NEAR(decide(0.65), 11.0, 1e-9);  // [60,70)  -> +10%
    EXPECT_NEAR(decide(0.50), 10.0, 1e-9);  // stable band
    EXPECT_NEAR(decide(0.35), 9.0, 1e-9);   // [30,40)  -> -10%
    EXPECT_NEAR(decide(0.10), 7.0, 1e-9);   // [0,30)   -> -30%
}

TEST(AutoScaleCons, AppliesConservativeBands)
{
    const Application app = ToyApp(1);
    AutoScaler cons = MakeAutoScaleCons();
    const FeatureConfig f = SmallFeatures(1, 3);
    const std::vector<double> alloc = {10.0};
    auto decide = [&](double util) {
        return cons.Decide(MakeObs(f, 0, 100, 10.0, util, 100), alloc,
                           app)[0];
    };
    EXPECT_NEAR(decide(0.60), 13.0, 1e-9);  // [50,100] -> +30%
    EXPECT_NEAR(decide(0.40), 11.0, 1e-9);  // [30,50)  -> +10%
    EXPECT_NEAR(decide(0.20), 10.0, 1e-9);  // stable band
    EXPECT_NEAR(decide(0.05), 9.0, 1e-9);   // [0,10)   -> -10%
}

TEST(AutoScaler, ConsIsMoreConservativeThanOpt)
{
    // At 55% utilization Cons grows 30% while Opt holds.
    const Application app = ToyApp(1);
    AutoScaler opt = MakeAutoScaleOpt();
    AutoScaler cons = MakeAutoScaleCons();
    const FeatureConfig f = SmallFeatures(1, 3);
    const IntervalObservation obs = MakeObs(f, 0, 100, 10.0, 0.55, 100);
    const std::vector<double> alloc = {10.0};
    EXPECT_GT(cons.Decide(obs, alloc, app)[0],
              opt.Decide(obs, alloc, app)[0]);
}

TEST(AutoScaler, ClampsToSpec)
{
    Application app = ToyApp(1);
    app.tiers[0].max_cpu = 10.5;
    app.tiers[0].min_cpu = 9.5;
    AutoScaler opt = MakeAutoScaleOpt();
    const FeatureConfig f = SmallFeatures(1, 3);
    const std::vector<double> alloc = {10.0};
    EXPECT_DOUBLE_EQ(
        opt.Decide(MakeObs(f, 0, 100, 10, 0.9, 100), alloc, app)[0],
        10.5);
    EXPECT_DOUBLE_EQ(
        opt.Decide(MakeObs(f, 0, 100, 10, 0.05, 100), alloc, app)[0],
        9.5);
}

TEST(PowerChief, BoostsLongestQueueTier)
{
    const Application app = ToyApp(3);
    PowerChief pc;
    const FeatureConfig f = SmallFeatures(3, 3);
    IntervalObservation obs = MakeObs(f, 0, 100, 4.0, 0.5, 100);
    for (TierMetrics& m : obs.tiers) {
        m.queue_wait_s = 0.0;
        m.queue_len = 0.0;
    }
    obs.tiers[1].queue_wait_s = 0.05; // the apparent bottleneck
    obs.tiers[1].queue_len = 20.0;
    const std::vector<double> alloc = {4.0, 4.0, 4.0};
    const std::vector<double> next = pc.Decide(obs, alloc, app);
    EXPECT_GT(next[1], alloc[1]);
}

TEST(PowerChief, ReclaimsFromIdleTiers)
{
    const Application app = ToyApp(3);
    PowerChief pc;
    const FeatureConfig f = SmallFeatures(3, 3);
    IntervalObservation obs = MakeObs(f, 0, 100, 4.0, 0.1, 100);
    for (TierMetrics& m : obs.tiers) {
        m.queue_wait_s = 0.0;
        m.queue_len = 0.0;
    }
    const std::vector<double> alloc = {4.0, 4.0, 4.0};
    const std::vector<double> next = pc.Decide(obs, alloc, app);
    for (size_t i = 0; i < next.size(); ++i)
        EXPECT_LT(next[i], alloc[i]);
}

TEST(PowerChief, LeavesBusyUnqueuedTiersAlone)
{
    const Application app = ToyApp(2);
    PowerChief pc;
    const FeatureConfig f = SmallFeatures(2, 3);
    IntervalObservation obs = MakeObs(f, 0, 100, 4.0, 0.7, 100);
    for (TierMetrics& m : obs.tiers) {
        m.queue_wait_s = 0.0;
        m.queue_len = 0.0;
    }
    const std::vector<double> alloc = {4.0, 4.0};
    const std::vector<double> next = pc.Decide(obs, alloc, app);
    EXPECT_DOUBLE_EQ(next[0], 4.0);
    EXPECT_DOUBLE_EQ(next[1], 4.0);
}

TEST(PowerChief, MisattributesUnderBackpressure)
{
    // The paper's core critique: when a downstream tier is the culprit
    // but the upstream tiers show the longer ingress queues (slots held
    // waiting), PowerChief boosts the upstream symptoms — as many as
    // it boosts per interval — and never reaches the culprit.
    constexpr int kCulprit = PowerChief::kBoostTopK;
    const Application app = ToyApp(kCulprit + 1);
    PowerChief pc;
    const FeatureConfig f = SmallFeatures(kCulprit + 1, 3);
    IntervalObservation obs = MakeObs(f, 0, 100, 4.0, 0.5, 600);
    // The upstream tiers queue visibly; the downstream culprit is
    // saturated but its queue is short because upstream back-pressure
    // throttles arrivals.
    for (int i = 0; i < kCulprit; ++i) {
        obs.tiers[i].queue_wait_s = 0.10;
        obs.tiers[i].queue_len = 30.0;
        obs.tiers[i].cpu_used = 1.0;
    }
    obs.tiers[kCulprit].queue_wait_s = 0.01;
    obs.tiers[kCulprit].queue_len = 2.0;
    obs.tiers[kCulprit].cpu_used = 4.0; // fully used
    const std::vector<double> alloc(kCulprit + 1, 4.0);
    const std::vector<double> next = pc.Decide(obs, alloc, app);
    for (int i = 0; i < kCulprit; ++i)
        EXPECT_GT(next[i], alloc[i]) << "symptom tier " << i;
    EXPECT_DOUBLE_EQ(next[kCulprit], alloc[kCulprit]); // culprit ignored
}

} // namespace
} // namespace sinan
