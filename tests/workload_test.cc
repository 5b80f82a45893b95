/**
 * @file
 * Tests for load shapes and the Poisson open-loop workload generator.
 */
#include <gtest/gtest.h>

#include <limits>

#include "app/apps.h"
#include "workload/workload.h"

namespace sinan {
namespace {

TEST(ConstantLoad, IsConstant)
{
    ConstantLoad load(120.0);
    EXPECT_DOUBLE_EQ(load.UsersAt(0.0), 120.0);
    EXPECT_DOUBLE_EQ(load.UsersAt(1e6), 120.0);
}

TEST(DiurnalLoad, OscillatesBetweenBounds)
{
    DiurnalLoad load(100.0, 300.0, 200.0);
    EXPECT_NEAR(load.UsersAt(0.0), 100.0, 1e-9);    // trough
    EXPECT_NEAR(load.UsersAt(100.0), 300.0, 1e-9);  // peak at half period
    EXPECT_NEAR(load.UsersAt(200.0), 100.0, 1e-9);  // back to trough
    for (double t = 0; t < 400; t += 7) {
        EXPECT_GE(load.UsersAt(t), 100.0 - 1e-9);
        EXPECT_LE(load.UsersAt(t), 300.0 + 1e-9);
    }
}

TEST(DiurnalLoad, RejectsBadArgs)
{
    EXPECT_THROW(DiurnalLoad(1, 2, 0), std::invalid_argument);
    EXPECT_THROW(DiurnalLoad(5, 2, 10), std::invalid_argument);
}

TEST(StepLoad, StepsAtScheduledTimes)
{
    StepLoad load({{0.0, 10.0}, {5.0, 50.0}, {9.0, 20.0}});
    EXPECT_DOUBLE_EQ(load.UsersAt(0.0), 10.0);
    EXPECT_DOUBLE_EQ(load.UsersAt(4.9), 10.0);
    EXPECT_DOUBLE_EQ(load.UsersAt(5.0), 50.0);
    EXPECT_DOUBLE_EQ(load.UsersAt(8.0), 50.0);
    EXPECT_DOUBLE_EQ(load.UsersAt(100.0), 20.0);
}

TEST(StepLoad, RejectsBadSchedules)
{
    EXPECT_THROW(StepLoad({}), std::invalid_argument);
    EXPECT_THROW(StepLoad({{5.0, 1.0}, {2.0, 1.0}}),
                 std::invalid_argument);
}

TEST(WorkloadGenerator, InjectsAtPoissonRate)
{
    const Application app = BuildHotelReservation();
    Cluster cluster(app, ClusterConfig{}, 1);
    ConstantLoad load(200.0);
    WorkloadGenerator gen(cluster, load, 5);
    // 30 simulated seconds at 200 rps -> ~6000 requests.
    for (int i = 0; i < 3000; ++i)
        gen.Tick(i * 0.01, 0.01);
    EXPECT_NEAR(static_cast<double>(gen.Injected()), 6000.0, 300.0);
    EXPECT_EQ(cluster.InFlight(),
              static_cast<int64_t>(gen.Injected()));
}

TEST(WorkloadGenerator, RespectsRequestMix)
{
    Application app = BuildSocialNetwork();
    SetRequestMix(app, {50.0, 50.0, 0.0});
    ClusterConfig cfg;
    cfg.metric_noise = 0.0;
    Cluster cluster(app, cfg, 1);
    ConstantLoad load(500.0);
    WorkloadGenerator gen(cluster, load, 5);
    for (int i = 0; i < 500; ++i) {
        gen.Tick(i * 0.01, 0.01);
        cluster.Tick(i * 0.01, 0.01);
    }
    const IntervalObservation obs = cluster.Harvest(5.0, 5.0);
    // ReadUserTimeline's entry tier userTimeline must see no traffic.
    const int ut = app.TierIndex("userTimeline");
    EXPECT_DOUBLE_EQ(obs.tiers[ut].rx_pps, 0.0);
    // ComposePost path must see traffic.
    const int cp = app.TierIndex("composePost");
    EXPECT_GT(obs.tiers[cp].rx_pps, 0.0);
}

TEST(WorkloadGenerator, MixProportionsApproximatelyRespected)
{
    Application app = BuildSocialNetwork();
    SetRequestMix(app, {25.0, 75.0, 0.0});
    ClusterConfig cfg;
    cfg.metric_noise = 0.0;
    Cluster cluster(app, cfg, 1);
    ConstantLoad load(1000.0);
    WorkloadGenerator gen(cluster, load, 5);
    for (int i = 0; i < 1000; ++i) {
        gen.Tick(i * 0.01, 0.01);
        cluster.Tick(i * 0.01, 0.01);
    }
    const IntervalObservation obs = cluster.Harvest(10.0, 10.0);
    const int cp = app.TierIndex("composePost");
    const int ht = app.TierIndex("homeTimeline");
    const double cp_rate =
        obs.tiers[cp].rx_pps / app.tiers[cp].pkts_per_rpc;
    const double ht_rate =
        obs.tiers[ht].rx_pps / app.tiers[ht].pkts_per_rpc;
    // homeTimeline sees ~3x the arrivals of composePost (75:25),
    // modulo extra rx from child completions (compose has many).
    EXPECT_GT(ht_rate / cp_rate, 1.1);
}

TEST(WorkloadGenerator, RejectsBadRate)
{
    const Application app = BuildHotelReservation();
    Cluster cluster(app, ClusterConfig{}, 1);
    ConstantLoad load(1.0);
    EXPECT_THROW(WorkloadGenerator(cluster, load, 1, 0.0),
                 std::invalid_argument);
}

TEST(WorkloadGenerator, RateMultiplierScalesArrivals)
{
    const Application app = BuildHotelReservation();
    Cluster a(app, ClusterConfig{}, 1);
    Cluster b(app, ClusterConfig{}, 1);
    ConstantLoad load(200.0);
    WorkloadGenerator plain(a, load, 5);
    WorkloadGenerator doubled(b, load, 5);
    doubled.SetRateMultiplier(2.0);
    for (int i = 0; i < 3000; ++i) {
        plain.Tick(i * 0.01, 0.01);
        doubled.Tick(i * 0.01, 0.01);
    }
    const double ratio = static_cast<double>(doubled.Injected()) /
                         static_cast<double>(plain.Injected());
    EXPECT_NEAR(ratio, 2.0, 0.2);
}

TEST(WorkloadGenerator, RejectsBadRateMultiplier)
{
    const Application app = BuildHotelReservation();
    Cluster cluster(app, ClusterConfig{}, 1);
    ConstantLoad load(1.0);
    WorkloadGenerator gen(cluster, load, 1);
    EXPECT_THROW(gen.SetRateMultiplier(0.0), std::invalid_argument);
    EXPECT_THROW(gen.SetRateMultiplier(-1.0), std::invalid_argument);
    EXPECT_THROW(gen.SetRateMultiplier(
                     std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_THROW(gen.SetRateMultiplier(
                     std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    gen.SetRateMultiplier(1.5); // valid values are accepted
}

TEST(WorkloadGenerator, DeterministicAcrossRunsWithSameSeed)
{
    const Application app = BuildHotelReservation();
    auto run = [&] {
        Cluster cluster(app, ClusterConfig{}, 1);
        ConstantLoad load(100.0);
        WorkloadGenerator gen(cluster, load, 99);
        for (int i = 0; i < 500; ++i)
            gen.Tick(i * 0.01, 0.01);
        return gen.Injected();
    };
    EXPECT_EQ(run(), run());
}


TEST(WorkloadBursts, DisabledByDefault)
{
    const Application app = BuildHotelReservation();
    Cluster a(app, ClusterConfig{}, 1);
    Cluster b(app, ClusterConfig{}, 1);
    ConstantLoad load(100.0);
    WorkloadGenerator plain(a, load, 5);
    WorkloadGenerator with_default(b, load, 5, 1.0, BurstOptions{});
    for (int i = 0; i < 2000; ++i) {
        plain.Tick(i * 0.01, 0.01);
        with_default.Tick(i * 0.01, 0.01);
    }
    EXPECT_EQ(plain.Injected(), with_default.Injected());
}

TEST(WorkloadBursts, RaiseMeanArrivalRate)
{
    const Application app = BuildHotelReservation();
    Cluster a(app, ClusterConfig{}, 1);
    Cluster b(app, ClusterConfig{}, 1);
    ConstantLoad load(200.0);
    BurstOptions bursts;
    bursts.enabled = true;
    bursts.mean_gap_s = 10.0;
    bursts.mean_duration_s = 5.0;
    bursts.mult_min = 2.0;
    bursts.mult_max = 2.0;
    WorkloadGenerator plain(a, load, 5);
    WorkloadGenerator bursty(b, load, 5, 1.0, bursts);
    // 200 simulated seconds.
    for (int i = 0; i < 20000; ++i) {
        plain.Tick(i * 0.01, 0.01);
        bursty.Tick(i * 0.01, 0.01);
    }
    // ~1/3 of the time in a x2 burst -> ~1.3x mean rate.
    EXPECT_GT(static_cast<double>(bursty.Injected()),
              static_cast<double>(plain.Injected()) * 1.15);
    EXPECT_LT(static_cast<double>(bursty.Injected()),
              static_cast<double>(plain.Injected()) * 1.6);
}

TEST(WorkloadBursts, ComposeBiasSkewsMixDuringBursts)
{
    Application app = BuildSocialNetwork();
    ASSERT_EQ(app.burst_bias_type, 0);
    app.burst_bias_extra = 1.0; // every burst arrival becomes compose
    ClusterConfig ccfg;
    ccfg.metric_noise = 0.0;
    Cluster cluster(app, ccfg, 1);
    ConstantLoad load(500.0);
    BurstOptions bursts;
    bursts.enabled = true;
    bursts.mean_gap_s = 0.001; // effectively always bursting
    bursts.mean_duration_s = 1e9;
    bursts.mult_min = 1.0;
    bursts.mult_max = 1.0;
    WorkloadGenerator gen(cluster, load, 5, 1.0, bursts);
    for (int i = 0; i < 500; ++i) {
        gen.Tick(i * 0.01, 0.01);
        cluster.Tick(i * 0.01, 0.01);
    }
    const IntervalObservation obs = cluster.Harvest(5.0, 5.0);
    // With bias 1.0 every burst-time request is ComposePost; only the
    // handful of pre-burst ticks can reach the read path.
    const double home =
        obs.tiers[app.TierIndex("homeTimeline")].rx_pps;
    const double compose =
        obs.tiers[app.TierIndex("composePost")].rx_pps;
    EXPECT_GT(compose, 0.0);
    EXPECT_LT(home, 0.05 * compose);
}

} // namespace
} // namespace sinan
