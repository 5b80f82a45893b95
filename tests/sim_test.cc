/**
 * @file
 * Tests for the discrete-time simulation loop: config validation, the
 * per-tick generator-then-cluster order with an interval-end harvest,
 * and whole-interval counting.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "app/apps.h"
#include "sim/simulator.h"

namespace sinan {
namespace {

/** Bit pattern of @p x, so -0.0 / NaN payload differences count. */
uint64_t
Bits(double x)
{
    return std::bit_cast<uint64_t>(x);
}

void
ExpectSameObservation(const IntervalObservation& a,
                      const IntervalObservation& b)
{
    EXPECT_EQ(Bits(a.time_s), Bits(b.time_s));
    EXPECT_EQ(Bits(a.rps), Bits(b.rps));
    EXPECT_EQ(Bits(a.completed_rps), Bits(b.completed_rps));
    ASSERT_EQ(a.latency_ms.size(), b.latency_ms.size());
    for (size_t p = 0; p < a.latency_ms.size(); ++p)
        EXPECT_EQ(Bits(a.latency_ms[p]), Bits(b.latency_ms[p])) << p;
    ASSERT_EQ(a.tiers.size(), b.tiers.size());
    for (size_t t = 0; t < a.tiers.size(); ++t) {
        const TierMetrics& x = a.tiers[t];
        const TierMetrics& y = b.tiers[t];
        EXPECT_EQ(Bits(x.cpu_limit), Bits(y.cpu_limit)) << t;
        EXPECT_EQ(Bits(x.cpu_used), Bits(y.cpu_used)) << t;
        EXPECT_EQ(Bits(x.rss_mb), Bits(y.rss_mb)) << t;
        EXPECT_EQ(Bits(x.cache_mb), Bits(y.cache_mb)) << t;
        EXPECT_EQ(Bits(x.rx_pps), Bits(y.rx_pps)) << t;
        EXPECT_EQ(Bits(x.tx_pps), Bits(y.tx_pps)) << t;
        EXPECT_EQ(Bits(x.queue_len), Bits(y.queue_len)) << t;
        EXPECT_EQ(Bits(x.active), Bits(y.active)) << t;
        EXPECT_EQ(Bits(x.queue_wait_s), Bits(y.queue_wait_s)) << t;
    }
}

TEST(Simulator, RejectsBadConfig)
{
    const Application app = BuildHotelReservation();
    Cluster cluster(app, ClusterConfig{}, 1);
    ConstantLoad load(100.0);
    WorkloadGenerator gen(cluster, load, 2);
    SimConfig bad;
    bad.tick_s = 0.0;
    EXPECT_THROW(Simulator(bad, gen, cluster), std::invalid_argument);
    bad.tick_s = 0.01;
    bad.interval_s = 0.0;
    EXPECT_THROW(Simulator(bad, gen, cluster), std::invalid_argument);
    bad.tick_s = 1.0;
    bad.interval_s = 0.25; // interval shorter than a tick
    EXPECT_THROW(Simulator(bad, gen, cluster), std::invalid_argument);
}

TEST(Simulator, RunIntervalMatchesHandWrittenTickLoop)
{
    // The loop's contract, spelled out: every tick i runs the
    // generator, then the cluster, at now = i * dt; each interval is
    // harvested at the end of its last tick.
    const Application app = BuildHotelReservation();
    const SimConfig cfg;
    const int kIntervals = 3;
    const int ticks_per_interval =
        static_cast<int>(cfg.interval_s / cfg.tick_s + 0.5);
    ConstantLoad load(1500.0);

    Cluster looped(app, ClusterConfig{}, 5);
    WorkloadGenerator looped_gen(looped, load, 9);
    Simulator sim(cfg, looped_gen, looped);

    Cluster by_hand(app, ClusterConfig{}, 5);
    WorkloadGenerator hand_gen(by_hand, load, 9);
    const double dt = cfg.tick_s;
    int64_t tick = 0;
    for (int k = 0; k < kIntervals; ++k) {
        SCOPED_TRACE(k);
        const IntervalObservation got = sim.RunInterval();
        for (int j = 0; j < ticks_per_interval; ++j, ++tick) {
            const double now = static_cast<double>(tick) * dt;
            hand_gen.Tick(now, dt);
            by_hand.Tick(now, dt);
        }
        const IntervalObservation want = by_hand.Harvest(
            static_cast<double>(tick) * dt, cfg.interval_s);
        ASSERT_GT(want.rps, 0.0);
        ExpectSameObservation(got, want);
        EXPECT_EQ(Bits(sim.Now()), Bits(static_cast<double>(tick) * dt));
    }
}

TEST(Simulator, IntervalsInDropsTrailingPartialInterval)
{
    const Application app = BuildHotelReservation();
    Cluster cluster(app, ClusterConfig{}, 1);
    ConstantLoad load(100.0);
    WorkloadGenerator gen(cluster, load, 2);
    const Simulator sim(SimConfig(), gen, cluster);
    EXPECT_EQ(sim.IntervalsIn(2.5), 2);
    EXPECT_EQ(sim.IntervalsIn(3.0), 3);
    EXPECT_EQ(sim.IntervalsIn(0.5), 0);
}

} // namespace
} // namespace sinan
