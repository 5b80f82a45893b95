/**
 * @file
 * Tests for the cluster queueing substrate: processor sharing, call-tree
 * execution, concurrency-slot back-pressure, cache short-circuits, async
 * fan-out, metric accounting, the log-sync stall model, and the tick's
 * bookkeeping: call-node validation and size limits, the admission
 * FIFO linked through the stage arena, stage-handle recycling,
 * finished-stage marks, idle-tier occupancy sampling, the precomputed
 * demand draw, and conservation under every chaos scenario.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "app/apps.h"
#include "baselines/autoscale.h"
#include "cluster/cluster.h"
#include "harness/harness.h"
#include "sim/fault_injector.h"

namespace sinan {
namespace {

/** Builds a linear chain app: t0 -> t1 -> ... with given demands (ms). */
Application
ChainApp(const std::vector<double>& demands_ms, double cv = 0.0)
{
    Application app;
    app.name = "chain";
    app.qos_ms = 1000.0;
    for (size_t i = 0; i < demands_ms.size(); ++i) {
        TierSpec t;
        t.name = "t" + std::to_string(i);
        t.concurrency_per_replica = 64;
        t.init_cpu = 4.0;
        t.max_cpu = 16.0;
        app.tiers.push_back(t);
    }
    CallNode* cursor = nullptr;
    RequestType rt;
    rt.name = "chain";
    for (size_t i = 0; i < demands_ms.size(); ++i) {
        CallNode node;
        node.tier = static_cast<int>(i);
        node.demand_s = demands_ms[i] / 1000.0;
        node.demand_cv = cv;
        if (!cursor) {
            rt.root = node;
            cursor = &rt.root;
        } else {
            cursor->children.push_back(node);
            cursor = &cursor->children.back();
        }
    }
    app.request_types.push_back(rt);
    return app;
}

/** Runs the cluster for @p seconds with no new arrivals. */
void
Drain(Cluster& cluster, double seconds, double dt = 0.01,
      double start = 0.0)
{
    const int ticks = static_cast<int>(std::llround(seconds / dt));
    for (int i = 0; i < ticks; ++i)
        cluster.Tick(start + i * dt, dt);
}

TEST(Cluster, RejectsBadInputs)
{
    Application empty;
    EXPECT_THROW(Cluster(empty, ClusterConfig{}, 1),
                 std::invalid_argument);
    Application app = ChainApp({1.0});
    ClusterConfig bad;
    bad.replica_scale = 0;
    EXPECT_THROW(Cluster(app, bad, 1), std::invalid_argument);
    Cluster ok(app, ClusterConfig{}, 1);
    EXPECT_THROW(ok.Inject(5, 0.0), std::out_of_range);
    EXPECT_THROW(ok.SetCpuLimit(9, 1.0), std::out_of_range);
    EXPECT_THROW(ok.SetAllocation({1.0, 2.0}), std::invalid_argument);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/** Cluster construction must fail on @p app with a message naming
 *  @p field (or the limit it breaks). */
void
ExpectRejectsNode(const Application& app, const std::string& field)
{
    try {
        Cluster cluster(app, ClusterConfig{}, 1);
        ADD_FAILURE() << "accepted a call tree rejected for " << field;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

// A node without positive finite work would be admitted but never
// runnable: it would hold its slot and its request forever.
TEST(Cluster, RejectsNodeWithoutPositiveFiniteDemand)
{
    for (const double d : {0.0, -0.001, kNaN, kInf}) {
        Application app = ChainApp({1.0, 2.0});
        app.request_types[0].root.children[0].demand_s = d;
        ExpectRejectsNode(app, "demand_s");
    }
}

TEST(Cluster, RejectsNodeWithBadDemandCv)
{
    for (const double cv : {-0.1, kNaN, kInf}) {
        Application app = ChainApp({1.0, 2.0});
        app.request_types[0].root.children[0].demand_cv = cv;
        ExpectRejectsNode(app, "demand_cv");
    }
}

TEST(Cluster, RejectsNodeWithHitProbOutsideUnitInterval)
{
    for (const double p : {-0.01, 1.01, kNaN}) {
        Application app = ChainApp({1.0, 2.0});
        app.request_types[0].root.hit_prob = p;
        ExpectRejectsNode(app, "hit_prob");
    }
}

/** ChainApp({1.0}) plus a 256-slot tier whose @p n children the root
 *  calls, sync or async. */
Application
FanOutApp(int n, bool async)
{
    Application app = ChainApp({1.0});
    TierSpec fan;
    fan.name = "fan";
    fan.concurrency_per_replica = 256;
    fan.init_cpu = 16.0;
    app.tiers.push_back(fan);
    CallNode child;
    child.tier = 1;
    child.demand_s = 0.001;
    child.demand_cv = 0.0;
    child.async = async;
    app.request_types[0].root.children.assign(static_cast<size_t>(n),
                                              child);
    return app;
}

// A stage counts its pending sync children in 8 bits and names its
// call-tree node in 16, so construction rejects trees beyond either.
TEST(Cluster, RejectsMoreThan255SyncChildren)
{
    ExpectRejectsNode(FanOutApp(256, false), "more than 255 sync children");
}

TEST(Cluster, RunsANodeWith255SyncChildren)
{
    const Application app = FanOutApp(255, false);
    Cluster cluster(app, ClusterConfig{}, 1);
    cluster.Inject(0, 0.0);
    Drain(cluster, 0.5);
    EXPECT_EQ(cluster.InFlight(), 0);
    ASSERT_EQ(cluster.Latencies().Count(), 1u);
    // Root work, one tick for the children to become ready, then 255
    // ms of child work spread over 16 cores (plus tick rounding).
    EXPECT_GE(cluster.Latencies().Quantile(1.0), 255.0 / 16.0);
    EXPECT_LE(cluster.Latencies().Quantile(1.0), 60.0);
}

TEST(Cluster, RejectsMoreThan65535CallTreeNodes)
{
    // The root and 65534 async children fill the node table exactly.
    const Application app = FanOutApp(65534, true);
    Cluster full(app, ClusterConfig{}, 1);
    full.Inject(0, 0.0);
    Drain(full, 0.1);
    EXPECT_EQ(full.InFlight(), 0);
    ExpectRejectsNode(FanOutApp(65535, true), "more than 65535 nodes");
}

TEST(Cluster, SingleRequestCompletesWithExpectedLatency)
{
    // 20 ms of work on one tier with ample CPU: latency should be the
    // demand rounded up to tick granularity (plus the completion tick).
    Application app = ChainApp({20.0});
    Cluster cluster(app, ClusterConfig{}, 1);
    cluster.Inject(0, 0.0);
    EXPECT_EQ(cluster.InFlight(), 1);
    Drain(cluster, 0.2);
    EXPECT_EQ(cluster.InFlight(), 0);
    ASSERT_EQ(cluster.Latencies().Count(), 1u);
    const double lat = cluster.Latencies().Quantile(0.5);
    EXPECT_GE(lat, 20.0);
    EXPECT_LE(lat, 40.0);
}

TEST(Cluster, ChainLatencyAccumulatesAcrossTiers)
{
    Application app = ChainApp({10.0, 10.0, 10.0});
    Cluster cluster(app, ClusterConfig{}, 1);
    cluster.Inject(0, 0.0);
    Drain(cluster, 0.5);
    ASSERT_EQ(cluster.Latencies().Count(), 1u);
    const double lat = cluster.Latencies().Quantile(0.5);
    EXPECT_GE(lat, 30.0);
    EXPECT_LE(lat, 80.0);
}

TEST(Cluster, ProcessorSharingSlowsConcurrentRequests)
{
    // Two 50 ms requests sharing one core finish in ~100 ms each.
    Application app = ChainApp({50.0});
    app.tiers[0].init_cpu = 1.0;
    app.tiers[0].min_cpu = 1.0;
    app.tiers[0].max_cpu = 1.0;
    Cluster cluster(app, ClusterConfig{}, 1);
    cluster.Inject(0, 0.0);
    cluster.Inject(0, 0.0);
    Drain(cluster, 0.5);
    ASSERT_EQ(cluster.Latencies().Count(), 2u);
    EXPECT_GE(cluster.Latencies().Quantile(1.0), 95.0);
    EXPECT_LE(cluster.Latencies().Quantile(1.0), 130.0);
}

TEST(Cluster, CpuLimitThrottlesThroughput)
{
    // 10 requests x 20 ms on a 0.5-core tier need >= 0.4 s of wall time.
    Application app = ChainApp({20.0});
    app.tiers[0].min_cpu = 0.5;
    app.tiers[0].init_cpu = 0.5;
    Cluster cluster(app, ClusterConfig{}, 1);
    for (int i = 0; i < 10; ++i)
        cluster.Inject(0, 0.0);
    Drain(cluster, 0.35);
    EXPECT_GT(cluster.InFlight(), 0);
    Drain(cluster, 0.5, 0.01, 0.35);
    EXPECT_EQ(cluster.InFlight(), 0);
}

TEST(Cluster, ConcurrencyLimitSerializesExecution)
{
    // One slot: two 30 ms requests run back to back even with 4 cores.
    Application app = ChainApp({30.0});
    app.tiers[0].concurrency_per_replica = 1;
    app.tiers[0].replicas = 1;
    Cluster cluster(app, ClusterConfig{}, 1);
    cluster.Inject(0, 0.0);
    cluster.Inject(0, 0.0);
    Drain(cluster, 0.5);
    ASSERT_EQ(cluster.Latencies().Count(), 2u);
    // Serial completion is 60 ms; the within-tick slot handoff can give
    // the second request up to one tick of head start.
    EXPECT_GE(cluster.Latencies().Quantile(1.0), 50.0);
    EXPECT_LE(cluster.Latencies().Quantile(1.0), 80.0);
}

TEST(Cluster, BackpressurePropagatesUpstream)
{
    // Downstream tier t1 is starved; upstream t0 has few slots, so its
    // admission queue must grow even though t0 itself has CPU to spare.
    Application app = ChainApp({1.0, 20.0});
    app.tiers[0].concurrency_per_replica = 4;
    app.tiers[0].replicas = 1;
    app.tiers[1].min_cpu = 0.2;
    app.tiers[1].init_cpu = 0.2;
    app.tiers[1].concurrency_per_replica = 64;
    Cluster cluster(app, ClusterConfig{}, 1);
    for (int i = 0; i < 60; ++i)
        cluster.Inject(0, 0.0);
    Drain(cluster, 0.3);
    const TierState& t0 = cluster.TierAt(0);
    EXPECT_GT(t0.QueueLen(), 0u)
        << "upstream should be blocked by slot exhaustion";
    // All four upstream slots are held by stages waiting on downstream.
    EXPECT_EQ(t0.active, 4);
}

TEST(Cluster, CacheHitSkipsChildren)
{
    Application app = ChainApp({1.0, 5.0});
    app.request_types[0].root.hit_prob = 1.0; // always hit
    Cluster cluster(app, ClusterConfig{}, 1);
    for (int i = 0; i < 20; ++i)
        cluster.Inject(0, 0.0);
    Drain(cluster, 1.0);
    const IntervalObservation obs = cluster.Harvest(1.0, 1.0);
    EXPECT_EQ(cluster.InFlight(), 0);
    EXPECT_DOUBLE_EQ(obs.tiers[1].cpu_used, 0.0);
    EXPECT_DOUBLE_EQ(obs.tiers[1].rx_pps, 0.0);
}

TEST(Cluster, CacheMissInvokesChildren)
{
    Application app = ChainApp({1.0, 5.0});
    app.request_types[0].root.hit_prob = 0.0;
    Cluster cluster(app, ClusterConfig{}, 1);
    for (int i = 0; i < 20; ++i)
        cluster.Inject(0, 0.0);
    Drain(cluster, 1.0);
    const IntervalObservation obs = cluster.Harvest(1.0, 1.0);
    EXPECT_GT(obs.tiers[1].cpu_used, 0.0);
    EXPECT_GT(obs.tiers[1].rx_pps, 0.0);
}

TEST(Cluster, AsyncChildDoesNotDelayCompletion)
{
    // Root does 5 ms; async child does 200 ms. Latency ~ root only.
    Application app = ChainApp({5.0, 200.0});
    app.request_types[0].root.children[0].async = true;
    Cluster cluster(app, ClusterConfig{}, 1);
    cluster.Inject(0, 0.0);
    Drain(cluster, 0.1);
    ASSERT_EQ(cluster.Latencies().Count(), 1u);
    EXPECT_LE(cluster.Latencies().Quantile(1.0), 40.0);
    // The async work still consumes CPU on its tier.
    Drain(cluster, 0.3, 0.01, 0.1);
    const IntervalObservation obs = cluster.Harvest(0.4, 0.4);
    EXPECT_GT(obs.tiers[1].cpu_used, 0.0);
}

TEST(Cluster, ParallelChildrenOverlap)
{
    // Root fans out to two 40 ms children on separate tiers: total
    // latency should be far below the serial 80 ms + overheads.
    Application app = ChainApp({1.0});
    TierSpec child_tier;
    child_tier.name = "child_a";
    child_tier.init_cpu = 4.0;
    app.tiers.push_back(child_tier);
    child_tier.name = "child_b";
    app.tiers.push_back(child_tier);
    CallNode a;
    a.tier = 1;
    a.demand_s = 0.04;
    a.demand_cv = 0.0;
    CallNode b = a;
    b.tier = 2;
    app.request_types[0].root.children = {a, b};
    Cluster cluster(app, ClusterConfig{}, 1);
    cluster.Inject(0, 0.0);
    Drain(cluster, 0.3);
    ASSERT_EQ(cluster.Latencies().Count(), 1u);
    EXPECT_LE(cluster.Latencies().Quantile(1.0), 70.0);
    EXPECT_GE(cluster.Latencies().Quantile(1.0), 40.0);
}

TEST(Cluster, SetCpuLimitClampsToSpec)
{
    Application app = ChainApp({1.0});
    app.tiers[0].min_cpu = 1.0;
    app.tiers[0].max_cpu = 4.0;
    Cluster cluster(app, ClusterConfig{}, 1);
    cluster.SetCpuLimit(0, 100.0);
    EXPECT_DOUBLE_EQ(cluster.Allocation()[0], 4.0);
    cluster.SetCpuLimit(0, 0.01);
    EXPECT_DOUBLE_EQ(cluster.Allocation()[0], 1.0);
}

TEST(Cluster, HarvestResetsIntervalAccumulators)
{
    Application app = ChainApp({5.0});
    Cluster cluster(app, ClusterConfig{}, 1);
    ClusterConfig quiet;
    quiet.metric_noise = 0.0;
    Cluster c2(app, quiet, 1);
    for (int i = 0; i < 10; ++i)
        c2.Inject(0, 0.0);
    Drain(c2, 1.0);
    const IntervalObservation first = c2.Harvest(1.0, 1.0);
    EXPECT_GT(first.tiers[0].cpu_used, 0.0);
    EXPECT_DOUBLE_EQ(first.rps, 10.0);
    Drain(c2, 1.0, 0.01, 1.0);
    const IntervalObservation second = c2.Harvest(2.0, 1.0);
    EXPECT_DOUBLE_EQ(second.tiers[0].cpu_used, 0.0);
    EXPECT_DOUBLE_EQ(second.rps, 0.0);
    EXPECT_EQ(second.latency_ms.back(), 0.0);
}

TEST(Cluster, MetricsAreInternallyConsistent)
{
    Application app = ChainApp({2.0, 3.0});
    ClusterConfig cfg;
    cfg.metric_noise = 0.0;
    Cluster cluster(app, cfg, 1);
    for (int i = 0; i < 50; ++i)
        cluster.Inject(0, i * 0.01);
    Drain(cluster, 1.0);
    const IntervalObservation obs = cluster.Harvest(1.0, 1.0);
    for (const TierMetrics& m : obs.tiers) {
        EXPECT_LE(m.cpu_used, m.cpu_limit * 1.001);
        EXPECT_GE(m.rss_mb, 0.0);
        EXPECT_GE(m.Utilization(), 0.0);
        EXPECT_LE(m.Utilization(), 1.001);
    }
    // Each request traverses both tiers: rx at each should match count.
    EXPECT_NEAR(obs.tiers[0].rx_pps,
                50.0 * app.tiers[0].pkts_per_rpc * 2.0, 1e-6);
}

TEST(Cluster, RssGrowsWithBacklog)
{
    Application app = ChainApp({50.0});
    app.tiers[0].min_cpu = 0.2;
    app.tiers[0].init_cpu = 0.2;
    ClusterConfig cfg;
    cfg.metric_noise = 0.0;
    Cluster idle(app, cfg, 1);
    Drain(idle, 1.0);
    const double rss_idle = idle.Harvest(1.0, 1.0).tiers[0].rss_mb;

    Cluster busy(app, cfg, 1);
    for (int i = 0; i < 200; ++i)
        busy.Inject(0, 0.0);
    Drain(busy, 1.0);
    const double rss_busy = busy.Harvest(1.0, 1.0).tiers[0].rss_mb;
    EXPECT_GT(rss_busy, rss_idle + 5.0);
}

TEST(Cluster, LogSyncStallCausesLatencySpike)
{
    Application app = ChainApp({5.0});
    app.tiers[0].log_sync = true;
    app.tiers[0].log_sync_period_s = 2.0;
    app.tiers[0].written_mb_per_req = 1.0;
    app.tiers[0].stall_s_per_mb = 0.005;
    app.tiers[0].stall_base_s = 0.1;

    ClusterConfig cfg;
    cfg.metric_noise = 0.0;
    Cluster cluster(app, cfg, 1);
    double max_lat_before = 0.0, max_lat_after = 0.0;
    double now = 0.0;
    for (int sec = 0; sec < 4; ++sec) {
        for (int i = 0; i < 100; ++i) {
            cluster.Tick(now, 0.01);
            if (i % 5 == 0)
                cluster.Inject(0, now);
            now += 0.01;
        }
        const IntervalObservation obs = cluster.Harvest(now, 1.0);
        if (sec < 2)
            max_lat_before = std::max(max_lat_before, obs.P99());
        else
            max_lat_after = std::max(max_lat_after, obs.P99());
    }
    // The sync at t=2 s stalls the tier for >= 100 ms.
    EXPECT_LT(max_lat_before, 60.0);
    EXPECT_GT(max_lat_after, 90.0);
}

TEST(Cluster, SpeedFactorScalesCapacity)
{
    Application app = ChainApp({20.0});
    app.tiers[0].min_cpu = 1.0;
    app.tiers[0].init_cpu = 1.0;
    app.tiers[0].max_cpu = 1.0;
    ClusterConfig slow;
    slow.speed_factor = 0.5;
    slow.metric_noise = 0.0;
    Cluster cluster(app, slow, 1);
    cluster.Inject(0, 0.0);
    Drain(cluster, 0.5);
    ASSERT_EQ(cluster.Latencies().Count(), 1u);
    // 20 ms of work at 0.5 effective cores ~ 40 ms.
    EXPECT_GE(cluster.Latencies().Quantile(1.0), 40.0);
}

TEST(Cluster, ReplicaScaleMultipliesSlots)
{
    Application app = ChainApp({10.0});
    app.tiers[0].concurrency_per_replica = 2;
    app.tiers[0].replicas = 3;
    ClusterConfig cfg;
    cfg.replica_scale = 4;
    Cluster cluster(app, cfg, 1);
    EXPECT_EQ(cluster.TierAt(0).slots, 24);
}


TEST(Cluster, RequestConservationUnderRandomTraffic)
{
    // injected == completed + in-flight, across random loads/allocs.
    Application app = ChainApp({3.0, 6.0, 2.0}, 0.2);
    Cluster cluster(app, ClusterConfig{}, 11);
    Rng rng(13);
    int64_t injected = 0;
    double now = 0.0;
    for (int i = 0; i < 3000; ++i) {
        const int n = rng.Poisson(1.5);
        for (int j = 0; j < n; ++j) {
            cluster.Inject(0, now);
            ++injected;
        }
        if (i % 400 == 0)
            cluster.SetCpuLimit(1, rng.Uniform(0.5, 8.0));
        cluster.Tick(now, 0.01);
        now += 0.01;
    }
    int64_t completed = 0;
    // Count completions across the interval boundaries we crossed.
    // (Latency digest resets at Harvest; count via completed_rps.)
    const IntervalObservation obs = cluster.Harvest(now, now);
    completed = static_cast<int64_t>(
        std::llround(obs.completed_rps * now));
    EXPECT_EQ(injected, completed + cluster.InFlight());
}

TEST(Cluster, DeterministicForSameSeed)
{
    Application app = ChainApp({4.0, 8.0}, 0.3);
    auto run = [&] {
        Cluster cluster(app, ClusterConfig{}, 17);
        Rng rng(19);
        double now = 0.0;
        for (int i = 0; i < 1000; ++i) {
            const int n = rng.Poisson(1.0);
            for (int j = 0; j < n; ++j)
                cluster.Inject(0, now);
            cluster.Tick(now, 0.01);
            now += 0.01;
        }
        const IntervalObservation obs = cluster.Harvest(now, now);
        return std::make_pair(obs.latency_ms, obs.tiers[0].cpu_used);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.first, b.first);
    EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(Cluster, SerialChainCannotCompressWorkIntoOneTick)
{
    // Three 10 ms hops cost at least 3 ticks of wall time even with
    // infinite CPU (children spawned mid-tick wait for the next tick).
    Application app = ChainApp({10.0, 10.0, 10.0});
    for (auto& t : app.tiers) {
        t.init_cpu = 16.0;
        t.max_cpu = 16.0;
    }
    Cluster cluster(app, ClusterConfig{}, 1);
    cluster.Inject(0, 0.0);
    Drain(cluster, 0.5);
    ASSERT_EQ(cluster.Latencies().Count(), 1u);
    EXPECT_GE(cluster.Latencies().Quantile(0.5), 30.0);
}

TEST(Cluster, LogSyncPeriodIsRespected)
{
    Application app = ChainApp({2.0});
    app.tiers[0].log_sync = true;
    app.tiers[0].log_sync_period_s = 3.0;
    app.tiers[0].written_mb_per_req = 0.5;
    app.tiers[0].stall_base_s = 0.15;
    ClusterConfig cfg;
    cfg.metric_noise = 0.0;
    Cluster cluster(app, cfg, 21);
    double now = 0.0;
    std::vector<double> p99s;
    for (int sec = 0; sec < 9; ++sec) {
        for (int i = 0; i < 100; ++i) {
            if (i % 4 == 0)
                cluster.Inject(0, now);
            cluster.Tick(now, 0.01);
            now += 0.01;
        }
        p99s.push_back(cluster.Harvest(now, 1.0).P99());
    }
    // Stalls at t=3 s and t=6 s: seconds 3 and 6 spike, neighbors low.
    EXPECT_GT(p99s[3], 100.0);
    EXPECT_GT(p99s[6], 100.0);
    EXPECT_LT(p99s[1], 60.0);
    EXPECT_LT(p99s[4], 60.0);
}

/** Property: offered load above tier capacity accumulates backlog. */
class SaturationTest : public ::testing::TestWithParam<double> {};

TEST_P(SaturationTest, BacklogIffOverloaded)
{
    const double load_factor = GetParam();
    Application app = ChainApp({10.0}, 0.05);
    app.tiers[0].min_cpu = 1.0;
    app.tiers[0].init_cpu = 1.0;
    app.tiers[0].max_cpu = 1.0;
    Cluster cluster(app, ClusterConfig{}, 7);
    // Capacity = 100 req/s at 10 ms per request on 1 core.
    const double rate = 100.0 * load_factor;
    Rng rng(3);
    double now = 0.0;
    for (int i = 0; i < 1500; ++i) {
        const int n = rng.Poisson(rate * 0.01);
        for (int j = 0; j < n; ++j)
            cluster.Inject(0, now);
        cluster.Tick(now, 0.01);
        now += 0.01;
    }
    if (load_factor > 1.2) {
        EXPECT_GT(cluster.InFlight(), 50);
    } else if (load_factor < 0.8) {
        EXPECT_LT(cluster.InFlight(), 20);
    }
}

INSTANTIATE_TEST_SUITE_P(LoadFactors, SaturationTest,
                         ::testing::Values(0.3, 0.5, 0.7, 1.5, 2.0, 3.0));

TEST(Cluster, AdmissionQueueIsFifoAcrossALongBacklog)
{
    // One slot and every request traced: completion order is admission
    // order, and trace ids are injection order. A stall piles up 3072
    // queued stages behind the slot; each admission takes one off the
    // head, and the drained queue holds no handle.
    Application app = ChainApp({0.1});
    app.tiers[0].concurrency_per_replica = 1;
    app.tiers[0].replicas = 1;
    ClusterConfig cfg;
    cfg.trace_sample = 1.0;
    Cluster cluster(app, cfg, 1);
    const int n = 3072;
    cluster.InjectStall(0, 0.3);
    for (int i = 0; i < n; ++i)
        cluster.Inject(0, 0.0);
    ASSERT_EQ(cluster.TierAt(0).QueueLen(), static_cast<size_t>(n));

    std::vector<int64_t> order;
    double now = 0.0;
    for (int tick = 0; tick < 200 && cluster.InFlight() > 0; ++tick) {
        const int64_t before =
            static_cast<int64_t>(cluster.TierAt(0).QueueLen()) +
            cluster.TierAt(0).active;
        cluster.Tick(now, 0.01);
        now += 0.01;
        const std::vector<Trace> done = cluster.TakeTraces();
        // Every completion frees the slot for exactly one admission.
        const TierState& t = cluster.TierAt(0);
        EXPECT_EQ(static_cast<int64_t>(t.QueueLen()) + t.active,
                  before - static_cast<int64_t>(done.size()))
            << "tick " << tick;
        for (const Trace& tr : done)
            order.push_back(tr.trace_id);
    }
    EXPECT_EQ(cluster.InFlight(), 0);
    const TierState& t = cluster.TierAt(0);
    EXPECT_EQ(t.QueueLen(), 0u);
    EXPECT_EQ(t.queue_head, -1);
    EXPECT_EQ(t.queue_tail, -1);
    ASSERT_EQ(order.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(order[i], i + 1) << "completion " << i;
}

TEST(Cluster, AdmissionQueueDrainsAndRefillsWithinOneTickInOrder)
{
    // One slot on one core. A root's admission drains the queue; the
    // root then finishes within the tick and refills the empty queue
    // with three async children on its own tier, the first of which is
    // admitted before the tick ends. Each child needs 0.8 of a tick, so
    // they finish in consecutive ticks, in queue order.
    Application app = ChainApp({0.1});
    app.tiers[0].concurrency_per_replica = 1;
    app.tiers[0].replicas = 1;
    app.tiers[0].init_cpu = 1.0;
    CallNode child;
    child.tier = 0;
    child.demand_s = 0.008;
    child.demand_cv = 0.0;
    child.async = true;
    for (int c = 0; c < 3; ++c)
        app.request_types[0].root.children.push_back(child);
    ClusterConfig cfg;
    cfg.trace_sample = 1.0;
    Cluster cluster(app, cfg, 2);

    const int n = 5;
    const double dt = 0.01;
    std::vector<Trace> traces;
    for (int tick = 0; tick < 4 * n; ++tick) {
        const double now = tick * dt;
        const bool inject = tick % 4 == 0;
        if (inject)
            cluster.Inject(0, now);
        cluster.Tick(now, dt);
        const TierState& t = cluster.TierAt(0);
        if (inject) {
            // Refilled after the drain: one child admitted, two queued.
            EXPECT_EQ(t.active, 1) << "tick " << tick;
            EXPECT_EQ(t.QueueLen(), 2u) << "tick " << tick;
        }
        EXPECT_EQ(t.QueueLen() == 0, t.queue_head < 0);
        EXPECT_EQ(t.queue_head < 0, t.queue_tail < 0);
        for (Trace& tr : cluster.TakeTraces())
            traces.push_back(std::move(tr));
    }
    EXPECT_EQ(cluster.InFlight(), 0);
    EXPECT_EQ(cluster.TierAt(0).queue_head, -1);
    EXPECT_EQ(cluster.TierAt(0).queue_tail, -1);
    ASSERT_EQ(traces.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        const Trace& tr = traces[static_cast<size_t>(i)];
        EXPECT_EQ(tr.trace_id, i + 1);
        ASSERT_EQ(tr.spans.size(), 4u);
        // Spans 1-3 are the children in spawn order; each ends one
        // tick after the one queued before it.
        const double injected = 4 * i * dt;
        for (int c = 1; c <= 3; ++c)
            EXPECT_NEAR(tr.spans[static_cast<size_t>(c)].end_s,
                        injected + (c + 1) * dt, 1e-9)
                << "request " << i << " child " << c;
    }
}

TEST(Cluster, RecycledHandleNeverRunsTwice)
{
    // Root and child share tier 0, and half the roots hit the cache. A
    // cache hit frees its handle mid-round; a later fan-out in the same
    // round recycles it for a child that is admitted to the same tier
    // after the round. The finished entry must be gone from running by
    // then, so no handle ever appears twice.
    Application app = ChainApp({1.0}, 0.3);
    app.tiers[0].concurrency_per_replica = 16;
    app.tiers[0].replicas = 1;
    app.request_types[0].root.hit_prob = 0.5;
    CallNode child;
    child.tier = 0;
    child.demand_s = 0.001;
    child.demand_cv = 0.3;
    app.request_types[0].root.children.push_back(child);
    Cluster cluster(app, ClusterConfig{}, 3);
    Rng rng(5);
    int64_t injected = 0;
    double now = 0.0;
    for (int tick = 0; tick < 400; ++tick) {
        if (tick < 300) {
            const int k = rng.Poisson(8.0);
            for (int j = 0; j < k; ++j, ++injected)
                cluster.Inject(0, now);
        }
        cluster.Tick(now, 0.01);
        now += 0.01;
        std::vector<int32_t> running = cluster.TierAt(0).running;
        std::sort(running.begin(), running.end());
        ASSERT_EQ(std::adjacent_find(running.begin(), running.end()),
                  running.end())
            << "duplicate handle in running after tick " << tick;
    }
    EXPECT_EQ(cluster.InFlight(), 0);
    const IntervalObservation obs = cluster.Harvest(now, now);
    EXPECT_EQ(std::llround(obs.completed_rps * now), injected);
}

TEST(Cluster, BlockedTierReportsExactOccupancyMeans)
{
    // t0's only slot holds a root blocked on a 500 ms child at t1, so
    // from tick 1 on t0 runs nothing and admits nothing while one
    // arrival per tick queues behind it; t2 gets no traffic. Over 20
    // ticks t0's queue reads 0, 1, ..., 19 and every busy tier keeps
    // one slot occupied.
    Application app = ChainApp({1.0, 500.0});
    app.tiers[0].concurrency_per_replica = 1;
    app.tiers[0].replicas = 1;
    app.tiers.push_back(app.tiers[1]);
    app.tiers.back().name = "idle";
    Cluster cluster(app, ClusterConfig{}, 1);
    const int ticks = 20;
    for (int k = 0; k < ticks; ++k) {
        cluster.Inject(0, k * 0.01);
        cluster.Tick(k * 0.01, 0.01);
    }
    EXPECT_TRUE(cluster.TierAt(0).running.empty());
    EXPECT_EQ(cluster.TierAt(0).active, 1);
    EXPECT_EQ(cluster.TierAt(0).QueueLen(), static_cast<size_t>(ticks - 1));
    const IntervalObservation obs = cluster.Harvest(ticks * 0.01, 0.2);
    EXPECT_EQ(obs.tiers[0].queue_len, 190.0 / 20.0);
    EXPECT_EQ(obs.tiers[0].active, 1.0);
    EXPECT_EQ(obs.tiers[1].queue_len, 0.0);
    EXPECT_EQ(obs.tiers[1].active, 1.0);
    EXPECT_EQ(obs.tiers[2].queue_len, 0.0);
    EXPECT_EQ(obs.tiers[2].active, 0.0);
}

TEST(Cluster, NoFinishedMarkSurvivesATick)
{
    // Finished stages are marked -1 in running during a tier-tick; a
    // squeezed hotel cluster finishes many per round, and no mark may
    // be left behind once Tick returns.
    Application app = BuildHotelReservation();
    Cluster cluster(app, ClusterConfig{}, 5);
    for (int t = 0; t < cluster.NumTiers(); ++t)
        cluster.SetCpuLimit(t, t % 2 ? 0.5 : 2.0);
    Rng rng(9);
    const int types = static_cast<int>(app.request_types.size());
    double now = 0.0;
    for (int tick = 0; tick < 300; ++tick) {
        for (int j = rng.Poisson(20.0); j > 0; --j)
            cluster.Inject(static_cast<int>(rng.UniformInt(0, types - 1)),
                           now);
        cluster.Tick(now, 0.01);
        now += 0.01;
        for (int t = 0; t < cluster.NumTiers(); ++t) {
            const std::vector<int32_t>& running = cluster.TierAt(t).running;
            ASSERT_TRUE(std::none_of(running.begin(), running.end(),
                                     [](int32_t h) { return h < 0; }))
                << "tier " << t << " after tick " << tick;
        }
    }
}

TEST(Cluster, PrecomputedLogNormalMatchesReferenceBitForBit)
{
    // The cluster draws stage demands from LogNormalParams built once per
    // call-tree node. Each draw must equal, bit for bit, the direct
    // mean/cv formula, and consume exactly the same RNG state: one
    // normal for a positive mean (even at cv = 0), none for mean <= 0.
    const double means[] = {-1.0, 0.0, 1e-9, 0.0004, 0.002, 0.5, 3.0};
    const double cvs[] = {0.0, 0.05, 0.15, 0.5, 1.0, 2.5};
    Rng reference(99);
    Rng wrapped(99);
    Rng precomputed(99);
    for (int rep = 0; rep < 3; ++rep) {
        for (const double mean : means) {
            for (const double cv : cvs) {
                double want = 0.0;
                if (mean > 0.0) {
                    const double sigma2 = std::log(1.0 + cv * cv);
                    const double mu = std::log(mean) - 0.5 * sigma2;
                    want = std::exp(reference.Normal(mu, std::sqrt(sigma2)));
                }
                const LogNormalParams p =
                    LogNormalParams::FromMeanCv(mean, cv);
                EXPECT_EQ(p.positive, mean > 0.0);
                const double a = wrapped.LogNormal(mean, cv);
                const double b = precomputed.LogNormal(p);
                EXPECT_EQ(std::bit_cast<uint64_t>(a),
                          std::bit_cast<uint64_t>(want))
                    << "mean " << mean << " cv " << cv;
                EXPECT_EQ(std::bit_cast<uint64_t>(b),
                          std::bit_cast<uint64_t>(want))
                    << "mean " << mean << " cv " << cv;
            }
        }
        // Same stream position afterwards, including the cached normal.
        const double n_ref = reference.Normal();
        EXPECT_EQ(std::bit_cast<uint64_t>(wrapped.Normal()),
                  std::bit_cast<uint64_t>(n_ref));
        EXPECT_EQ(std::bit_cast<uint64_t>(precomputed.Normal()),
                  std::bit_cast<uint64_t>(n_ref));
    }
    // mean <= 0 consumes nothing at all.
    Rng untouched(7);
    Rng drawn(7);
    EXPECT_EQ(drawn.LogNormal(LogNormalParams::FromMeanCv(0.0, 0.3)), 0.0);
    EXPECT_EQ(drawn.LogNormal(-2.0, 0.0), 0.0);
    EXPECT_EQ(drawn.NextU64(), untouched.NextU64());
}

/** Every chaos scenario through a solo AutoScaleCons run, so the
 *  simulator's conservation checks run under stalls, capacity loss,
 *  flash crowds and telemetry faults (and under the sanitizer legs). */
class ChaosSoloTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChaosSoloTest, ConservationHoldsUnderScenario)
{
    const ChaosScenario& sc = ChaosScenarios()[GetParam()];
    const Application app = GetParam() % 2 == 0 ? BuildSocialNetwork()
                                                : BuildHotelReservation();
    AutoScaler cons = MakeAutoScaleCons();
    const ConstantLoad load(GetParam() % 2 == 0 ? 200.0 : 1800.0);
    RunConfig cfg;
    cfg.faults = ParseFaultSpec(sc.spec);
    cfg.duration_s = static_cast<double>(cfg.faults.EndInterval() + 4);
    cfg.warmup_s = 2.0;
    cfg.cluster.trace_sample = 0.01;
    cfg.seed = 31 + GetParam();
    RunResult r;
    ASSERT_NO_THROW(r = RunManaged(app, cons, load, cfg)) << sc.name;
    ASSERT_EQ(r.timeline.size(),
              static_cast<size_t>(cfg.faults.EndInterval() + 4));
    for (const IntervalRecord& rec : r.timeline)
        EXPECT_GE(rec.p99_ms, 0.0) << sc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ChaosSoloTest,
    ::testing::Range<size_t>(0, ChaosScenarios().size()),
    [](const ::testing::TestParamInfo<size_t>& p) {
        std::string name = ChaosScenarios()[p.param].name;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

} // namespace
} // namespace sinan
