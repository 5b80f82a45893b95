/**
 * @file
 * Tests for the Hotel Reservation and Social Network application graphs:
 * structure, variants, and end-to-end calibration (a feasible allocation
 * exists that meets QoS; a starved one violates it).
 */
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "app/apps.h"
#include "cluster/cluster.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace sinan {
namespace {

void
CheckTreeTiers(const CallNode& node, int n_tiers)
{
    EXPECT_GE(node.tier, 0);
    EXPECT_LT(node.tier, n_tiers);
    EXPECT_GT(node.demand_s, 0.0);
    EXPECT_GE(node.hit_prob, 0.0);
    EXPECT_LE(node.hit_prob, 1.0);
    for (const CallNode& c : node.children)
        CheckTreeTiers(c, n_tiers);
}

void
CheckAppWellFormed(const Application& app)
{
    std::set<std::string> names;
    for (const TierSpec& t : app.tiers) {
        EXPECT_TRUE(names.insert(t.name).second)
            << "duplicate tier " << t.name;
        EXPECT_GT(t.max_cpu, t.min_cpu);
        EXPECT_GE(t.init_cpu, t.min_cpu);
        EXPECT_LE(t.init_cpu, t.max_cpu);
        EXPECT_GT(t.concurrency_per_replica * t.replicas, 0);
    }
    for (const RequestType& rt : app.request_types) {
        EXPECT_GT(rt.weight, 0.0);
        CheckTreeTiers(rt.root, static_cast<int>(app.tiers.size()));
    }
}

TEST(HotelApp, HasPaperTopology)
{
    const Application app = BuildHotelReservation();
    EXPECT_EQ(app.tiers.size(), 17u);
    EXPECT_EQ(app.request_types.size(), 4u);
    EXPECT_DOUBLE_EQ(app.qos_ms, 200.0);
    EXPECT_GE(app.TierIndex("frontend"), 0);
    EXPECT_GE(app.TierIndex("geo-mongo"), 0);
    EXPECT_EQ(app.TierIndex("not-a-tier"), -1);
    CheckAppWellFormed(app);
}

TEST(SocialApp, HasPaperTopology)
{
    const Application app = BuildSocialNetwork();
    EXPECT_EQ(app.tiers.size(), 28u);
    EXPECT_EQ(app.request_types.size(), 3u);
    EXPECT_DOUBLE_EQ(app.qos_ms, 500.0);
    EXPECT_GE(app.TierIndex("nginx"), 0);
    EXPECT_GE(app.TierIndex("graph-redis"), 0);
    EXPECT_GE(app.TierIndex("mediaFilter"), 0);
    EXPECT_GE(app.TierIndex("writeHomeTl-rabbitmq"), 0);
    CheckAppWellFormed(app);
}

TEST(SocialApp, RequestTypesMatchPaper)
{
    const Application app = BuildSocialNetwork();
    EXPECT_EQ(app.request_types[0].name, "ComposePost");
    EXPECT_EQ(app.request_types[1].name, "ReadHomeTimeline");
    EXPECT_EQ(app.request_types[2].name, "ReadUserTimeline");
    // Default mix is W0 = 5:80:15.
    EXPECT_DOUBLE_EQ(app.request_types[0].weight, 5.0);
    EXPECT_DOUBLE_EQ(app.request_types[1].weight, 80.0);
    EXPECT_DOUBLE_EQ(app.request_types[2].weight, 15.0);
}

TEST(SocialApp, LogSyncVariantEnablesRedisStalls)
{
    SocialOptions opts;
    opts.redis_log_sync = true;
    const Application app = BuildSocialNetwork(opts);
    const int redis = app.TierIndex("graph-redis");
    ASSERT_GE(redis, 0);
    EXPECT_TRUE(app.tiers[redis].log_sync);
    EXPECT_FALSE(BuildSocialNetwork()
                     .tiers[redis]
                     .log_sync);
}

TEST(SocialApp, AesVariantAddsComputeDemand)
{
    const Application plain = BuildSocialNetwork();
    SocialOptions opts;
    opts.aes_encryption = true;
    const Application aes = BuildSocialNetwork(opts);
    // ComposePost's composePost stage demand should grow.
    const double plain_demand =
        plain.request_types[0].root.children[0].demand_s;
    const double aes_demand =
        aes.request_types[0].root.children[0].demand_s;
    EXPECT_GT(aes_demand, plain_demand);
}

TEST(SetRequestMix, ValidatesAndApplies)
{
    Application app = BuildSocialNetwork();
    SetRequestMix(app, {10.0, 80.0, 10.0});
    EXPECT_DOUBLE_EQ(app.request_types[0].weight, 10.0);
    EXPECT_THROW(SetRequestMix(app, {1.0}), std::invalid_argument);
    EXPECT_THROW(SetRequestMix(app, {-1.0, 2.0, 3.0}),
                 std::invalid_argument);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(SetRequestMix(app, {nan, 1.0, 1.0}),
                 std::invalid_argument);
    EXPECT_THROW(SetRequestMix(app, {1.0, inf, 1.0}),
                 std::invalid_argument);
    // An all-zero mix has no request to draw (WorkloadGenerator would
    // throw later, mid-run).
    EXPECT_THROW(SetRequestMix(app, {0.0, 0.0, 0.0}),
                 std::invalid_argument);
    // A rejected mix leaves the previous one in place.
    EXPECT_DOUBLE_EQ(app.request_types[0].weight, 10.0);
    SetRequestMix(app, {0.0, 1.0, 0.0});
    EXPECT_DOUBLE_EQ(app.request_types[1].weight, 1.0);
}

TEST(SocialNetworkMixes, MatchesSection55)
{
    const auto mixes = SocialNetworkMixes();
    ASSERT_EQ(mixes.size(), 4u);
    EXPECT_EQ(mixes[0], (std::vector<double>{5.0, 80.0, 15.0}));
    EXPECT_EQ(mixes[1], (std::vector<double>{10.0, 80.0, 10.0}));
    EXPECT_EQ(mixes[2], (std::vector<double>{1.0, 90.0, 9.0}));
    EXPECT_EQ(mixes[3], (std::vector<double>{5.0, 70.0, 25.0}));
}

/** Runs an app at fixed load/allocation, returning the steady-state p99. */
double
SteadyP99(const Application& app, double users, double alloc_mult,
          double duration = 40.0)
{
    Cluster cluster(app, ClusterConfig{}, 5);
    std::vector<double> alloc;
    for (const TierSpec& t : app.tiers)
        alloc.push_back(std::min(t.max_cpu, t.init_cpu * alloc_mult));
    cluster.SetAllocation(alloc);
    ConstantLoad load(users);
    WorkloadGenerator gen(cluster, load, 17);
    Simulator sim;
    double p99_acc = 0.0;
    int cnt = 0;
    sim.AddTickable([&](double now, double dt) { gen.Tick(now, dt); });
    sim.AddTickable([&](double now, double dt) { cluster.Tick(now, dt); });
    sim.AddIntervalListener([&](int64_t, double now) {
        const IntervalObservation obs = cluster.Harvest(now, 1.0);
        if (now > duration / 3.0) {
            p99_acc += obs.P99();
            ++cnt;
        }
    });
    sim.RunFor(duration);
    return p99_acc / cnt;
}

TEST(Calibration, HotelMeetsQosWithGenerousAllocation)
{
    const Application app = BuildHotelReservation();
    EXPECT_LT(SteadyP99(app, 1000.0, 4.0), app.qos_ms);
    EXPECT_LT(SteadyP99(app, 3700.0, 4.0), app.qos_ms);
}

TEST(Calibration, HotelViolatesQosWhenStarved)
{
    const Application app = BuildHotelReservation();
    EXPECT_GT(SteadyP99(app, 3000.0, 1.0), app.qos_ms);
}

TEST(Calibration, SocialMeetsQosWithGenerousAllocation)
{
    const Application app = BuildSocialNetwork();
    EXPECT_LT(SteadyP99(app, 100.0, 4.0), app.qos_ms);
    EXPECT_LT(SteadyP99(app, 450.0, 4.0), app.qos_ms);
}

TEST(Calibration, SocialViolatesQosWhenStarved)
{
    const Application app = BuildSocialNetwork();
    EXPECT_GT(SteadyP99(app, 350.0, 1.0), app.qos_ms);
}

TEST(Calibration, ComposeHeavyMixNeedsMoreCpu)
{
    // W1 (compose-heavy) must consume more CPU than W2 (read-heavy).
    auto used_cpu = [&](const std::vector<double>& mix) {
        Application app = BuildSocialNetwork();
        SetRequestMix(app, mix);
        Cluster cluster(app, ClusterConfig{}, 5);
        std::vector<double> alloc;
        for (const TierSpec& t : app.tiers)
            alloc.push_back(t.max_cpu);
        cluster.SetAllocation(alloc);
        ConstantLoad load(300.0);
        WorkloadGenerator gen(cluster, load, 29);
        Simulator sim;
        double used = 0.0;
        int cnt = 0;
        sim.AddTickable(
            [&](double now, double dt) { gen.Tick(now, dt); });
        sim.AddTickable(
            [&](double now, double dt) { cluster.Tick(now, dt); });
        sim.AddIntervalListener([&](int64_t, double now) {
            const IntervalObservation obs = cluster.Harvest(now, 1.0);
            if (now > 10.0) {
                for (const TierMetrics& m : obs.tiers)
                    used += m.cpu_used;
                ++cnt;
            }
        });
        sim.RunFor(30.0);
        return used / cnt;
    };
    const auto mixes = SocialNetworkMixes();
    EXPECT_GT(used_cpu(mixes[1]), used_cpu(mixes[2]) * 1.2);
}

} // namespace
} // namespace sinan
