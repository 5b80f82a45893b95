/**
 * @file
 * Tests for the experiment harness: metric accounting, warm-up
 * exclusion, and managed end-to-end runs with the baselines.
 */
#include <gtest/gtest.h>

#include <numeric>

#include "app/apps.h"
#include "baselines/autoscale.h"
#include "harness/harness.h"

namespace sinan {
namespace {

/** Manager that never changes the allocation. */
class HoldManager : public ResourceManager {
  public:
    std::vector<double>
    Decide(const IntervalObservation&, const std::vector<double>& alloc,
           const Application&) override
    {
        return alloc;
    }
    const char* Name() const override { return "Hold"; }
};

TEST(RunManaged, ProducesTimelineAndAggregates)
{
    const Application app = BuildSocialNetwork();
    HoldManager hold;
    ConstantLoad load(100.0);
    RunConfig cfg;
    cfg.duration_s = 40.0;
    cfg.warmup_s = 10.0;
    const RunResult r = RunManaged(app, hold, load, cfg);

    EXPECT_EQ(r.timeline.size(), 40u);
    // qos_meet_prob counts only the 30 post-warmup intervals.
    size_t measured = 0, met = 0;
    for (const IntervalRecord& rec : r.timeline) {
        if (rec.time_s <= cfg.warmup_s)
            continue;
        ++measured;
        met += rec.p99_ms <= app.qos_ms;
    }
    EXPECT_EQ(measured, 30u);
    EXPECT_DOUBLE_EQ(r.qos_meet_prob, static_cast<double>(met) / 30.0);
    EXPECT_GT(r.mean_cpu, 0.0);
    EXPECT_GE(r.max_cpu, r.mean_cpu - 1e-9);

    // With a hold manager the allocation never moves.
    const double init_total = std::accumulate(
        r.timeline.front().alloc.begin(),
        r.timeline.front().alloc.end(), 0.0);
    EXPECT_NEAR(r.mean_cpu, init_total, 1e-6);
    EXPECT_NEAR(r.max_cpu, init_total, 1e-6);

    // RPS tracks the load.
    double rps_acc = 0.0;
    for (const IntervalRecord& rec : r.timeline)
        rps_acc += rec.rps;
    EXPECT_NEAR(rps_acc / static_cast<double>(r.timeline.size()),
                100.0, 10.0);
}

TEST(RunManaged, BaselinePredictionsAreUnavailable)
{
    const Application app = BuildSocialNetwork();
    HoldManager hold;
    ConstantLoad load(50.0);
    RunConfig cfg;
    cfg.duration_s = 10.0;
    const RunResult r = RunManaged(app, hold, load, cfg);
    for (const IntervalRecord& rec : r.timeline)
        EXPECT_LT(rec.predicted_p99_ms, 0.0);
}

TEST(RunManaged, AutoscalerAdaptsAllocationUpUnderLoad)
{
    Application app = BuildSocialNetwork();
    // Start undersized so the autoscaler must grow allocations.
    for (TierSpec& t : app.tiers)
        t.init_cpu = t.min_cpu + 0.2;
    AutoScaler cons = MakeAutoScaleCons();
    ConstantLoad load(250.0);
    RunConfig cfg;
    cfg.duration_s = 60.0;
    const RunResult r = RunManaged(app, cons, load, cfg);
    const double first = r.timeline.front().total_cpu;
    const double last = r.timeline.back().total_cpu;
    EXPECT_GT(last, first * 1.5);
}

TEST(RunManaged, DeterministicForSameSeed)
{
    const Application app = BuildHotelReservation();
    AutoScaler opt = MakeAutoScaleOpt();
    ConstantLoad load(800.0);
    RunConfig cfg;
    cfg.duration_s = 20.0;
    const RunResult a = RunManaged(app, opt, load, cfg);
    const RunResult b = RunManaged(app, opt, load, cfg);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.timeline[i].p99_ms, b.timeline[i].p99_ms);
        EXPECT_DOUBLE_EQ(a.timeline[i].total_cpu,
                         b.timeline[i].total_cpu);
    }
}

TEST(RunManaged, GceStyleClusterConfigRuns)
{
    const Application app = BuildSocialNetwork();
    HoldManager hold;
    ConstantLoad load(100.0);
    RunConfig cfg;
    cfg.duration_s = 15.0;
    cfg.cluster.speed_factor = 0.85;
    cfg.cluster.replica_scale = 2;
    const RunResult r = RunManaged(app, hold, load, cfg);
    EXPECT_EQ(r.timeline.size(), 15u);
}

TEST(DefaultHybridConfig, IsSane)
{
    const HybridConfig cfg = DefaultHybridConfig();
    EXPECT_GT(cfg.train.epochs, 0);
    EXPECT_GT(cfg.bt.n_trees, 0);
    EXPECT_TRUE(cfg.train.scaled_loss);
}

} // namespace
} // namespace sinan
