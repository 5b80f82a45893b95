/**
 * @file
 * Tests for the retraining monitor.
 */
#include <gtest/gtest.h>

#include "core/retrain_monitor.h"

namespace sinan {
namespace {

TEST(RetrainMonitor, RejectsBadConfig)
{
    RetrainMonitorConfig bad;
    bad.window = 0;
    EXPECT_THROW(RetrainMonitor(bad, 10.0), std::invalid_argument);
    EXPECT_THROW(RetrainMonitor(RetrainMonitorConfig{}, 0.0),
                 std::invalid_argument);
}

TEST(RetrainMonitor, NoTriggerWhileAccurate)
{
    RetrainMonitorConfig cfg;
    cfg.min_observations = 10;
    RetrainMonitor mon(cfg, 20.0);
    for (int i = 0; i < 200; ++i)
        EXPECT_FALSE(mon.Observe(100.0 + (i % 3), 100.0));
    EXPECT_LT(mon.RollingRmseMs(), 5.0);
    EXPECT_EQ(mon.TriggerCount(), 0);
}

TEST(RetrainMonitor, TriggersOnDegradedAccuracy)
{
    RetrainMonitorConfig cfg;
    cfg.min_observations = 10;
    cfg.rmse_degradation_factor = 2.0;
    RetrainMonitor mon(cfg, 20.0);
    bool fired = false;
    for (int i = 0; i < 60 && !fired; ++i)
        fired = mon.Observe(100.0, 250.0); // error 150 >> 2*20
    EXPECT_TRUE(fired);
    EXPECT_EQ(mon.TriggerCount(), 1);
}

TEST(RetrainMonitor, CooldownSuppressesRetriggering)
{
    RetrainMonitorConfig cfg;
    cfg.min_observations = 5;
    cfg.cooldown = 50;
    RetrainMonitor mon(cfg, 10.0);
    int fires = 0;
    for (int i = 0; i < 40; ++i)
        fires += mon.Observe(0.0, 500.0);
    EXPECT_EQ(fires, 1); // re-trigger blocked within the cooldown
    for (int i = 0; i < 40; ++i)
        fires += mon.Observe(0.0, 500.0);
    EXPECT_EQ(fires, 2); // fires again once the cooldown elapses
}

TEST(RetrainMonitor, MissingPredictionsDoNotPolluteRmse)
{
    RetrainMonitorConfig cfg;
    cfg.min_observations = 5;
    RetrainMonitor mon(cfg, 10.0);
    for (int i = 0; i < 20; ++i)
        mon.Observe(-1.0, 1000.0); // no prediction made
    EXPECT_DOUBLE_EQ(mon.RollingRmseMs(), 0.0);
    EXPECT_EQ(mon.TriggerCount(), 0);
}

TEST(RetrainMonitor, PeriodicTriggerFires)
{
    RetrainMonitorConfig cfg;
    cfg.periodic_intervals = 30;
    cfg.cooldown = 5;
    RetrainMonitor mon(cfg, 10.0);
    int fires = 0;
    for (int i = 0; i < 95; ++i)
        fires += mon.Observe(100.0, 100.0);
    EXPECT_EQ(fires, 3); // at intervals 30, 60, 90
}

TEST(RetrainMonitor, OnRetrainedResetsWindow)
{
    RetrainMonitorConfig cfg;
    cfg.min_observations = 5;
    RetrainMonitor mon(cfg, 10.0);
    for (int i = 0; i < 10; ++i)
        mon.Observe(0.0, 300.0);
    EXPECT_GT(mon.RollingRmseMs(), 100.0);
    mon.OnRetrained(15.0);
    EXPECT_DOUBLE_EQ(mon.RollingRmseMs(), 0.0);
}

} // namespace
} // namespace sinan
