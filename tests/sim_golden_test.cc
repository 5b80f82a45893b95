/**
 * @file
 * Golden-file pin of the simulator's output bytes. Every other
 * determinism test compares two runs of the same build; these compare a
 * run against bytes committed to tests/golden/, so a change to the
 * cluster tick, the stage lifecycle, the demand draws or the fault
 * hooks that moves even one simulated value fails here.
 *
 * Three cases:
 *  - solo hotel and social clusters under Poisson traffic, with traced
 *    requests and a mid-run allocation squeeze that builds a backlog:
 *    every Harvest observation plus every TakeTraces span, printed at
 *    round-trip precision;
 *  - a social cluster whose graph-redis tier log-syncs every 2 s;
 *  - an 8-shard mixed hotel/social fleet of baseline managers with
 *    stall, caploss, drop and flash faults: FleetTraceToCsv and the
 *    timing-free FleetSummaryToJson.
 *
 * Regenerate after an intentional simulator change with:
 *   SINAN_REGEN_GOLDEN=1 ./tests/sim_golden_test
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "app/apps.h"
#include "cluster/cluster.h"
#include "fleet/fleet.h"
#include "fleet/fleet_log.h"
#include "golden_util.h"
#include "workload/workload.h"

namespace sinan {
namespace {

using testutil::CheckGolden;

/** Appends @p v at round-trip precision. */
void
Put(std::string& out, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

void
AppendObservation(std::string& out, int64_t interval,
                  const IntervalObservation& obs)
{
    out += "interval " + std::to_string(interval) + " time ";
    Put(out, obs.time_s);
    out += " rps ";
    Put(out, obs.rps);
    out += " completed_rps ";
    Put(out, obs.completed_rps);
    out += " latency_ms";
    for (const double v : obs.latency_ms) {
        out += ' ';
        Put(out, v);
    }
    out += '\n';
    for (size_t t = 0; t < obs.tiers.size(); ++t) {
        const TierMetrics& m = obs.tiers[t];
        out += "  tier " + std::to_string(t);
        for (const double v :
             {m.cpu_limit, m.cpu_used, m.rss_mb, m.cache_mb, m.rx_pps,
              m.tx_pps, m.queue_len, m.active, m.queue_wait_s}) {
            out += ' ';
            Put(out, v);
        }
        out += '\n';
    }
}

void
AppendTraces(std::string& out, const std::vector<Trace>& traces)
{
    for (const Trace& tr : traces) {
        out += "  trace " + std::to_string(tr.trace_id) + " type " +
               std::to_string(tr.request_type) + " begin ";
        Put(out, tr.begin_s);
        out += " end ";
        Put(out, tr.end_s);
        out += '\n';
        for (const Span& s : tr.spans) {
            out += "    span " + std::to_string(s.span_id) + " parent " +
                   std::to_string(s.parent_span) + " tier " +
                   std::to_string(s.tier) + (s.async ? " async " : " sync ");
            Put(out, s.enqueue_s);
            out += ' ';
            Put(out, s.start_s);
            out += ' ';
            Put(out, s.end_s);
            out += '\n';
        }
    }
}

/**
 * Drives one cluster under constant Poisson load for @p intervals
 * one-second intervals (10 ms ticks, arrivals before the cluster tick,
 * as the harness orders them) and renders everything it reports. From
 * interval 2 to 4 the first @p squeeze tiers run at their minimum CPU
 * limit, so queues, full slot sets and multi-round sharing all occur.
 */
std::string
RunSolo(const Application& app, const ClusterConfig& cfg, double users,
        uint64_t seed, int intervals, int squeeze)
{
    Cluster cluster(app, cfg, seed);
    const ConstantLoad load(users);
    WorkloadGenerator workload(cluster, load, seed + 1);
    const std::vector<double> initial = cluster.Allocation();
    const double dt = 0.01;
    const int ticks_per_interval = 100;
    int64_t tick = 0;
    std::string out;
    for (int i = 0; i < intervals; ++i) {
        if (i == 2) {
            for (int t = 0; t < squeeze; ++t)
                cluster.SetCpuLimit(t, 0.0);
        } else if (i == 5) {
            cluster.SetAllocation(initial);
        }
        for (int k = 0; k < ticks_per_interval; ++k, ++tick) {
            const double now = static_cast<double>(tick) * dt;
            workload.Tick(now, dt);
            cluster.Tick(now, dt);
        }
        const double end = static_cast<double>(tick) * dt;
        AppendObservation(out, i, cluster.Harvest(end, 1.0));
        AppendTraces(out, cluster.TakeTraces());
        out += "in_flight " + std::to_string(cluster.InFlight()) + '\n';
    }
    return out;
}

TEST(SimGoldenTest, HotelSoloObservationsAndTraces)
{
    ClusterConfig cfg;
    cfg.trace_sample = 0.01;
    CheckGolden("sim_hotel_solo.txt",
                RunSolo(BuildHotelReservation(), cfg, 1200.0, 7, 8, 4));
}

TEST(SimGoldenTest, SocialSoloObservationsAndTraces)
{
    ClusterConfig cfg;
    cfg.trace_sample = 0.02;
    CheckGolden("sim_social_solo.txt",
                RunSolo(BuildSocialNetwork(), cfg, 300.0, 11, 8, 6));
}

TEST(SimGoldenTest, SocialLogSyncTier)
{
    SocialOptions opts;
    opts.redis_log_sync = true;
    Application app = BuildSocialNetwork(opts);
    app.tiers[app.TierIndex("graph-redis")].log_sync_period_s = 2.0;
    CheckGolden("sim_social_log_sync.txt",
                RunSolo(app, ClusterConfig{}, 250.0, 13, 7, 0));
}

TEST(SimGoldenTest, MixedFleetWithFaults)
{
    FleetConfig cfg;
    cfg.n_clusters = 8;
    cfg.default_manager = "cons";
    cfg.duration_s = 14.0;
    cfg.warmup_s = 3.0;
    cfg.seed = 5;
    cfg.overrides.push_back(ParseShardOverride(
        "1:manager=powerchief,faults=stall@3+2:tier=1"));
    cfg.overrides.push_back(
        ParseShardOverride("2:faults=caploss@2+4:tier=3,mag=0.5"));
    cfg.overrides.push_back(
        ParseShardOverride("3:manager=hold,faults=drop@4+2"));
    cfg.overrides.push_back(
        ParseShardOverride("4:faults=flash@5+3:mag=2.5"));
    cfg.overrides.push_back(ParseShardOverride(
        "6:manager=opt,faults=stall@6:tier=0;caploss@8+3:tiers=1-3,"
        "jitter=1,mag=0.6"));
    const Application hotel = BuildHotelReservation();
    const Application social = BuildSocialNetwork();
    FleetApps apps;
    apps.hotel = &hotel;
    apps.social = &social;
    const FleetResult result = RunFleet(cfg, FleetModels{}, apps);
    CheckGolden("sim_fleet_trace.csv", FleetTraceToCsv(result));
    CheckGolden("sim_fleet_summary.json",
                FleetSummaryToJson(result, /*include_timing=*/false));
}

} // namespace
} // namespace sinan
