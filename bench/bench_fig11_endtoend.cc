/**
 * @file
 * Reproduces Figure 11: mean and max aggregate CPU allocation and the
 * probability of meeting QoS for Sinan, AutoScaleOpt, AutoScaleCons,
 * and PowerChief, across the load sweep of both applications.
 *
 * Expected shape (paper Sec. 5.3): only Sinan and AutoScaleCons meet QoS
 * across all loads; Sinan uses substantially less CPU than
 * AutoScaleCons (paper: -25.9% avg hotel, -59.0% avg social);
 * AutoScaleOpt and PowerChief start violating QoS as load grows.
 */
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "fleet/fleet.h"
#include "harness/telemetry_log.h"

namespace sinan {
namespace {

using bench::RunSeconds;

/** A manager column of the figure: display name and fleet manager. */
struct Column {
    const char* name;
    const char* manager;
};

/** One sweep point: emulated users and a fault spec ("" = none). */
using Point = std::pair<double, std::string>;

/** Results per column display name, each ordered like the points. */
using ByManager = std::map<std::string, std::vector<FleetClusterResult>>;

/**
 * Runs every (column, point) pair as one shard of a single fleet of
 * @p app (fleet app kind @p kind, "hotel" or "social"). Every shard
 * runs seed 7, and the fleet guarantees each shard's result is the
 * same configuration's solo run at any thread count (SINAN_THREADS).
 * @p uncertainty switches the fleet's Sinan shards to the graded-
 * confidence policy.
 */
ByManager
RunOnFleet(const Application& app, const std::string& kind,
           const HybridModel& model, const std::vector<Column>& columns,
           const std::vector<Point>& points, double duration_s,
           double warmup_s, bool uncertainty = false)
{
    FleetConfig cfg;
    cfg.n_clusters = static_cast<int>(columns.size() * points.size());
    cfg.default_app = kind;
    cfg.duration_s = duration_s;
    cfg.warmup_s = warmup_s;
    cfg.scheduler.uncertainty.enabled = uncertainty;
    for (const Column& col : columns) {
        for (const auto& [users, faults] : points) {
            ShardOverride ov;
            ov.index = static_cast<int>(cfg.overrides.size());
            ov.manager = col.manager;
            ov.users = users;
            ov.seed = 7;
            ov.faults_set = !faults.empty();
            ov.faults = faults;
            cfg.overrides.push_back(std::move(ov));
        }
    }
    FleetApps apps;
    FleetModels models;
    if (kind == "hotel") {
        apps.hotel = &app;
        models.hotel = &model;
    } else {
        apps.social = &app;
        models.social = &model;
    }
    FleetResult fleet = RunFleet(cfg, models, apps);

    ByManager out;
    size_t k = 0;
    for (const Column& col : columns)
        for (size_t i = 0; i < points.size(); ++i)
            out[col.name].push_back(std::move(fleet.clusters[k++]));
    return out;
}

/** Runs the four-manager load sweep and prints one line per manager
 *  and load. */
ByManager
SweepLoads(const Application& app, const std::string& kind,
           const HybridModel& model, const std::vector<double>& loads)
{
    const std::vector<Column> columns = {{"Sinan", "sinan"},
                                         {"AutoScaleOpt", "opt"},
                                         {"AutoScaleCons", "cons"},
                                         {"PowerChief", "powerchief"}};
    std::vector<Point> points;
    for (double users : loads)
        points.emplace_back(users, "");
    ByManager sweep = RunOnFleet(app, kind, model, columns, points,
                                 RunSeconds(100.0), 20.0);
    for (const Column& col : columns) {
        for (size_t i = 0; i < loads.size(); ++i) {
            const RunResult& r = sweep.at(col.name)[i].result;
            std::printf("  %-14s users=%5.0f  meanCPU=%7.1f  "
                        "maxCPU=%7.1f  P(meet QoS)=%.3f\n",
                        col.name, loads[i], r.mean_cpu, r.max_cpu,
                        r.qos_meet_prob);
        }
    }
    return sweep;
}

void
PrintTables(const Application& app, const std::vector<double>& loads,
            const ByManager& sweep)
{
    std::vector<std::string> headers = {"manager"};
    for (double u : loads)
        headers.push_back(FormatDouble(u, 0));

    auto emit = [&](const char* title, auto getter) {
        std::printf("\n%s — %s\n", app.name.c_str(), title);
        TextTable t(headers);
        for (const auto& [name, results] : sweep) {
            t.Row().Add(name);
            for (const FleetClusterResult& c : results)
                t.Add(getter(c.result), 2);
        }
        std::printf("%s", t.Render().c_str());
    };
    emit("mean CPU allocation (cores)",
         [](const RunResult& r) { return r.mean_cpu; });
    emit("max CPU allocation (cores)",
         [](const RunResult& r) { return r.max_cpu; });
    emit("P(meet QoS)",
         [](const RunResult& r) { return r.qos_meet_prob; });

    // Decision telemetry from the per-run metric registries; only
    // Sinan's scheduler emits it, so the table is Sinan-only.
    {
        std::printf("\n%s — Sinan decision telemetry (per load)\n",
                    app.name.c_str());
        std::vector<std::string> tel_headers = headers;
        tel_headers[0] = "metric";
        TextTable t(tel_headers);
        const auto& sinan_runs = sweep.at("Sinan");
        auto emit_tel = [&](const char* name, auto getter) {
            t.Row().Add(std::string(name));
            for (const FleetClusterResult& c : sinan_runs)
                t.Add(getter(SummarizeTelemetry(c.result.metrics)), 3);
        };
        emit_tel("prediction accuracy", [](const TelemetrySummary& s) {
            return s.PredictionAccuracy();
        });
        emit_tel("fallback rate", [](const TelemetrySummary& s) {
            return s.FallbackRate();
        });
        emit_tel("escalations", [](const TelemetrySummary& s) {
            return static_cast<double>(s.escalations);
        });
        std::printf("%s", t.Render().c_str());
    }

    // Headline claim: Sinan's CPU savings vs the other QoS-meeting
    // manager (AutoScaleCons), over loads where both meet QoS >= 95%.
    const auto& sinan_r = sweep.at("Sinan");
    const auto& cons_r = sweep.at("AutoScaleCons");
    double sum_save = 0.0, max_save = 0.0;
    int n = 0;
    for (size_t i = 0; i < loads.size(); ++i) {
        const RunResult& s = sinan_r[i].result;
        const RunResult& c = cons_r[i].result;
        if (s.qos_meet_prob < 0.95 || c.qos_meet_prob < 0.95)
            continue;
        const double save = 1.0 - s.mean_cpu / c.mean_cpu;
        sum_save += save;
        max_save = std::max(max_save, save);
        ++n;
    }
    if (n) {
        std::printf("\nSinan CPU savings vs AutoScaleCons (QoS-meeting "
                    "loads): avg %.1f%%, max %.1f%%\n",
                    100.0 * sum_save / n, 100.0 * max_save);
    }
}

/**
 * Fault-scenario columns: Sinan, Sinan-U (same model with the
 * uncertainty-aware decision policy enabled, run as a second fleet),
 * and AutoScaleCons run once per named chaos scenario at a mid-range
 * load. Reported per scenario: P(meet QoS), mean CPU, how many
 * decisions ran degraded / on the graded-confidence path, watchdog
 * upscales, and the recovery time (intervals past the last fault until
 * p99 is back under QoS; 0 = immediate).
 */
void
PrintChaosTable(const Application& app, const std::string& kind,
                const HybridModel& model, double users)
{
    std::printf("\n%s — resilience under chaos scenarios "
                "(users=%.0f)\n", app.name.c_str(), users);
    const std::vector<ChaosScenario>& scenarios = ChaosScenarios();
    std::vector<Point> points;
    for (const ChaosScenario& sc : scenarios)
        points.emplace_back(users, sc.spec);
    ByManager by_manager =
        RunOnFleet(app, kind, model,
                   {{"Sinan", "sinan"}, {"AutoScaleCons", "cons"}},
                   points, RunSeconds(60.0), 5.0);
    by_manager.merge(RunOnFleet(app, kind, model, {{"Sinan-U", "sinan"}},
                                points, RunSeconds(60.0), 5.0,
                                /*uncertainty=*/true));

    TextTable t({"scenario", "manager", "P(meetQoS)", "meanCPU",
                 "degraded", "uncertain", "watchdog", "recovery"});
    for (size_t i = 0; i < scenarios.size(); ++i) {
        for (const auto& [name, results] : by_manager) {
            const RunResult& r = results[i].result;
            const TelemetrySummary s = SummarizeTelemetry(r.metrics);
            const int rec = results[i].recovery_intervals;
            t.Row()
                .Add(scenarios[i].name)
                .Add(name)
                .Add(r.qos_meet_prob, 3)
                .Add(r.mean_cpu, 1)
                .Add(static_cast<double>(s.degraded), 0)
                .Add(static_cast<double>(s.uncertain), 0)
                .Add(static_cast<double>(s.watchdog_upscales), 0)
                .Add(rec < 0 ? std::string("never")
                             : std::to_string(rec) + " iv");
        }
    }
    std::printf("%s", t.Render().c_str());
}

} // namespace
} // namespace sinan

int
main()
{
    using namespace sinan;
    bench::PrintHeader("Figure 11 — end-to-end manager comparison",
                       "Fig. 11 (a) Hotel Reservation, (b) Social "
                       "Network: mean/max CPU allocation and P(meet QoS)");

    {
        const Application app = BuildHotelReservation();
        std::printf("[hotel] training Sinan (bandit collection + hybrid "
                    "model)...\n");
        TrainedSinan trained =
            bench::GetTrainedSinan(app, bench::HotelPipeline(), "hotel");
        std::printf("[hotel] CNN val RMSE: %.1f ms\n",
                    trained.model->ValRmseMs());
        const auto loads = bench::HotelLoads();
        const auto sweep = SweepLoads(app, "hotel", *trained.model, loads);
        PrintTables(app, loads, sweep);
    }
    {
        const Application app = BuildSocialNetwork();
        std::printf("\n[social] training Sinan...\n");
        TrainedSinan trained = bench::GetTrainedSinan(
            app, bench::SocialPipeline(), "social");
        std::printf("[social] CNN val RMSE: %.1f ms\n",
                    trained.model->ValRmseMs());
        const auto loads = bench::SocialLoads();
        const auto sweep =
            SweepLoads(app, "social", *trained.model, loads);
        PrintTables(app, loads, sweep);
        // Mid-range load: heavy enough that blind intervals cost real
        // QoS, so the graded-confidence policy separates from the
        // binary ladder on the correlated scenarios.
        PrintChaosTable(app, "social", *trained.model, 250.0);
    }
    return 0;
}
