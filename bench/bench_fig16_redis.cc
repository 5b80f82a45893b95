/**
 * @file
 * Reproduces Figure 16: the Social Network's tail latency with the
 * social-graph Redis minutely log synchronization enabled (periodic
 * fork-and-copy stalls cause latency spikes) versus disabled.
 *
 * Expected shape: with sync enabled, p99 spikes every ~60 s; disabling
 * it removes the spikes (paper Sec. 5.6.2 — the fix Sinan's explainable
 * models pointed to).
 */
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace sinan {
namespace {

std::vector<std::pair<double, double>>
RunTrace(bool sync_enabled, double duration_s)
{
    SocialOptions opts;
    opts.redis_log_sync = sync_enabled;
    Application app = BuildSocialNetwork(opts);
    Cluster cluster(app, ClusterConfig(), 9);
    // Fixed generous allocation at low load, as in the paper's figure
    // (the spikes are unrelated to resource pressure).
    std::vector<double> alloc;
    for (const TierSpec& t : app.tiers)
        alloc.push_back(std::min(t.max_cpu, t.init_cpu * 2.0));
    cluster.SetAllocation(alloc);
    ConstantLoad load(150.0);
    WorkloadGenerator gen(cluster, load, 77);
    Simulator sim(SimConfig(), gen, cluster);
    std::vector<std::pair<double, double>> series;
    const int64_t intervals = sim.IntervalsIn(duration_s);
    for (int64_t i = 0; i < intervals; ++i) {
        const double p99 = sim.RunInterval().P99();
        series.emplace_back(sim.Now(), p99);
    }
    return series;
}

} // namespace
} // namespace sinan

int
main()
{
    using namespace sinan;
    bench::PrintHeader(
        "Figure 16 — Redis log synchronization latency spikes",
        "Fig. 16: Social Network p99 with Redis logging on vs off");

    const double duration = bench::FastMode() ? 200.0 : 400.0;
    const auto with_sync = RunTrace(true, duration);
    const auto without = RunTrace(false, duration);

    TextTable t({"t(s)", "sync on p99(ms)", "sync off p99(ms)"});
    for (size_t i = 0; i < with_sync.size(); i += 10) {
        t.Row()
            .Add(with_sync[i].first, 0)
            .Add(with_sync[i].second, 1)
            .Add(without[i].second, 1);
    }
    std::printf("%s", t.Render().c_str());

    auto spike_stats = [](const std::vector<std::pair<double, double>>& s,
                          const char* name) {
        int spikes = 0;
        double max_p99 = 0.0, mean = 0.0;
        for (const auto& [time, p99] : s) {
            spikes += p99 > 500.0;
            max_p99 = std::max(max_p99, p99);
            mean += p99;
        }
        std::printf("%-9s: %3d intervals above QoS, max p99 %.0f ms, "
                    "mean p99 %.0f ms\n",
                    name, spikes, max_p99,
                    mean / static_cast<double>(s.size()));
    };
    std::printf("\n");
    spike_stats(with_sync, "sync on");
    spike_stats(without, "sync off");
    return 0;
}
