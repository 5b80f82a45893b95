/**
 * @file
 * Reproduces Figure 15: the distribution of per-interval p99 end-to-end
 * latency for the four Social Network request mixes W0..W3 on the
 * GCE-scale deployment, managed by Sinan. The paper shows violin plots;
 * we report the distribution summary (min / p25 / p50 / p75 / p95 / max)
 * pooled over the user sweep.
 *
 * Expected shape: all mixes stay below the 500 ms QoS; compose-heavy W1
 * has the widest, highest distribution.
 */
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/scheduler.h"

int
main()
{
    using namespace sinan;
    bench::PrintHeader(
        "Figure 15 — Sinan on GCE: p99 latency distribution per mix",
        "Fig. 15: 99th-percentile latency distributions, W0..W3");

    Application app = BuildSocialNetwork();
    ClusterConfig gce;
    gce.speed_factor = 0.85;
    gce.replica_scale = 2;
    TrainedSinan trained = bench::GceFineTunedSinan(app, gce);

    const auto mixes = SocialNetworkMixes();
    TextTable t({"mix", "min", "p25", "p50", "p75", "p95", "max",
                 "P(meet QoS)"});
    for (size_t w = 0; w < mixes.size(); ++w) {
        SetRequestMix(app, mixes[w]);
        std::vector<double> pooled;
        size_t met = 0;
        for (double users : bench::SocialLoads()) {
            SinanScheduler sinan(*trained.model, SchedulerConfig{});
            ConstantLoad load(users);
            RunConfig cfg;
            cfg.duration_s = bench::RunSeconds(80.0);
            cfg.warmup_s = 20.0;
            cfg.cluster = gce;
            cfg.seed = 60 + static_cast<uint64_t>(w);
            const RunResult r = RunManaged(app, sinan, load, cfg);
            for (const IntervalRecord& rec : r.timeline) {
                if (rec.time_s <= cfg.warmup_s)
                    continue;
                pooled.push_back(rec.p99_ms);
                met += rec.p99_ms <= app.qos_ms;
            }
            std::printf("  W%zu users=%3.0f done (P(meet)=%.2f)\n", w,
                        users, r.qos_meet_prob);
        }
        t.Row()
            .Add("W" + std::to_string(w))
            .Add(VectorQuantile(pooled, 0.0), 1)
            .Add(VectorQuantile(pooled, 0.25), 1)
            .Add(VectorQuantile(pooled, 0.5), 1)
            .Add(VectorQuantile(pooled, 0.75), 1)
            .Add(VectorQuantile(pooled, 0.95), 1)
            .Add(VectorQuantile(pooled, 1.0), 1)
            .Add(static_cast<double>(met) /
                     static_cast<double>(pooled.size()), 3);
    }
    std::printf("\nper-interval p99 latency distribution (ms), pooled "
                "over 50..450 users:\n%s",
                t.Render().c_str());
    return 0;
}
