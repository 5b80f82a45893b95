/**
 * @file
 * Distributed-trace attribution: sample a fraction of requests on the
 * Social Network (the simulator's Jaeger stand-in), then break the
 * end-to-end latency down by tier — which tiers hold requests longest,
 * and where the queueing (as opposed to service) time goes. This is the
 * trace-level view that complements the model-level explanations of
 * examples/explain_redis.cpp.
 */
#include <algorithm>
#include <cstdio>

#include "app/apps.h"
#include "cluster/cluster.h"
#include "cluster/tracing.h"
#include "sim/simulator.h"
#include "workload/workload.h"

int
main()
{
    using namespace sinan;

    const Application app = BuildSocialNetwork();
    ClusterConfig cfg;
    cfg.trace_sample = 0.10; // trace 10% of requests
    Cluster cluster(app, cfg, 11);

    // A deliberately tight allocation so queueing is visible.
    std::vector<double> alloc;
    for (const TierSpec& t : app.tiers)
        alloc.push_back(std::min(t.max_cpu, t.init_cpu * 1.2));
    cluster.SetAllocation(alloc);

    ConstantLoad load(250.0);
    WorkloadGenerator gen(cluster, load, 13);
    Simulator sim(SimConfig(), gen, cluster);
    std::vector<Trace> traces;
    for (int i = 0; i < 60; ++i) {
        sim.RunInterval();
        std::vector<Trace> batch = cluster.TakeTraces();
        traces.insert(traces.end(),
                      std::make_move_iterator(batch.begin()),
                      std::make_move_iterator(batch.end()));
    }

    std::printf("collected %zu traces at 250 users (10%% sampling)\n\n",
                traces.size());

    // Slowest traced request, span by span.
    const Trace* slowest = nullptr;
    for (const Trace& t : traces) {
        if (!slowest || t.LatencyMs() > slowest->LatencyMs())
            slowest = &t;
    }
    if (slowest) {
        std::printf("slowest trace: %s, %.1f ms end-to-end\n",
                    app.request_types[slowest->request_type].name.c_str(),
                    slowest->LatencyMs());
        const int hot = slowest->SlowestSyncSpan();
        for (const Span& s : slowest->spans) {
            std::printf("  %-22s %s dur=%6.1f ms wait=%5.1f ms%s\n",
                        app.tiers[s.tier].name.c_str(),
                        s.async ? "(async)" : "       ",
                        1000.0 * s.DurationS(),
                        1000.0 * s.QueueWaitS(),
                        s.span_id == slowest->spans[hot].span_id
                            ? "   <- longest sync span"
                            : "");
        }
    }

    // Aggregate attribution across all traces.
    const auto attr =
        AttributeByTier(traces, static_cast<int>(app.tiers.size()));
    std::vector<TierAttribution> ranked = attr;
    std::sort(ranked.begin(), ranked.end(),
              [](const TierAttribution& a, const TierAttribution& b) {
                  return a.sync_time_s > b.sync_time_s;
              });
    std::printf("\ntop tiers by total synchronous span time:\n");
    std::printf("  %-22s %10s %12s %8s\n", "tier", "span-s",
                "queue-wait-s", "spans");
    for (int i = 0; i < 8 && i < static_cast<int>(ranked.size()); ++i) {
        const TierAttribution& a = ranked[i];
        if (a.spans == 0)
            break;
        std::printf("  %-22s %10.2f %12.2f %8lld\n",
                    app.tiers[a.tier].name.c_str(), a.sync_time_s,
                    a.queue_wait_s, static_cast<long long>(a.spans));
    }
    return 0;
}
