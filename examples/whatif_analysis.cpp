/**
 * @file
 * What-if analysis: after training Sinan on the Social Network, freeze
 * a live system state and ask the hybrid model how the predicted tail
 * latency and violation risk respond to one tier's allocation — the
 * interactive counterpart of the paper's explainability workflow, and a
 * practical way for an operator to size a tier before changing it.
 */
#include <cstdio>

#include "app/apps.h"
#include "explain/whatif.h"
#include "harness/harness.h"
#include "sim/simulator.h"
#include "workload/workload.h"

int
main()
{
    using namespace sinan;

    const Application app = BuildSocialNetwork();
    std::printf("== training Sinan on %s ==\n", app.name.c_str());
    PipelineConfig pcfg;
    pcfg.collect_s = 800.0;
    pcfg.hybrid = DefaultHybridConfig();
    pcfg.hybrid.train.epochs = 8;
    pcfg.seed = 23;
    const TrainedSinan trained = TrainSinanForApp(app, pcfg);
    std::printf("CNN val RMSE %.1f ms\n\n",
                trained.report.cnn.val_rmse_ms);

    // Drive the cluster to a steady state at 250 users and freeze it.
    Cluster cluster(app, ClusterConfig{}, 3);
    ConstantLoad load(250.0);
    WorkloadGenerator gen(cluster, load, 7);
    Simulator sim(SimConfig(), gen, cluster);
    MetricWindow window(trained.features);
    for (int i = 0; i < 30; ++i)
        window.Push(sim.RunInterval());

    const std::vector<double> alloc = cluster.Allocation();
    std::printf("frozen state: 250 users, %.1f total cores\n\n",
                [&] {
                    double t = 0;
                    for (double a : alloc)
                        t += a;
                    return t;
                }());

    // Sweep the ML filter tier — the expensive one — and a cache tier.
    for (const char* name : {"mediaFilter", "postStore-memc"}) {
        const int tier = app.TierIndex(name);
        const WhatIfCurve curve = SweepTierAllocation(
            *trained.model, window, alloc, tier,
            app.tiers[tier].min_cpu, app.tiers[tier].max_cpu, 8);
        std::printf("what-if: %s (currently %.1f cores)\n", name,
                    alloc[tier]);
        std::printf("  %8s %12s %10s\n", "cores", "pred p99(ms)",
                    "P(viol)");
        for (const WhatIfPoint& p : curve.points) {
            std::printf("  %8.2f %12.1f %10.3f\n", p.cpu,
                        p.predicted_p99_ms, p.p_violation);
        }
        const double safe = curve.MinSafeCpu(app.qos_ms, 0.15);
        if (safe >= 0.0) {
            std::printf("  -> smallest safe allocation: %.2f cores\n\n",
                        safe);
        } else {
            std::printf("  -> no safe allocation in range (other tiers "
                        "are the bottleneck)\n\n");
        }
    }
    return 0;
}
