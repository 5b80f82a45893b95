/**
 * @file
 * Reproduces Figure 13: incremental retraining. A hybrid model trained
 * on the "local cluster" Social Network is fine-tuned (low learning
 * rate, weights preserved) for three deployment changes:
 *   1. platform migration (GCE: slower cores, more replicas),
 *   2. a different replica scale-out factor, and
 *   3. an application change (AES-encrypted posts).
 * For growing amounts of newly collected data we report train/val RMSE;
 * the zero-sample row is the original model applied directly.
 */
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "collect/bandit.h"
#include "collect/collector.h"
#include "common/table.h"

namespace sinan {
namespace {

struct Scenario {
    const char* name;
    Application app;
    ClusterConfig cluster;
};

Dataset
CollectScenario(const Scenario& sc, const FeatureConfig& f,
                double duration_s, uint64_t seed)
{
    CollectionConfig col;
    col.duration_s = duration_s;
    col.users_min = 50;
    col.users_max = 450;
    col.features = f;
    col.cluster = sc.cluster;
    col.seed = seed;
    BanditConfig bcfg;
    bcfg.qos_ms = f.qos_ms;
    bcfg.seed = seed ^ 0x77;
    BanditExplorer bandit(bcfg);
    return Collect(sc.app, bandit, col);
}

} // namespace
} // namespace sinan

int
main()
{
    using namespace sinan;
    bench::PrintHeader(
        "Figure 13 — incremental retraining across deployment changes",
        "Fig. 13: fine-tuned CNN RMSE vs newly collected samples "
        "(GCE / replicas / modified app)");

    const Application base_app = BuildSocialNetwork();
    const PipelineConfig pcfg = bench::SocialPipeline();
    std::printf("training the base (local-cluster) model...\n");
    TrainedSinan base =
        bench::GetTrainedSinan(base_app, pcfg, "social");
    std::printf("base model val RMSE: %.1f ms\n",
                base.model->ValRmseMs());

    const FeatureConfig f = AppFeatures(base_app, pcfg);

    ClusterConfig gce;
    gce.speed_factor = 0.85;
    gce.replica_scale = 2;
    ClusterConfig replicas;
    replicas.replica_scale = 3;
    SocialOptions aes_opts;
    aes_opts.aes_encryption = true;

    std::vector<Scenario> scenarios = {
        {"GCE platform", base_app, gce},
        {"replica scale-out", base_app, replicas},
        {"AES-modified app", BuildSocialNetwork(aes_opts),
         ClusterConfig{}},
    };

    // Fine-tuning uses a much smaller learning rate, as in Sec. 5.4
    // ("1/100 of the original lambda"), to stay near the local optimum.
    TrainOptions ft = pcfg.hybrid.train;
    ft.lr = pcfg.hybrid.train.lr / 100.0;
    ft.epochs = std::max(6, pcfg.hybrid.train.epochs);

    const std::vector<double> budgets_s =
        bench::FastMode() ? std::vector<double>{200.0, 400.0}
                          : std::vector<double>{250.0, 500.0, 1000.0,
                                                2000.0};

    for (const Scenario& sc : scenarios) {
        std::printf("\n--- scenario: %s ---\n", sc.name);
        // A fixed validation set from the new environment.
        const Dataset val_all = CollectScenario(sc, f, 400.0, 900);
        Rng vrng(901);
        const auto [unused, val] = val_all.Split(0.5, vrng);
        (void)unused;

        TextTable t({"new samples", "train RMSE(ms)", "val RMSE(ms)"});
        // Zero new samples: the original model evaluated directly.
        {
            const double rmse =
                EvalRmseMs(base.model->Cnn(), val, f);
            t.Row().Add(static_cast<long long>(0)).Add("-").Add(rmse, 1);
        }
        for (double budget : budgets_s) {
            const Dataset fresh =
                CollectScenario(sc, f, budget, 1000 + (uint64_t)budget);
            // Restart from the base model each time (paper: fine-tune
            // the original weights with the newly collected data).
            const std::unique_ptr<HybridModel> tuned = base.model->Clone();
            Rng srng(7);
            const auto [ft_train, ft_val] = fresh.Split(0.9, srng);
            (void)ft_val;
            const HybridReport rep = tuned->FineTune(ft_train, val, ft);
            t.Row()
                .Add(static_cast<long long>(ft_train.samples.size()))
                .Add(rep.cnn.train_rmse_ms, 1)
                .Add(rep.cnn.val_rmse_ms, 1);
            std::printf("  %4.0f s of new data done\n", budget);
        }
        std::printf("%s", t.Render().c_str());
    }
    std::printf("\nExpected shape: the zero-sample RMSE is already "
                "reasonable for the platform/replica scenarios (feature "
                "generalizability), highest for the modified app, and "
                "fine-tuning converges with a fraction of the original "
                "16 h collection.\n");
    return 0;
}
