/**
 * @file
 * Reproduces Table 2: validation RMSE, model size, and train/inference
 * speed of the MLP, LSTM, and CNN short-term latency predictors, on the
 * bandit-collected datasets of both applications.
 *
 * Expected shape (paper): the CNN achieves the lowest RMSE with the
 * smallest model; the MLP is largest and least accurate; all inference
 * latencies are far below the 1 s decision interval.
 */
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "collect/bandit.h"
#include "collect/collector.h"
#include "common/table.h"
#include "models/baseline_nets.h"
#include "models/sinan_cnn.h"
#include "models/trainer.h"

namespace sinan {
namespace {

void
RunApp(const Application& app, const PipelineConfig& pcfg)
{
    std::printf("\n--- %s (QoS %.0f ms) ---\n", app.name.c_str(),
                app.qos_ms);

    const FeatureConfig f = AppFeatures(app, pcfg);

    CollectionConfig col;
    col.duration_s = pcfg.collect_s;
    col.users_min = pcfg.users_min;
    col.users_max = pcfg.users_max;
    col.features = f;
    col.seed = pcfg.seed;

    BanditConfig bcfg;
    bcfg.qos_ms = app.qos_ms;
    BanditExplorer bandit(bcfg);
    const Dataset all = Collect(app, bandit, col);
    Rng rng(pcfg.seed ^ 0x5eed);
    const auto [train, valid] = all.Split(0.9, rng);
    std::printf("dataset: %zu train / %zu val samples, violation rate "
                "%.2f\n",
                train.samples.size(), valid.samples.size(),
                all.ViolationRate());

    TextTable t({"model", "train RMSE(ms)", "val RMSE(ms)", "size(KB)",
                 "train ms/batch", "infer ms/batch"});
    for (const char* name : {"MLP", "LSTM", "CNN"}) {
        std::unique_ptr<LatencyModel> model;
        const std::string n = name;
        if (n == "CNN") {
            model = std::make_unique<SinanCnn>(f, SinanCnnConfig{},
                                               pcfg.seed ^ 1);
        } else if (n == "MLP") {
            // Sized like the paper's: widest flattened-input network.
            model = std::make_unique<MlpPredictor>(f, 160, 64,
                                                   pcfg.seed ^ 2);
        } else {
            model = std::make_unique<LstmPredictor>(f, 72,
                                                    pcfg.seed ^ 3);
        }
        TrainOptions opts = pcfg.hybrid.train;
        // Per the paper, learning rates are tuned per architecture.
        if (n == "MLP")
            opts.lr = 0.01;
        if (n == "LSTM")
            opts.lr = 0.015;
        const TrainReport rep =
            TrainLatencyModel(*model, train, valid, f, opts);
        t.Row()
            .Add(name)
            .Add(rep.train_rmse_ms, 1)
            .Add(rep.val_rmse_ms, 1)
            .Add(static_cast<double>(rep.n_params) * 4.0 / 1024.0, 0)
            .Add(rep.train_ms_per_batch, 2)
            .Add(rep.infer_ms_per_batch, 2);
    }
    std::printf("%s", t.Render().c_str());
}

} // namespace
} // namespace sinan

int
main()
{
    using namespace sinan;
    bench::PrintHeader(
        "Table 2 — short-term latency predictor comparison",
        "Table 2: RMSE / model size / speed of MLP, LSTM, CNN");
    RunApp(BuildHotelReservation(), bench::HotelPipeline());
    RunApp(BuildSocialNetwork(), bench::SocialPipeline());
    return 0;
}
