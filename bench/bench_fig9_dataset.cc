/**
 * @file
 * Reproduces Figure 9: (left) the latency distribution of the
 * bandit-collected Social Network training dataset — an approximately
 * balanced spread across the sub-QoS and violation regions; (right) the
 * CNN's train/validation RMSE and the BT's error rate as a function of
 * the maximum latency admitted into the training set. Training only on
 * low-latency samples (no violations) causes severe overfitting:
 * validation error explodes while training error stays flat.
 */
#include <cstdio>

#include "bench_util.h"
#include "collect/bandit.h"
#include "collect/collector.h"
#include "common/table.h"
#include "models/hybrid.h"

namespace sinan {
namespace {

/** Fraction of the dataset's samples with next-interval p99 <= cutoff. */
double
CdfAt(const Dataset& d, double cutoff_ms)
{
    size_t n = 0;
    for (const Sample& s : d.samples)
        n += s.p99_ms <= cutoff_ms;
    return static_cast<double>(n) /
           static_cast<double>(d.samples.size());
}

} // namespace
} // namespace sinan

int
main()
{
    using namespace sinan;
    bench::PrintHeader(
        "Figure 9 — training-set distribution & latency-range ablation",
        "Fig. 9: dataset latency CDF; train/val error vs latency cutoff");

    const Application app = BuildSocialNetwork();
    const PipelineConfig pcfg = bench::SocialPipeline();
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
    std::printf("collecting dataset with the bandit explorer...\n");
    const Dataset all = Collect(app, bandit, col);
    Rng rng(pcfg.seed ^ 0x5eed);
    const auto [train_full, valid] = all.Split(0.9, rng);

    // Left panel: CDF of next-interval p99 in the training data.
    std::printf("\nDataset latency CDF (%zu samples, violation-label rate "
                "%.2f):\n",
                all.samples.size(), all.ViolationRate());
    TextTable cdf({"latency(ms)", "CDF(%)"});
    for (double cut = 100.0; cut <= 1000.0 + 1e-9; cut += 100.0)
        cdf.Row().Add(cut, 0).Add(100.0 * CdfAt(all, cut), 1);
    std::printf("%s", cdf.RenderCsv().c_str());

    // Right panel: train/val error vs admitted latency range. The model
    // is trained only on samples whose target p99 is below the cutoff;
    // validation always uses the full distribution.
    std::printf("\ntraining with latency-capped subsets (validation on "
                "the full range):\n");
    TextTable t({"cutoff(ms)", "#train", "CNN train RMSE(ms)",
                 "CNN val RMSE(ms)", "BT train err(%)", "BT val err(%)"});
    HybridConfig hcfg = pcfg.hybrid;
    hcfg.train.epochs = std::max(4, hcfg.train.epochs / 2);
    for (double cutoff : {200.0, 400.0, 500.0, 700.0, 1000.0}) {
        Dataset capped;
        for (const Sample& s : train_full.samples) {
            if (s.p99_ms <= cutoff)
                capped.samples.push_back(s);
        }
        if (capped.samples.size() < 100)
            continue;
        HybridModel model(f, hcfg, 31);
        const HybridReport rep = model.Train(capped, valid);
        t.Row()
            .Add(cutoff, 0)
            .Add(static_cast<long long>(capped.samples.size()))
            .Add(rep.cnn.train_rmse_ms, 1)
            .Add(rep.cnn.val_rmse_ms, 1)
            .Add(100.0 * (1.0 - rep.bt_train_accuracy), 1)
            .Add(100.0 * (1.0 - rep.bt_val_accuracy), 1);
        std::printf("  cutoff %.0f ms done\n", cutoff);
    }
    std::printf("\n%s", t.Render().c_str());
    std::printf("\nExpected shape: validation error falls sharply once "
                "the training range covers QoS violations (>%.0f ms); "
                "below it the models overfit.\n", app.qos_ms);
    return 0;
}
