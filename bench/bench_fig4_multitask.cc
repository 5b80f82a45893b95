/**
 * @file
 * Reproduces Figure 4: a multi-task NN jointly predicting next-interval
 * latency and the QoS-violation probability considerably overpredicts
 * tail latency, which the paper attributes to the semantic gap between
 * the bounded probability and the unbounded latency. Sinan's two-stage
 * CNN does not exhibit the bias.
 *
 * We train both on the same Social Network dataset and report the mean
 * signed prediction error (bias) and mean absolute error on validation
 * samples whose true latency met QoS.
 */
#include <cstdio>
#include <numeric>

#include "bench_util.h"
#include "collect/bandit.h"
#include "collect/collector.h"
#include "common/table.h"
#include "models/multitask.h"
#include "models/sinan_cnn.h"
#include "models/trainer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace sinan {
namespace {

/** Trains the multi-task net with the joint latency+violation loss. */
void
TrainMultiTask(MultiTaskNn& net, const Dataset& train,
               const TrainOptions& opts)
{
    Sgd sgd(net.Params(), opts.lr, TrainOptions::kMomentum,
            TrainOptions::kWeightDecay);
    Rng rng(TrainOptions::kSeed);
    std::vector<int> order(train.samples.size());
    std::iota(order.begin(), order.end(), 0);
    for (int epoch = 0; epoch < opts.epochs; ++epoch) {
        for (size_t i = order.size(); i > 1; --i) {
            const size_t j = rng.UniformInt(static_cast<uint64_t>(i));
            std::swap(order[i - 1], order[j]);
        }
        for (size_t begin = 0; begin < order.size();
             begin += TrainOptions::kBatchSize) {
            const size_t end = std::min(
                begin + TrainOptions::kBatchSize, order.size());
            const Batch batch = train.MakeBatch(order, begin, end);
            const Tensor lat_target =
                train.MakeLatencyTargets(order, begin, end);
            Tensor viol_target({static_cast<int>(end - begin), 1});
            for (size_t i = begin; i < end; ++i) {
                viol_target.At(static_cast<int>(i - begin), 0) =
                    train.samples[order[i]].violation;
            }
            Tensor lat_pred, viol_logit;
            net.Forward(batch, lat_pred, viol_logit);
            const LossResult lat_loss =
                ScaledMseLoss(lat_pred, lat_target, TrainOptions::kLossKnee,
                              TrainOptions::kLossAlpha, opts.loss_leak);
            LossResult viol_loss =
                BceWithLogitsLoss(viol_logit, viol_target);
            // Joint objective: the classification head's gradient is
            // weighted up, as tuning it for violation recall requires —
            // which is what interferes with the latency head.
            viol_loss.grad.Scale(3.0f);
            sgd.ZeroGrad();
            net.Backward(lat_loss.grad, viol_loss.grad);
            sgd.Step();
        }
        sgd.SetLearningRate(sgd.LearningRate() * opts.lr_decay);
    }
}

} // namespace
} // namespace sinan

int
main()
{
    using namespace sinan;
    bench::PrintHeader(
        "Figure 4 — multi-task NN latency overprediction",
        "Fig. 4: joint latency+violation model vs Sinan's two-stage CNN");

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
    std::printf("collecting dataset...\n");
    const Dataset all = Collect(app, bandit, col);
    Rng rng(pcfg.seed ^ 0x5eed);
    const auto [train, valid] = all.Split(0.9, rng);

    std::printf("training multi-task NN and CNN (%zu samples)...\n",
                train.samples.size());
    MultiTaskNn multitask(f, 7);
    // The multi-task baseline is trained the way the paper describes:
    // the pure Eq. 2 scaling (no gradient leak above the knee) jointly
    // with the violation head. The vanishing gradient above the knee is
    // exactly what lets overpredictions persist; Sinan's production CNN
    // uses the leak (see DESIGN.md item 3).
    TrainOptions mt_opts = pcfg.hybrid.train;
    mt_opts.loss_leak = 0.0;
    TrainMultiTask(multitask, train, mt_opts);

    SinanCnn cnn(f, SinanCnnConfig{}, 7);
    TrainLatencyModel(cnn, train, valid, f, pcfg.hybrid.train);

    // Evaluate p99 predictions on validation samples that met QoS (the
    // region where Fig. 4's overprediction is visible).
    double mt_bias = 0.0, mt_abs = 0.0, cnn_bias = 0.0, cnn_abs = 0.0;
    int n = 0;
    std::vector<int> idx(valid.samples.size());
    std::iota(idx.begin(), idx.end(), 0);
    for (size_t begin = 0; begin < idx.size(); begin += 128) {
        const size_t end = std::min(begin + 128, idx.size());
        const Batch batch = valid.MakeBatch(idx, begin, end);
        Tensor mt_lat, mt_viol;
        multitask.Forward(batch, mt_lat, mt_viol);
        const Tensor cnn_lat = cnn.Forward(batch);
        const int m = mt_lat.Dim(1);
        for (size_t i = begin; i < end; ++i) {
            const Sample& s = valid.samples[idx[i]];
            if (s.p99_ms > app.qos_ms)
                continue;
            const int row = static_cast<int>(i - begin);
            const double truth =
                static_cast<double>(s.y_latency.back()) * f.qos_ms;
            const double mt =
                static_cast<double>(mt_lat.At(row, m - 1)) * f.qos_ms;
            const double cn =
                static_cast<double>(cnn_lat.At(row, m - 1)) *
                f.qos_ms;
            mt_bias += mt - truth;
            mt_abs += std::abs(mt - truth);
            cnn_bias += cn - truth;
            cnn_abs += std::abs(cn - truth);
            ++n;
        }
    }
    TextTable t({"model", "mean bias(ms)", "mean |err|(ms)"});
    t.Row().Add("multi-task NN").Add(mt_bias / n, 1).Add(mt_abs / n, 1);
    t.Row().Add("Sinan CNN").Add(cnn_bias / n, 1).Add(cnn_abs / n, 1);
    std::printf("\nvalidation samples meeting QoS (n=%d):\n%s", n,
                t.Render().c_str());
    std::printf(
        "\nPaper's shape: the multi-task model overpredicts latency "
        "(large positive bias). In this reproduction the clipped "
        "training targets and bounded feature ranges largely suppress "
        "the pathology (see DESIGN.md item 3/7) — the joint model's "
        "bias stays moderate. The structural remedy the paper draws "
        "from this figure (separate CNN + BT stages) is validated "
        "end-to-end by Table 3 and the Figure 11 runs instead.\n");
    return 0;
}
