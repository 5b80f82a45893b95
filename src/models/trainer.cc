#include "models/trainer.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/loss.h"
#include "nn/optimizer.h"

namespace sinan {

TrainReport
TrainLatencyModel(LatencyModel& model, const Dataset& train,
                  const Dataset& valid, const FeatureConfig& fcfg,
                  const TrainOptions& opts)
{
    if (train.samples.empty())
        throw std::invalid_argument("TrainLatencyModel: empty train set");
    TrainReport report;
    report.n_params = model.NumParams();

    Sgd sgd(model.Params(), opts.lr, TrainOptions::kMomentum,
            TrainOptions::kWeightDecay, TrainOptions::kGradClip);
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
            const Tensor target =
                train.MakeLatencyTargets(order, begin, end);
            const Tensor pred = model.Forward(batch);
            const LossResult loss =
                opts.scaled_loss
                    ? ScaledMseLoss(pred, target, TrainOptions::kLossKnee,
                                    TrainOptions::kLossAlpha,
                                    opts.loss_leak)
                    : MseLoss(pred, target);
            sgd.ZeroGrad();
            model.Backward(loss.grad);
            sgd.Step();
        }
        sgd.SetLearningRate(sgd.LearningRate() * opts.lr_decay);
        ++report.epochs_run;
    }

    report.train_rmse_ms = EvalRmseMs(model, train, fcfg);
    if (!valid.samples.empty()) {
        report.val_rmse_ms = EvalRmseMs(model, valid, fcfg);
        report.val_rmse_subqos_ms = EvalRmseSubQosMs(model, valid, fcfg);
    }

    return report;
}

double
EvalRmseMs(LatencyModel& model, const Dataset& data,
           const FeatureConfig& fcfg, int batch_size)
{
    if (data.samples.empty())
        return 0.0;
    std::vector<int> order(data.samples.size());
    std::iota(order.begin(), order.end(), 0);
    double acc = 0.0;
    size_t count = 0;
    for (size_t begin = 0; begin < order.size();
         begin += static_cast<size_t>(batch_size)) {
        const size_t end =
            std::min(begin + static_cast<size_t>(batch_size), order.size());
        const Batch batch = data.MakeBatch(order, begin, end);
        const Tensor target = data.MakeLatencyTargets(order, begin, end);
        const Tensor pred = model.Forward(batch);
        for (size_t i = 0; i < pred.Size(); ++i) {
            const double d =
                static_cast<double>(pred[i] - target[i]) * fcfg.qos_ms;
            acc += d * d;
            ++count;
        }
    }
    return std::sqrt(acc / static_cast<double>(count));
}

double
EvalRmseSubQosMs(LatencyModel& model, const Dataset& data,
                 const FeatureConfig& fcfg, int batch_size)
{
    Dataset sub;
    for (const Sample& s : data.samples) {
        if (s.p99_ms <= fcfg.qos_ms)
            sub.samples.push_back(s);
    }
    return EvalRmseMs(model, sub, fcfg, batch_size);
}

std::vector<double>
PredictP99Ms(LatencyModel& model, const Dataset& data,
             const FeatureConfig& fcfg, int batch_size)
{
    std::vector<double> out;
    out.reserve(data.samples.size());
    std::vector<int> order(data.samples.size());
    std::iota(order.begin(), order.end(), 0);
    for (size_t begin = 0; begin < order.size();
         begin += static_cast<size_t>(batch_size)) {
        const size_t end =
            std::min(begin + static_cast<size_t>(batch_size), order.size());
        const Batch batch = data.MakeBatch(order, begin, end);
        const Tensor pred = model.Forward(batch);
        const int m = pred.Dim(1);
        for (int i = 0; i < pred.Dim(0); ++i)
            out.push_back(static_cast<double>(pred.At(i, m - 1)) *
                          fcfg.qos_ms);
    }
    return out;
}

} // namespace sinan
