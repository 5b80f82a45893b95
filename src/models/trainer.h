/**
 * @file
 * Minibatch SGD training loop for latency predictors, with the paper's
 * scaled squared loss (Eq. 2) and the accuracy/size metrics reported in
 * Table 2.
 */
#ifndef SINAN_MODELS_TRAINER_H
#define SINAN_MODELS_TRAINER_H

#include "models/latency_model.h"

namespace sinan {

/** Knobs of one training run. */
struct TrainOptions {
    int epochs = 20;
    double lr = 0.02;
    /** Multiplicative learning-rate decay per epoch. */
    double lr_decay = 0.95;
    /** Use the scaled loss of Eq. 2 (false = plain MSE, for ablation). */
    bool scaled_loss = true;
    /** Gradient leak above the knee (see ScaledMseLoss). */
    double loss_leak = 0.05;

    static constexpr int kBatchSize = 64;
    static constexpr double kMomentum = 0.9;
    static constexpr double kWeightDecay = 1e-4;
    /** Knee of phi(.) in normalized latency units (1.0 = the QoS). */
    static constexpr double kLossKnee = 1.0;
    /** Decay coefficient of phi(.) in normalized units (alpha * QoS). */
    static constexpr double kLossAlpha = 5.0;
    /** Global gradient-norm clip. */
    static constexpr double kGradClip = 5.0;
    /** Minibatch shuffling seed. */
    static constexpr uint64_t kSeed = 1;
};

/** Accuracy and size summary of a training run (Table 2's columns;
 *  bench_table2_models times the runs itself). */
struct TrainReport {
    double train_rmse_ms = 0.0;
    double val_rmse_ms = 0.0;
    /** Validation RMSE restricted to samples whose true p99 met QoS —
     *  the operating region the scheduler's latency margin cares about
     *  (overall RMSE is dominated by unbounded queueing spikes). */
    double val_rmse_subqos_ms = 0.0;
    size_t n_params = 0;
    int epochs_run = 0;
};

/**
 * Trains @p model on @p train, evaluating on @p valid.
 * RMSEs are reported in milliseconds over all predicted percentiles.
 */
TrainReport TrainLatencyModel(LatencyModel& model, const Dataset& train,
                              const Dataset& valid,
                              const FeatureConfig& fcfg,
                              const TrainOptions& opts);

/** RMSE in ms of @p model on @p data (all percentiles). */
double EvalRmseMs(LatencyModel& model, const Dataset& data,
                  const FeatureConfig& fcfg, int batch_size = 256);

/** RMSE in ms over the subset of @p data with true p99 <= QoS. */
double EvalRmseSubQosMs(LatencyModel& model, const Dataset& data,
                        const FeatureConfig& fcfg, int batch_size = 256);

/**
 * Per-sample p99 predictions in ms, in dataset order (used by the
 * figure benches that plot predicted vs. true latency).
 */
std::vector<double> PredictP99Ms(LatencyModel& model, const Dataset& data,
                                 const FeatureConfig& fcfg,
                                 int batch_size = 256);

} // namespace sinan

#endif // SINAN_MODELS_TRAINER_H
