/**
 * @file
 * Baseline latency predictors for the paper's Table 2: a multilayer
 * perceptron over the flattened inputs, and an LSTM over the timeseries
 * (X_RH rearranged to [B, T, F*N], as the paper describes).
 */
#ifndef SINAN_MODELS_BASELINE_NETS_H
#define SINAN_MODELS_BASELINE_NETS_H

#include "models/latency_model.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/sequential.h"

namespace sinan {

/** MLP over concat(flatten(X_RH), X_LH, X_RC). */
class MlpPredictor : public LatencyModel {
  public:
    MlpPredictor(const FeatureConfig& fcfg, int hidden1, int hidden2,
                 uint64_t seed);

    Tensor Forward(const Batch& batch) override;
    void Backward(const Tensor& dy) override;
    std::vector<Param*> Params() override { return net_.Params(); }
    const char* Name() const override { return "MLP"; }

  private:
    FeatureConfig fcfg_;
    Sequential net_;
    int rh_len_ = 0;
    int lh_len_ = 0;
    int rc_len_ = 0;
};

/**
 * LSTM over per-timestep feature vectors (resource usage of all tiers
 * plus that interval's latency percentiles), with X_RC joined at the
 * dense head.
 */
class LstmPredictor : public LatencyModel {
  public:
    LstmPredictor(const FeatureConfig& fcfg, int hidden, uint64_t seed);

    Tensor Forward(const Batch& batch) override;
    void Backward(const Tensor& dy) override;
    std::vector<Param*> Params() override;
    const char* Name() const override { return "LSTM"; }

  private:
    /** Rearranges a Batch into the [B, T, F*N + M] sequence tensor. */
    Tensor MakeSequence(const Batch& batch) const;

    FeatureConfig fcfg_;
    Lstm lstm_;
    Sequential head_; // Dense(hidden + N -> out)
    int hidden_ = 0;

    Tensor head_in_; // cached concat(h_T, xrc)
};

} // namespace sinan

#endif // SINAN_MODELS_BASELINE_NETS_H
