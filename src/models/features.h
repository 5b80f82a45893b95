/**
 * @file
 * Featurization of cluster telemetry into the paper's model inputs
 * (Sec. 3.1):
 *
 *  - X_RH: a 3-D "image" [F channels, N tiers, T timestamps] of per-tier
 *    resource usage over the past T decision intervals;
 *  - X_LH: the end-to-end latency-percentile history [T, M];
 *  - X_RC: the candidate per-tier CPU allocation for the next interval.
 *
 * Everything is normalized with fixed, platform-independent scales so
 * that models transfer across deployments (the paper's Sec. 5.4 relies on
 * this generalizability of the selected input features).
 */
#ifndef SINAN_MODELS_FEATURES_H
#define SINAN_MODELS_FEATURES_H

#include <vector>

#include "common/telemetry.h"
#include "common/rng.h"
#include "common/timeseries.h"
#include "tensor/tensor.h"

namespace sinan {

/** Dimensions and normalization scales of the feature space. */
struct FeatureConfig {
    /** Tiers in the application graph (N). */
    int n_tiers = 0;
    /** History window length in decision intervals (T). */
    int history = 5;
    /** Latency percentiles reported per interval (M = p95..p99). */
    int n_percentiles = 5;
    /** QoS target in ms; latencies are expressed as fractions of it. */
    double qos_ms = 500.0;
    /** Lookahead (intervals) for the violation label (the paper's k). */
    int violation_lookahead = 5;

    /** Resource channels per tier (F). */
    static constexpr int kChannels = 6;

    // Fixed normalization scales.
    static constexpr double kCpuScale = 16.0;
    static constexpr double kRssScale = 1000.0;
    static constexpr double kCacheScale = 512.0;
    static constexpr double kPpsScale = 20000.0;

    /** Flattened X_LH length. */
    int LatFeatures() const { return history * n_percentiles; }
};

/** Rolling window of the last T interval observations. */
class MetricWindow {
  public:
    explicit MetricWindow(const FeatureConfig& cfg)
        : cfg_(cfg), win_(static_cast<size_t>(cfg.history))
    {
    }

    void Push(const IntervalObservation& obs) { win_.Push(obs); }

    /** True once T observations have been collected. */
    bool Ready() const { return win_.Full(); }

    const IntervalObservation& Newest() const { return win_.Back(); }

    const IntervalObservation& At(size_t i) const { return win_.At(i); }

    size_t Size() const { return win_.Size(); }

    void Clear() { win_.Clear(); }

    const FeatureConfig& Config() const { return cfg_; }

  private:
    FeatureConfig cfg_;
    RingWindow<IntervalObservation> win_;
};

/** A batch of model inputs (B samples). */
struct Batch {
    /** [B, F, N, T] resource-history image. */
    Tensor xrh;
    /** [B, T*M] flattened latency history (normalized by QoS). */
    Tensor xlh;
    /** [B, N] candidate allocation (normalized by kCpuScale). */
    Tensor xrc;

    int Size() const { return xrh.Empty() ? 0 : xrh.Dim(0); }
};

/** One training sample (inputs without the batch dimension). */
struct Sample {
    Tensor xrh; // [F, N, T]
    Tensor xlh; // [T*M]
    Tensor xrc; // [N]
    /** Next-interval latency percentiles, normalized by QoS. */
    std::vector<float> y_latency;
    /** 1 if p99 exceeds QoS within the next k intervals. */
    float violation = 0.0f;
    /** Raw next-interval p99 in ms (reporting convenience). */
    double p99_ms = 0.0;
};

/** A labeled dataset with deterministic shuffling / splitting. */
struct Dataset {
    std::vector<Sample> samples;

    /**
     * Shuffles and splits into train/validation (the paper uses 9:1).
     * @returns pair of datasets; this object is left unchanged.
     */
    std::pair<Dataset, Dataset> Split(double train_frac, Rng& rng) const;

    /** Assembles a batch from samples[indices[begin..end)]. */
    Batch MakeBatch(const std::vector<int>& indices, size_t begin,
                    size_t end) const;

    /** Latency targets [B, M] aligned with MakeBatch. */
    Tensor MakeLatencyTargets(const std::vector<int>& indices, size_t begin,
                              size_t end) const;

    /** Fraction of samples labeled as violations. */
    double ViolationRate() const;
};

/**
 * Builds the model input for the current window and one candidate
 * allocation. @p window must be Ready().
 */
Sample BuildInput(const MetricWindow& window,
                  const std::vector<double>& next_alloc);

/**
 * Writes the window's history features directly into row @p row of
 * pre-sized batch tensors @p xrh [B, F, N, T] and @p xlh [B, T*M] —
 * the allocation-free building block of HybridModel::Evaluate, which
 * stacks candidates without the intermediate Sample copies.
 * @p window must be Ready().
 */
void BuildHistoryRow(const MetricWindow& window, Tensor& xrh, Tensor& xlh,
                     int row);

/** Writes one normalized candidate allocation into row @p row of the
 *  pre-sized @p xrc [B, N]. */
void BuildAllocRow(const FeatureConfig& cfg,
                   const std::vector<double>& next_alloc, Tensor& xrc,
                   int row);

/** Stacks single samples into a batched input. */
Batch StackSamples(const std::vector<const Sample*>& samples);

} // namespace sinan

#endif // SINAN_MODELS_FEATURES_H
