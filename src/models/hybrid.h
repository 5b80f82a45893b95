/**
 * @file
 * Sinan's hybrid prediction service (paper Figure 5): the CNN short-term
 * latency predictor feeding its latent variable L_f, together with the
 * candidate allocation, into a Boosted-Trees long-term violation
 * predictor. The online scheduler queries this model with candidate
 * allocations every decision interval.
 */
#ifndef SINAN_MODELS_HYBRID_H
#define SINAN_MODELS_HYBRID_H

#include <memory>
#include <string>

#include "common/percentile_row.h"
#include "gbt/boosted_trees.h"
#include "models/sinan_cnn.h"
#include "models/trainer.h"

namespace sinan {

/** Hyper-parameters of the full hybrid model. */
struct HybridConfig {
    SinanCnnConfig cnn;
    GbtConfig bt;
    TrainOptions train;
};

/** What the scheduler receives for one candidate allocation. */
struct Prediction {
    /** Predicted next-interval latency percentiles, ms (p95..p99). */
    PercentileRow latency_ms;
    /** Probability of a QoS violation within the next k intervals. */
    double p_violation = 0.0;

    double P99() const { return latency_ms.empty() ? 0.0 : latency_ms.back(); }
};

/** Accuracy summary of the hybrid model (Tables 2 and 3). */
struct HybridReport {
    TrainReport cnn;
    double bt_train_accuracy = 0.0;
    double bt_val_accuracy = 0.0;
    double bt_val_false_pos = 0.0;
    double bt_val_false_neg = 0.0;
    int bt_trees = 0;
    double bt_train_time_s = 0.0;
};

/** Wall-clock breakdown of one Evaluate call (bench instrumentation;
 *  filled only when a non-null pointer is passed to EvaluateTimed). */
struct EvalStageTimes {
    double feature_build_s = 0.0;
    double trunk_s = 0.0;
    double head_s = 0.0;
    double bt_s = 0.0;
    /** Microkernel that produced these bytes ("scalar-v1"/"avx2-v1";
     *  see common/cpu_features.h); ids sharing a version suffix are
     *  bit-compatible, so a changed id with changed bytes marks a
     *  deliberate kernel revision, not nondeterminism. */
    const char* kernel_id = "";
};

/**
 * Versioned model-container header: the only model format. Load
 * rejects any stream that does not start with the magic, so a
 * pre-container file fails loudly. The magic is deliberately > 8 so an
 * old reader handed a new file fails its Tensor rank check with a
 * clear "corrupt header" error instead of misparsing the payload.
 */
constexpr int32_t kModelMagic = 0x4e4e4953;   // "SINN" little-endian
constexpr int32_t kModelVersion = 2;          // v2: + calibration section

/** The CNN + Boosted-Trees hybrid model. */
class HybridModel {
  public:
    HybridModel(const FeatureConfig& fcfg, const HybridConfig& cfg,
                uint64_t seed);

    virtual ~HybridModel() = default;

    HybridModel& operator=(const HybridModel&) = delete;

    /** Trains CNN then BT (on the CNN's latents), as in Sec. 3.2. */
    HybridReport Train(const Dataset& train, const Dataset& valid);

    /**
     * Incremental retraining (Sec. 5.4): fine-tunes the CNN with a small
     * learning rate on newly collected data and refits the BT on the
     * updated latents. Existing weights are the starting point.
     */
    HybridReport FineTune(const Dataset& train, const Dataset& valid,
                          const TrainOptions& opts);

    /**
     * Evaluates a set of candidate allocations against one window via
     * the single-pass fast path: the CNN trunk (rh + lh branches) runs
     * once on the shared window features, and only the per-candidate
     * head is computed per allocation, with every buffer drawn from
     * the model-owned workspace (zero tensor allocations in steady
     * state). Bit-identical to EvaluateFullBatch. Virtual so tests can
     * interpose fault-injecting stubs on the scheduler's only model
     * call.
     */
    virtual std::vector<Prediction>
    Evaluate(const MetricWindow& window,
             const std::vector<std::vector<double>>& allocations);

    /**
     * Evaluate with an optional per-stage wall-clock breakdown (used
     * by bench_inference_speed; pass nullptr to skip timing).
     */
    std::vector<Prediction>
    EvaluateTimed(const MetricWindow& window,
                  const std::vector<std::vector<double>>& allocations,
                  EvalStageTimes* stages);

    /**
     * Legacy full-batch evaluation path: stacks every candidate into
     * one batch and runs the complete CNN per row. Retained as the
     * reference for the fast-path parity tests and the before/after
     * benchmark; the scheduler uses Evaluate().
     */
    std::vector<Prediction>
    EvaluateFullBatch(const MetricWindow& window,
                      const std::vector<std::vector<double>>& allocations);

    /** Validation RMSE (ms) of the CNN from the last (re)training. */
    double ValRmseMs() const { return val_rmse_ms_; }

    /** Validation RMSE (ms) over sub-QoS samples — the scheduler's
     *  latency-filter margin (see TrainReport::val_rmse_subqos_ms). */
    double ValRmseSubQosMs() const { return val_rmse_subqos_ms_; }

    const FeatureConfig& Features() const { return fcfg_; }
    SinanCnn& Cnn() { return cnn_; }
    const BoostedTrees& Bt() const { return bt_; }

    /**
     * Runs up to @p max_samples calibration samples through the fp32
     * fast path and records the per-tensor max-|x| of every conv/dense
     * input (SinanCnn's CnnCalibration), which Save writes into the
     * container's calibration section. The record has no runtime
     * consumer (inference is fp32 only; the name is historical). It is
     * kept because bench_e2e refuses a bundled model without it and
     * the committed models re-save byte for byte only with it.
     * TrainSinan* harnesses call it after training.
     */
    void CalibrateInt8(const Dataset& calib, int max_samples = 256);

    /** True once CalibrateInt8 has run (or a model with a calibration
     *  section was loaded). bench_e2e refuses bundled models without
     *  the record. */
    bool Int8Calibrated() const { return cnn_.Calibration().has_value(); }

    /**
     * Serializes the versioned container: magic, version, CNN
     * weights, BT trees, the two RMSE doubles, then the calibration
     * section (flag + the seven CnnCalibration floats when present).
     */
    void Save(std::ostream& out) const;

    /** Loads a versioned container. Rejects a stream without the
     *  magic, an unknown version, a truncated stream, weights whose
     *  shapes differ from this model's config, and a tree ensemble
     *  whose row width differs from the BT feature row, each with a
     *  std::runtime_error. */
    void Load(std::istream& in);

    /**
     * Direct member-wise deep copy (no serialization round-trip).
     * Evaluate() mutates the internal workspace, so concurrent users
     * (e.g. the parallel benchmark sweeps) must each own a clone
     * instead of sharing one instance.
     */
    std::unique_ptr<HybridModel> Clone() const;

  protected:
    /** Used by Clone(); copies weights, trees, and workspace. */
    HybridModel(const HybridModel&) = default;

  private:
    /** Aggregates shared by every candidate of one window: current
     *  p99, mean utilization, and traffic from the newest history
     *  step of the given (single- or multi-row) inputs. */
    void SharedAggregates(const Tensor& xrh, const Tensor& xlh, int row,
                          float* cur_p99, float* util,
                          float* traffic) const;

    /** Scores candidates from per-row latent/xrc tensors into @p out,
     *  writing BT feature rows into the workspace (shared by both
     *  evaluation paths). */
    void ScoreCandidates(const Tensor& latent, const Tensor& xrc,
                         const Tensor& pred, float cur_p99, float util,
                         float traffic, std::vector<Prediction>& out);

    /** Fits the BT on the CNN's latents; fills the BT report fields. */
    void TrainBt(const Dataset& train, const Dataset& valid,
                 HybridReport& report);

    FeatureConfig fcfg_;
    HybridConfig cfg_;
    SinanCnn cnn_;
    BoostedTrees bt_;
    double val_rmse_ms_ = 0.0;
    double val_rmse_subqos_ms_ = 0.0;

    /** Reusable buffers of the fast path (cloned with the model). */
    CnnEvalWorkspace ws_;
    Tensor bt_rows_; // [B, latent + n_tiers + 4]
};

} // namespace sinan

#endif // SINAN_MODELS_HYBRID_H
