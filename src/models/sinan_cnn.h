/**
 * @file
 * Sinan's short-term latency predictor (paper Sec. 3.1 / Figure 5).
 *
 * Three input branches — a small CNN over the resource-history image
 * X_RH, and dense encoders for the latency history X_LH and the candidate
 * allocation X_RC — are concatenated into the latent representation L_f,
 * from which a final dense layer predicts next-interval tail latencies
 * (p95..p99). L_f is exposed because the Boosted-Trees violation
 * predictor consumes it (Sec. 3.2).
 *
 * Two forward paths exist:
 *  - Forward(): the legacy full-batch pass used for training/backward
 *    (and as the reference in the fast-path parity tests);
 *  - ForwardTrunk()/ForwardHead(): the online scheduler's single-pass
 *    candidate inference. Within one decision interval every candidate
 *    shares identical X_RH/X_LH, so the rh/lh branches (the trunk, and
 *    by far the dominant cost) run once on a batch of 1, and so does
 *    their share of fc_latent, which every candidate row of the head
 *    (rc branch + latent + output layers) then continues. Both paths
 *    accumulate every output element in the same order, so they are
 *    bit-identical.
 */
#ifndef SINAN_MODELS_SINAN_CNN_H
#define SINAN_MODELS_SINAN_CNN_H

#include <array>
#include <optional>

#include "models/latency_model.h"
#include "nn/layers.h"

namespace sinan {

/** Architecture hyper-parameters of the CNN predictor. */
struct SinanCnnConfig {
    int conv_channels1 = 8;
    int conv_channels2 = 8;
    int kernel = 3;
    int rh_embed = 48;
    int lh_embed = 24;
    int rc_embed = 24;
    int latent = 32;
};

/**
 * Preallocated buffers of the single-pass candidate inference path.
 * Owned by HybridModel and cloned with it; every tensor is resized via
 * EnsureShape on first use (or when the window/candidate shapes
 * change) and reused afterwards, so the steady-state Evaluate loop
 * performs no tensor allocations.
 *
 * Lifetime rules: the trunk buffers (conv outputs and rh/lh
 * embeddings) are valid from ForwardTrunk until the next ForwardTrunk
 * on the same workspace; ForwardHead may be called any number of times
 * in between with different candidate batches. A workspace must not be
 * shared between threads — concurrent users clone the owning model.
 */
struct CnnEvalWorkspace {
    // Window inputs on a batch of 1 (shared by every candidate).
    Tensor xrh; // [1, F, N, T]
    Tensor xlh; // [1, T*M]
    // Per-candidate allocations.
    Tensor xrc; // [B, N]
    // Trunk intermediates and cached embeddings.
    Tensor conv1_out; // [1, C1, N, T]
    Tensor conv2_out; // [1, C2, N, T] (viewed as [1, C2*N*T])
    Tensor rh_embed;  // [1, rh_embed]
    Tensor lh_embed;  // [1, lh_embed]
    // Head intermediates.
    Tensor rc_embed; // [B, rc_embed]
    Tensor latent_trunk; // [1, latent]: fc_latent over rh/lh only
    Tensor latent;       // [B, latent]
    Tensor pred;     // [B, M]
};

/** Number of floats in the serialized calibration record (one per
 *  CnnCalibration field, in declaration order). */
constexpr int kCnnCalibrationSize = 7;

/**
 * Running per-tensor max-|x| observations of the conv/dense layer
 * inputs, accumulated over a calibration set by ObserveCalibration.
 * The record is saved and loaded with the model (the model container's
 * calibration section) but has no runtime consumer: inference is fp32
 * only. It is kept so the committed models keep their bytes and load
 * as calibrated (bench_e2e refuses a model without it).
 */
struct CnnCalibration {
    float xrh = 0.0f;       // conv1 input
    float conv1_out = 0.0f; // conv2 input (post-ReLU)
    float conv2_out = 0.0f; // rh_fc input (post-ReLU, flattened)
    float xlh = 0.0f;       // lh_fc input
    float xrc = 0.0f;       // rc_fc input
    float concat = 0.0f;    // fc_latent input [rh | lh | rc embeds]
    float latent = 0.0f;    // fc_out input (post-ReLU)

    /** The record in serialization order. */
    std::array<float, kCnnCalibrationSize> Values() const
    {
        return {xrh, conv1_out, conv2_out, xlh, xrc, concat, latent};
    }

    /** Inverse of Values(). */
    static CnnCalibration
    FromValues(const std::array<float, kCnnCalibrationSize>& v)
    {
        return {v[0], v[1], v[2], v[3], v[4], v[5], v[6]};
    }
};

/** The hybrid model's CNN component. */
class SinanCnn : public LatencyModel {
  public:
    /**
     * @param fcfg feature-space dimensions.
     * @param cfg architecture knobs.
     * @param seed weight-init RNG seed.
     */
    SinanCnn(const FeatureConfig& fcfg, const SinanCnnConfig& cfg,
             uint64_t seed);

    Tensor Forward(const Batch& batch) override;
    void Backward(const Tensor& dy) override;
    std::vector<Param*> Params() override;
    const char* Name() const override { return "CNN"; }
    void Save(std::ostream& out) const override;
    void Load(std::istream& in) override;

    /**
     * Trunk pass of the cached inference path: runs the rh branch
     * (conv stack + dense) and lh branch on ws.xrh/ws.xlh — a batch of
     * 1 — caching the embeddings in the workspace. Const: never
     * touches the training caches.
     */
    void ForwardTrunk(CnnEvalWorkspace& ws) const;

    /**
     * Head pass: encodes ws.xrc (one row per candidate), computes
     * fc_latent's sum over the cached trunk embeddings once and
     * continues it per candidate, and fills ws.latent ([B, latent], the L_f rows the Boosted Trees
     * consume) and ws.pred ([B, M], with the persistence residual
     * applied). Requires a preceding ForwardTrunk on @p ws.
     */
    void ForwardHead(CnnEvalWorkspace& ws) const;

    /** Folds one fp32-evaluated workspace (after ForwardTrunk +
     *  ForwardHead) into the running calibration maxima. */
    static void ObserveCalibration(const CnnEvalWorkspace& ws,
                                   CnnCalibration& cal);

    /** Stores the calibration record saved with the model. */
    void SetCalibration(const CnnCalibration& cal) { calibration_ = cal; }

    /** The calibration record, if one was observed or loaded. */
    const std::optional<CnnCalibration>& Calibration() const
    {
        return calibration_;
    }

    /** Latent representation L_f [B, latent] of the last Forward. */
    const Tensor& Latent() const { return latent_; }

    int LatentSize() const { return cfg_.latent; }
    const FeatureConfig& Features() const { return fcfg_; }

  private:
    FeatureConfig fcfg_;
    SinanCnnConfig cfg_;

    // rh branch: conv -> relu -> conv -> relu -> flatten -> dense -> relu.
    Conv2D conv1_;
    ReLU conv1_relu_;
    Conv2D conv2_;
    ReLU conv2_relu_;
    Flatten flatten_;
    Dense rh_fc_;
    ReLU rh_relu_;
    // lh / rc branches: dense -> relu.
    Dense lh_fc_;
    ReLU lh_relu_;
    Dense rc_fc_;
    ReLU rc_relu_;

    Dense fc_latent_;
    ReLU relu_latent_;
    Dense fc_out_;

    Tensor latent_;
    int rh_out_ = 0;
    int lh_out_ = 0;
    int rc_out_ = 0;

    /** Adds the persistence residual to ws.pred from ws.xlh. */
    void AddPersistence(CnnEvalWorkspace& ws) const;

    std::optional<CnnCalibration> calibration_;
};

} // namespace sinan

#endif // SINAN_MODELS_SINAN_CNN_H
