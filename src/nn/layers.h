/**
 * @file
 * Concrete layers: Dense (fully connected), ReLU, Conv2D (same padding),
 * and Flatten. All operate on batch-major tensors.
 */
#ifndef SINAN_NN_LAYERS_H
#define SINAN_NN_LAYERS_H

#include "nn/layer.h"

namespace sinan {

/** Fully-connected layer: y = x W + b, x is [B, in], y is [B, out]. */
class Dense : public Layer {
  public:
    /** Uninitialized layer; assign a constructed one before use. */
    Dense() = default;

    /** Zero weights and bias of the given shape; DrawWeights then
     *  gives the Kaiming initialization. */
    Dense(int in_features, int out_features);

    /** Kaiming-initialized weights drawn from @p rng, zero bias. */
    Dense(int in_features, int out_features, Rng& rng);

    /** Overwrites the weights with Kaiming draws from @p rng (std
     *  sqrt(2 / in_features), in index order); the bias is untouched. */
    void DrawWeights(Rng& rng);

    Tensor Forward(const Tensor& x) override;
    Tensor Backward(const Tensor& dy) override;
    std::vector<Param*> Params() override { return {&w_, &b_}; }
    void Save(std::ostream& out) const;
    void Load(std::istream& in);

    /**
     * Inference-only forward into a caller-owned output (resized via
     * EnsureShape, so steady-state reuse allocates nothing). Does not
     * touch the backward cache; bit-identical to Forward.
     */
    void ForwardInto(const Tensor& x, Tensor& y) const;

    /** Read-only weight/bias views (SinanCnn's cached head reads
     *  fc_latent's; never used to mutate). */
    const Tensor& Weight() const { return w_.value; }
    const Tensor& Bias() const { return b_.value; }

  private:
    Param w_; // [in, out]
    Param b_; // [out]
    Tensor x_cache_;
};

/** Element-wise rectified linear unit. */
class ReLU : public Layer {
  public:
    Tensor Forward(const Tensor& x) override;
    Tensor Backward(const Tensor& dy) override;

  private:
    Tensor x_cache_;
};

/**
 * 2-D convolution with odd kernel and "same" zero padding:
 * x [B, C, H, W] -> y [B, OC, H, W].
 *
 * For Sinan's latency predictor the "image" is (tiers x timestamps) with
 * resource metrics as channels (paper Sec. 3.1), so H is the number of
 * tiers and W the history length.
 */
class Conv2D : public Layer {
  public:
    /** Uninitialized layer; assign a constructed one before use. */
    Conv2D() = default;

    /** Zero weights and bias of the given shape; DrawWeights then
     *  gives the Kaiming initialization. */
    Conv2D(int in_channels, int out_channels, int kernel);

    /** Kaiming-initialized weights drawn from @p rng, zero bias. */
    Conv2D(int in_channels, int out_channels, int kernel, Rng& rng);

    /** Overwrites the weights with Kaiming draws from @p rng (std
     *  sqrt(2 / fan_in), in index order); the bias is untouched. */
    void DrawWeights(Rng& rng);

    Tensor Forward(const Tensor& x) override;
    Tensor Backward(const Tensor& dy) override;
    std::vector<Param*> Params() override { return {&w_, &b_}; }
    void Save(std::ostream& out) const;
    void Load(std::istream& in);

    /**
     * Inference-only forward into a caller-owned output (resized via
     * EnsureShape, so steady-state reuse allocates nothing), through
     * the dispatched direct kernel (tensor/gemm_kernels.h ConvRowsFn).
     * Does not touch the backward cache. The per-output-element
     * accumulation order is bias first, then (c, ki, kj) ascending,
     * padding taps included — so results are bit-identical to the
     * naive 7-deep loop (for a bias other than -0.0f) and independent
     * of the thread count and the dispatch mode.
     */
    void ForwardInto(const Tensor& x, Tensor& y) const;


  private:
    Param w_; // [OC, C, K, K]
    Param b_; // [OC]
    int kernel_ = 0;
    Tensor x_cache_;
};

/** In-place ReLU used by the allocation-free inference fast path. */
void ReluInPlace(Tensor& t);

/** Reshapes [B, ...] to [B, prod(...)]; inverse on backward. */
class Flatten : public Layer {
  public:
    Tensor Forward(const Tensor& x) override;
    Tensor Backward(const Tensor& dy) override;

  private:
    std::vector<int> in_shape_;
};

} // namespace sinan

#endif // SINAN_NN_LAYERS_H
