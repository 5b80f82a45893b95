/**
 * @file
 * Post-training int8 quantization of the inference path (the ROADMAP's
 * "quantized int8 inference as a separately validated mode").
 *
 * Scheme — standard symmetric-weight / asymmetric-activation
 * quantization, specialized for exact AVX2 maddubs accumulation:
 *
 *   weights      per output channel j (a column of the [k, n] GEMM
 *                operand): s_w[j] = max|w[:, j]| / kInt8WeightMax,
 *                q_w = clamp(round(w / s_w[j]), -63, 63). The 7-bit
 *                clamp guarantees saturation-free maddubs pair sums
 *                (see tensor/gemm_int8_kernels.h).
 *   activations  per tensor, zero point fixed at 128:
 *                s_a = max|x| / 127 over the calibration set,
 *                q_a = clamp(round(x / s_a) + 128, 0, 255). The fp32
 *                value 0.0 — conv "same" padding, ReLU floors — maps
 *                exactly to byte 128.
 *   accumulate   int32, exact:  acc[i, j] = sum_p q_a[i, p] q_w[p, j]
 *   requantize   once at the end, in fp32:
 *                y[i, j] = bias[j] + s_a s_w[j] (acc[i, j]
 *                                                - 128 * colsum_w[j])
 *
 * Because the integer part is exact and the float part is a fixed
 * per-element expression, the int8 path is byte-identical against
 * itself across thread counts and scalar/AVX2 dispatch — but NOT
 * against fp32: it ships as a separately validated mode (accuracy and
 * decision-agreement gates in tests/quant_test.cc, DESIGN.md §5k).
 *
 * Weight quantization is a pure deterministic function of the fp32
 * weights; only the activation scales carry calibration information.
 * The model file's versioned quant section therefore stores just the
 * activation scales, and the packed panels are rebuilt on load.
 */
#ifndef SINAN_NN_QUANT_H
#define SINAN_NN_QUANT_H

#include <cstdint>
#include <vector>

#include "tensor/gemm_int8_kernels.h"
#include "tensor/tensor.h"

namespace sinan {

/** Inference arithmetic mode of a HybridModel (plumbed from the
 *  sinan_sim --quant flag through scheduler and fleet config). kOff is
 *  byte-identical to the pre-quantization fp32 path. */
enum class QuantMode { kOff, kInt8 };

/** Parses "off" / "int8" (returns false on anything else, leaving
 *  @p out untouched) — the sim_cli --quant flag values. */
bool ParseQuantMode(const char* text, QuantMode* out);

/**
 * Scratch buffers of the quantized forward path. Owned by the model's
 * CnnEvalWorkspace and cloned with it; buffers only ever grow, so the
 * steady-state loop performs no allocations — GrowthEvents() is the
 * int8 counterpart of Tensor::AllocationEvents() and is asserted flat
 * by the workspace-reuse tests.
 */
class Int8Workspace {
  public:
    /** Quantized activation rows (GEMM a operand). */
    uint8_t* Act(size_t n) { return Grow(act_, n); }
    /** Quantized im2col panel (conv a operand). */
    uint8_t* Col(size_t n) { return Grow(col_, n); }
    /** int32 accumulators (GEMM c operand). */
    int32_t* Acc(size_t n) { return Grow(acc_, n); }
    /** Fused-requantize u8 output (layer-chaining buffer, so a fused
     *  conv can write its output while Act still holds its input). */
    uint8_t* Out(size_t n) { return Grow(out_, n); }

    /** Buffer growths since construction (0 growth = steady state). */
    int64_t GrowthEvents() const { return growth_events_; }

  private:
    template <typename T>
    T*
    Grow(std::vector<T>& v, size_t n)
    {
        if (n > v.size()) {
            v.resize(n);
            ++growth_events_;
        }
        return v.data();
    }

    std::vector<uint8_t> act_;
    std::vector<uint8_t> col_;
    std::vector<int32_t> acc_;
    std::vector<uint8_t> out_;
    int64_t growth_events_ = 0;
};

/**
 * One conv/dense weight matrix quantized per output channel and packed
 * for the int8 row-panel kernels, plus the calibrated activation scale
 * of its input tensor.
 */
struct QuantizedLinear {
    /** K4-packed int8 weights (tensor/gemm_int8_kernels.h layout). */
    std::vector<int8_t> packed;
    /** Per-output-channel weight scales s_w[j]. */
    std::vector<float> w_scale;
    /** Per-output-channel sums of quantized weights. */
    std::vector<int32_t> col_sum;
    /** Precomputed zero-point correction 128 * col_sum (what the
     *  requantize kernels subtract from each accumulator). */
    std::vector<int32_t> zp_corr;
    /** Per-tensor input activation scale s_a (from calibration). */
    float act_scale = 0.0f;
    /** Reciprocal used when quantizing activations (cached). */
    float inv_act_scale = 0.0f;
    /** Per-output-channel requantization factor s_a * s_w[j]. */
    std::vector<float> requant_scale;
    int64_t k = 0;
    int64_t n = 0;

    bool Ready() const { return !packed.empty() && act_scale > 0.0f; }

    /**
     * Quantizes and packs a [k, n] weight view. Element (p, j) is read
     * at w[p * row_stride + j * col_stride], so both the Dense layout
     * ([in, out]: row_stride = n, col_stride = 1) and the transposed
     * conv layout ([oc, ckk] consumed as [ckk, oc]: row_stride = 1,
     * col_stride = k) quantize per OUTPUT channel.
     */
    void QuantizeWeights(const float* w, int64_t k_dim, int64_t n_dim,
                         int64_t row_stride, int64_t col_stride);

    /** Sets the calibrated input scale from the observed max |x| and
     *  derives the cached requantization factors. */
    void SetActivationScale(float max_abs);
};

/**
 * Quantizes a channel-major fp32 image ([C, HW] planes, the Tensor
 * conv layout) into a channel-LAST u8 image xq[p * in_c + c]. The
 * channel-last layout is what makes the int8 im2col cheap: a conv
 * patch in (ki, kj, c) order is `kernel` contiguous byte runs of the
 * image, gathered with memcpy instead of per-byte strided writes.
 */
void QuantizeImageChannelLast(const float* x, int in_c, int64_t hw,
                              float inv_scale, uint8_t* xq);

/**
 * Quantizes and packs conv weights w [OC, C, K, K] with k index
 * p = (ki * K + kj) * C + c — the channel-last patch order above — so
 * the packed panel lines up with the im2col rows. The per-output-
 * channel scales and column sums are permutation-invariant, so this
 * produces the same s_w / col_sum as any other patch order.
 */
void QuantizeConvWeights(QuantizedLinear& lin, const float* w, int in_c,
                         int oc, int kernel);

/**
 * Quantizes and packs dense weights w [in, out] with the INPUT rows
 * permuted from the channel-major flatten order (row c * hw + p) to
 * the channel-last order (row p * chans + c) a fused conv emits — so
 * the dense layer after a conv stack consumes the conv's u8 output
 * directly, with no transpose at inference time. @p in must be
 * divisible by @p chans. Scales and column sums are permutation-
 * invariant, and integer addition is exact, so results are identical
 * to the unpermuted layer fed transposed input.
 */
void QuantizeDenseWeightsChannelLast(QuantizedLinear& lin, const float* w,
                                     int64_t in, int64_t out, int chans);

/**
 * Quantized dense forward: y = dequant(q(x) * q(W)) + b, x [B, in]
 * fp32 in, y [B, out] fp32 out (resized via EnsureShape). Bit-identical
 * across thread counts and scalar/AVX2 dispatch.
 */
void QuantizedDenseForward(const QuantizedLinear& lin,
                           const std::vector<float>& bias, const Tensor& x,
                           Tensor& y, Int8Workspace& ws);

/**
 * Dense forward on a single pre-quantized row: @p xq must hold
 * Int8KGroups(k) * 4 readable bytes (bytes past k multiply packed
 * zeros). Skips the quantization pass — the fused conv pipeline hands
 * its u8 output straight to the next dense layer.
 */
void QuantizedDenseForwardU8(const QuantizedLinear& lin,
                             const std::vector<float>& bias,
                             const uint8_t* xq, Tensor& y,
                             Int8Workspace& ws);

/**
 * Quantized conv forward (odd kernel, "same" zero padding, batch of
 * 1): x [1, C, H, W] fp32 in, y [1, OC, H, W] fp32 out. Internally the
 * product is computed transposed — positions x output channels — so
 * the per-output-channel scales land on GEMM columns; the requantize
 * loop writes the planes back in [OC, H, W] order. Weights must be
 * packed by QuantizeConvWeights (channel-last patch order).
 */
void QuantizedConvForward(const QuantizedLinear& lin,
                          const std::vector<float>& bias, int kernel,
                          const Tensor& x, Tensor& y, Int8Workspace& ws);

/**
 * Fused conv -> relu -> quantize: consumes a channel-last u8 image
 * (QuantizeImageChannelLast, or a previous fused conv) and emits the
 * next layer's quantized input directly — channel-last u8, skipping
 * the fp32 round trip. A following conv reads it as its image; a
 * following dense layer packed with QuantizeDenseWeightsChannelLast
 * reads it as its input row. @p inv_next is the NEXT layer's
 * inv_act_scale; @p out must hold OC * H * W bytes (plus padding up to
 * the next layer's lda if it feeds QuantizedDenseForwardU8 — the bytes
 * past OC * H * W are left untouched and multiply packed zeros there).
 *
 * Byte-equivalence with the unfused path: requantization computes the
 * same fp32 value v = bias + rs * (acc - zp) the unfused conv writes,
 * and quantization is monotonic with q(0) = 128, so
 * q(relu(v)) = max(q(v), 128) — fused relu is exact, not approximate
 * (see RequantReluU8Scalar in tensor/gemm_int8_kernels.h).
 */
void QuantizedConvForwardU8(const QuantizedLinear& lin,
                            const std::vector<float>& bias, int kernel,
                            const uint8_t* xq, int in_c, int h, int w,
                            float inv_next, uint8_t* out,
                            Int8Workspace& ws);

} // namespace sinan

#endif // SINAN_NN_QUANT_H
