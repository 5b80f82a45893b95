#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/gemm_kernels.h"

namespace sinan {

namespace {

/** Batch rows per ParallelFor block for the conv loops. Fixed (not a
 *  function of the thread count) so the per-block gradient partials of
 *  Conv2D::Backward reduce in the same order at any parallelism. */
constexpr int64_t kConvBatchGrain = 4;

/** Output channels per forward-conv block. Fixed so the block
 *  structure — and therefore the bytes — never depends on the thread
 *  count; 8 channels fill one AVX2 register panel, so each loaded
 *  input row feeds 8 accumulators. */
constexpr int64_t kConvOcBlock = 8;

/** Loads one tensor into @p p's own buffer, rejecting a shape other
 *  than the one the layer was constructed with (a model file for
 *  another config) before reading any payload, so nothing is sized
 *  from the file. */
void
LoadParam(std::istream& in, Param& p, const char* layer)
{
    const std::vector<int> shape = Tensor::LoadHeader(in);
    if (shape != p.value.Shape())
        throw std::runtime_error(
            std::string(layer) + "::Load: loaded shape " +
            check_detail::FormatShape(shape) +
            " does not match the layer's " +
            check_detail::FormatShape(p.value.Shape()));
    p.value.LoadPayload(in);
}

/** The bits of `x > 0 ? x : 0` for the float with bits @p u: keeps
 *  exactly the patterns of floats > 0 — 0x00000001 (the least
 *  denormal) through 0x7f800000 (+inf) — and clears the rest
 *  (negatives, -0 and NaN) to +0, without a data-dependent branch. */
inline uint32_t
ReluBits(uint32_t u)
{
    return u & (0u - static_cast<uint32_t>(u - 1u < 0x7f800000u));
}

} // namespace

Dense::Dense(int in_features, int out_features)
{
    SINAN_CHECK_MSG(in_features > 0 && out_features > 0,
                    "Dense: non-positive dimensions (" << in_features
                        << "x" << out_features << ")");
    w_ = Param(Tensor({in_features, out_features}));
    b_ = Param(Tensor({out_features}));
}

Dense::Dense(int in_features, int out_features, Rng& rng)
    : Dense(in_features, out_features)
{
    DrawWeights(rng);
}

void
Dense::DrawWeights(Rng& rng)
{
    // Kaiming initialization for ReLU-dominated nets.
    const int in_features = w_.value.Dim(0);
    w_.value.FillNormal(
        rng, std::sqrt(2.0f / static_cast<float>(in_features)));
}

Tensor
Dense::Forward(const Tensor& x)
{
    x_cache_ = x;
    Tensor y;
    ForwardInto(x, y);
    return y;
}

void
Dense::ForwardInto(const Tensor& x, Tensor& y) const
{
    SINAN_CHECK_EQ(x.Rank(), 2);
    SINAN_CHECK_SHAPE(x, x.Dim(0), w_.value.Dim(0));
    y.EnsureShape({x.Dim(0), w_.value.Dim(1)});
    MatMul(x, w_.value, y);
    const int out = b_.value.Dim(0);
    ParallelFor(0, x.Dim(0), 256, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            AddInPlace(y.Data() + i * out, b_.value.Data(), out);
    });
}

Tensor
Dense::Backward(const Tensor& dy)
{
    const int batch = x_cache_.Dim(0);
    SINAN_CHECK_EQ(dy.Rank(), 2);
    SINAN_CHECK_SHAPE(dy, batch, w_.value.Dim(1));
    // dW += x^T dy ; db += colsum(dy) ; dx = dy W^T.
    MatMulTa(x_cache_, dy, w_.Grad(), /*accumulate=*/true);
    const int out = w_.value.Dim(1);
    Tensor& bgrad = b_.Grad();
    // Column-blocked: each block owns a disjoint range of bias slots,
    // accumulating over the batch in the same order as the serial loop.
    ParallelFor(0, out, 64, [&](int64_t lo, int64_t hi) {
        for (int i = 0; i < batch; ++i) {
            const float* row = dy.Data() + static_cast<size_t>(i) * out;
            for (int64_t j = lo; j < hi; ++j)
                bgrad[j] += row[j];
        }
    });
    Tensor dx({batch, w_.value.Dim(0)});
    MatMulTb(dy, w_.value, dx);
    return dx;
}

void
Dense::Save(std::ostream& out) const
{
    w_.value.Save(out);
    b_.value.Save(out);
}

void
Dense::Load(std::istream& in)
{
    LoadParam(in, w_, "Dense");
    LoadParam(in, b_, "Dense");
}

void
ReluInPlace(Tensor& t)
{
    // Fixed 8-element blocks: GCC's -O2 loop vectorizer (cost model
    // "very cheap") skips a loop whose trip count is unknown, so the
    // branch-free body alone stays scalar; its SLP vectorizer packs
    // each constant-trip block into SSE compares and masks.
    float* p = t.Data();
    const size_t n = t.Size();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint32_t u[8];
        std::memcpy(u, p + i, sizeof(u));
        for (int l = 0; l < 8; ++l)
            u[l] = ReluBits(u[l]);
        std::memcpy(p + i, u, sizeof(u));
    }
    for (; i < n; ++i) {
        uint32_t u = 0;
        std::memcpy(&u, p + i, sizeof(u));
        u = ReluBits(u);
        std::memcpy(p + i, &u, sizeof(u));
    }
}

Tensor
ReLU::Forward(const Tensor& x)
{
    x_cache_ = x;
    Tensor y = x;
    ReluInPlace(y);
    return y;
}

Tensor
ReLU::Backward(const Tensor& dy)
{
    SINAN_CHECK_EQ(dy.Size(), x_cache_.Size());
    Tensor dx = dy;
    for (size_t i = 0; i < dx.Size(); ++i)
        dx[i] = x_cache_[i] > 0.0f ? dx[i] : 0.0f;
    return dx;
}

Conv2D::Conv2D(int in_channels, int out_channels, int kernel)
    : kernel_(kernel)
{
    SINAN_CHECK_MSG(kernel > 0 && kernel % 2 == 1,
                    "Conv2D: kernel must be odd positive (got " << kernel
                        << ")");
    SINAN_CHECK_MSG(in_channels > 0 && out_channels > 0,
                    "Conv2D: non-positive channels (" << in_channels
                        << " -> " << out_channels << ")");
    w_ = Param(Tensor({out_channels, in_channels, kernel, kernel}));
    b_ = Param(Tensor({out_channels}));
}

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, Rng& rng)
    : Conv2D(in_channels, out_channels, kernel)
{
    DrawWeights(rng);
}

void
Conv2D::DrawWeights(Rng& rng)
{
    const int fan_in = w_.value.Dim(1) * kernel_ * kernel_;
    w_.value.FillNormal(rng,
                        std::sqrt(2.0f / static_cast<float>(fan_in)));
}

Tensor
Conv2D::Forward(const Tensor& x)
{
    x_cache_ = x;
    Tensor y;
    ForwardInto(x, y);
    return y;
}

void
Conv2D::ForwardInto(const Tensor& x, Tensor& y) const
{
    SINAN_CHECK_EQ(x.Rank(), 4);
    SINAN_CHECK_SHAPE(x, x.Dim(0), w_.value.Dim(1), x.Dim(2), x.Dim(3));
    const int batch = x.Dim(0), in_c = x.Dim(1), h = x.Dim(2),
              w = x.Dim(3);
    const int out_c = w_.value.Dim(0);
    // Widened: on large h*w (many tiers x long histories) the int
    // products would overflow.
    const int64_t hw = static_cast<int64_t>(h) * w;
    y.EnsureShape({batch, out_c, h, w});

    // Dispatched direct convolution: y[b, oc, :] = bias[oc], then the
    // (c, ki, kj) taps in ascending order, padding taps included, one
    // rounded mul-then-add each, in both the scalar and the AVX2
    // kernel. Each (sample, oc-block) panel is written by exactly one
    // ParallelFor block (structure fixed by kConvOcBlock), so results
    // are bit-identical across kernels and thread counts.
    const float* wp = w_.value.Data();
    const ConvRowsFn kern = ActiveConvRows();
    const int64_t oc_blocks =
        (out_c + kConvOcBlock - 1) / kConvOcBlock;
    ParallelFor(0, batch * oc_blocks, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t idx = lo; idx < hi; ++idx) {
            const int64_t bi = idx / oc_blocks;
            const int64_t oc0 = (idx % oc_blocks) * kConvOcBlock;
            const int64_t oc1 =
                std::min<int64_t>(out_c, oc0 + kConvOcBlock);
            const float* xb = x.Data() + bi * in_c * hw;
            float* yb = y.Data() + bi * out_c * hw;
            for (int64_t oc = oc0; oc < oc1; ++oc) {
                float* yrow = yb + oc * hw;
                std::fill(yrow, yrow + hw,
                          b_.value[static_cast<size_t>(oc)]);
            }
            kern(xb, in_c, h, w, wp, kernel_, yb, oc0, oc1);
        }
    });
}

Tensor
Conv2D::Backward(const Tensor& dy)
{
    const Tensor& x = x_cache_;
    const int batch = x.Dim(0), in_c = x.Dim(1), h = x.Dim(2),
              w = x.Dim(3);
    const int out_c = w_.value.Dim(0);
    SINAN_CHECK_EQ(dy.Rank(), 4);
    SINAN_CHECK_SHAPE(dy, batch, out_c, h, w);
    const int pad = kernel_ / 2;
    Tensor dx({batch, in_c, h, w});
    // Batch-blocked: dx writes are disjoint per sample; the shared
    // weight/bias gradients go into per-block partials reduced below in
    // block order. The block structure is fixed by kConvBatchGrain, so
    // 1-thread and N-thread runs sum in exactly the same order.
    const int64_t n_blocks =
        (batch + kConvBatchGrain - 1) / kConvBatchGrain;
    std::vector<Tensor> wg(n_blocks), bg(n_blocks);
    ParallelFor(0, batch, kConvBatchGrain, [&](int64_t lo, int64_t hi) {
        const int64_t blk = lo / kConvBatchGrain;
        Tensor wgrad(w_.value.Shape());
        Tensor bgrad(b_.value.Shape());
        for (int64_t b = lo; b < hi; ++b) {
            for (int oc = 0; oc < out_c; ++oc) {
                for (int i = 0; i < h; ++i) {
                    for (int j = 0; j < w; ++j) {
                        const float g =
                            dy.At(static_cast<int>(b), oc, i, j);
                        if (g == 0.0f)
                            continue;
                        bgrad[oc] += g;
                        for (int c = 0; c < in_c; ++c) {
                            for (int ki = 0; ki < kernel_; ++ki) {
                                const int si = i + ki - pad;
                                if (si < 0 || si >= h)
                                    continue;
                                for (int kj = 0; kj < kernel_; ++kj) {
                                    const int sj = j + kj - pad;
                                    if (sj < 0 || sj >= w)
                                        continue;
                                    wgrad.At(oc, c, ki, kj) +=
                                        g * x.At(static_cast<int>(b), c,
                                                 si, sj);
                                    dx.At(static_cast<int>(b), c, si,
                                          sj) +=
                                        g * w_.value.At(oc, c, ki, kj);
                                }
                            }
                        }
                    }
                }
            }
        }
        wg[blk] = std::move(wgrad);
        bg[blk] = std::move(bgrad);
    });
    Tensor& w_grad = w_.Grad();
    Tensor& b_grad = b_.Grad();
    for (int64_t blk = 0; blk < n_blocks; ++blk) {
        w_grad.Add(wg[blk]);
        b_grad.Add(bg[blk]);
    }
    return dx;
}

void
Conv2D::Save(std::ostream& out) const
{
    w_.value.Save(out);
    b_.value.Save(out);
}

void
Conv2D::Load(std::istream& in)
{
    LoadParam(in, w_, "Conv2D");
    LoadParam(in, b_, "Conv2D");
}

Tensor
Flatten::Forward(const Tensor& x)
{
    in_shape_ = x.Shape();
    SINAN_CHECK_GE(x.Rank(), 2);
    int64_t rest = 1;
    for (int d = 1; d < x.Rank(); ++d)
        rest *= x.Dim(d);
    SINAN_CHECK_MSG(rest <= std::numeric_limits<int>::max(),
                    "Flatten: flattened extent overflows int (" << rest
                        << ")");
    return x.Reshaped({x.Dim(0), static_cast<int>(rest)});
}

Tensor
Flatten::Backward(const Tensor& dy)
{
    return dy.Reshaped(in_shape_);
}

} // namespace sinan
