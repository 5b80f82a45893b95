#include "nn/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/thread_pool.h"

namespace sinan {

namespace {

/** Round-to-nearest, ties away from zero — one fixed deterministic
 *  rule shared by weight and activation quantization (a plain cast
 *  truncates, so the result never depends on the FP rounding mode). */
inline int32_t
RoundNearest(float v)
{
    return static_cast<int32_t>(v >= 0.0f ? v + 0.5f : v - 0.5f);
}

/** Rows per ParallelFor block of the quantized dense loops. Fixed so
 *  the block structure never depends on the thread count (the int8
 *  sums are exact either way; this just keeps the parallel shape
 *  aligned with the fp32 path's conventions). */
constexpr int64_t kQuantRowGrain = 8;

/** im2col / conv-GEMM position rows per ParallelFor block. */
constexpr int64_t kQuantPosGrain = 32;

/** Inline word-at-a-time copy for the short (~kernel * in_c byte)
 *  im2col runs — a library memcpy call per run would cost more than
 *  the copy itself. Exact-size: never writes past dst + n. */
inline void
CopySmall(uint8_t* dst, const uint8_t* src, int64_t n)
{
    int64_t t = 0;
    for (; t + 8 <= n; t += 8) {
        uint64_t v;
        std::memcpy(&v, src + t, sizeof(v));
        std::memcpy(dst + t, &v, sizeof(v));
    }
    for (; t < n; ++t)
        dst[t] = src[t];
}

/** Inline fill with the padding byte 128, same rationale. */
inline void
FillPad(uint8_t* dst, int64_t n)
{
    constexpr uint64_t kPat = 0x8080808080808080ull;
    int64_t t = 0;
    for (; t + 8 <= n; t += 8)
        std::memcpy(dst + t, &kPat, sizeof(kPat));
    for (; t < n; ++t)
        dst[t] = 128;
}

/**
 * Shared conv core: channel-last im2col + int8 GEMM, leaving the raw
 * int32 accumulators [hw, oc] in ws.Acc for the caller's requantize
 * pass. With patches in (ki, kj, c) order, the bytes of one output
 * position are `kernel` contiguous runs of the channel-last image (one
 * per ki; the kj/c block is contiguous in both source and
 * destination), so the gather is memcpy/memset of ~kernel * in_c bytes
 * instead of per-byte strided writes — this is what moved the int8
 * trunk from parity with fp32 to well under it. All copies are
 * exact-size, so each position row is written only by its own
 * ParallelFor block and the panel is byte-stable at any thread count.
 */
int32_t*
ConvInt8Core(const QuantizedLinear& lin, int kernel, const uint8_t* xq,
             int in_c, int h, int w, Int8Workspace& ws)
{
    const int64_t hw = static_cast<int64_t>(h) * w;
    const int64_t ckk = static_cast<int64_t>(in_c) * kernel * kernel;
    const int64_t oc = lin.n;
    SINAN_CHECK_EQ(ckk, lin.k);
    const int pad = kernel / 2;
    const int64_t lda = Int8KGroups(ckk) * 4;
    const int64_t krow = static_cast<int64_t>(kernel) * in_c;

    uint8_t* colq = ws.Col(static_cast<size_t>(hw * lda));
    ParallelFor(0, h, kQuantRowGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            for (int64_t j = 0; j < w; ++j) {
                uint8_t* dst = colq + (i * w + j) * lda;
                for (int ki = 0; ki < kernel; ++ki, dst += krow) {
                    const int64_t si = i + ki - pad;
                    if (si < 0 || si >= h) {
                        // Padded row: byte 128 is the exact image of
                        // fp32 0.0 under the zero-point-128 scheme.
                        FillPad(dst, krow);
                        continue;
                    }
                    const int64_t kj0 = std::max<int64_t>(0, pad - j);
                    const int64_t kj1 =
                        std::min<int64_t>(kernel, w + pad - j);
                    if (kj0 > 0)
                        FillPad(dst, kj0 * in_c);
                    CopySmall(dst + kj0 * in_c,
                              xq + (si * w + j - pad + kj0) * in_c,
                              (kj1 - kj0) * in_c);
                    if (kj1 < kernel)
                        FillPad(dst + kj1 * in_c,
                                (kernel - kj1) * in_c);
                }
            }
        }
    });

    int32_t* acc = ws.Acc(static_cast<size_t>(hw * oc));
    std::fill(acc, acc + hw * oc, 0);
    const GemmInt8RowsFn kern = ActiveGemmInt8Rows();
    ParallelFor(0, hw, kQuantPosGrain, [&](int64_t lo, int64_t hi) {
        kern(colq, lda, lin.packed.data(), acc, oc, lo, hi, ckk, oc);
    });
    return acc;
}

} // namespace

bool
ParseQuantMode(const char* text, QuantMode* out)
{
    if (text == nullptr || out == nullptr)
        return false;
    if (std::strcmp(text, "off") == 0) {
        *out = QuantMode::kOff;
        return true;
    }
    if (std::strcmp(text, "int8") == 0) {
        *out = QuantMode::kInt8;
        return true;
    }
    return false;
}

void
QuantizedLinear::QuantizeWeights(const float* w, int64_t k_dim,
                                 int64_t n_dim, int64_t row_stride,
                                 int64_t col_stride)
{
    SINAN_CHECK_MSG(k_dim > 0 && n_dim > 0,
                    "QuantizeWeights: empty matrix (" << k_dim << "x"
                        << n_dim << ")");
    // 255 * kInt8WeightMax per k step must never overflow the int32
    // accumulator (see gemm_int8_kernels.h).
    SINAN_CHECK_MSG(k_dim < (1 << 17),
                    "QuantizeWeights: k too large for exact int32 "
                    "accumulation ("
                        << k_dim << ")");
    k = k_dim;
    n = n_dim;
    w_scale.assign(static_cast<size_t>(n), 1.0f);
    col_sum.assign(static_cast<size_t>(n), 0);
    std::vector<int8_t> q(static_cast<size_t>(k * n), 0);
    for (int64_t j = 0; j < n; ++j) {
        float amax = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
            const float v =
                std::fabs(w[p * row_stride + j * col_stride]);
            amax = std::max(amax, v);
        }
        const float s =
            amax > 0.0f ? amax / static_cast<float>(kInt8WeightMax)
                        : 1.0f;
        w_scale[static_cast<size_t>(j)] = s;
        const float inv = 1.0f / s;
        int32_t sum = 0;
        for (int64_t p = 0; p < k; ++p) {
            const int32_t r = std::clamp(
                RoundNearest(w[p * row_stride + j * col_stride] * inv),
                -kInt8WeightMax, kInt8WeightMax);
            q[static_cast<size_t>(p * n + j)] = static_cast<int8_t>(r);
            sum += r;
        }
        col_sum[static_cast<size_t>(j)] = sum;
    }
    zp_corr.assign(static_cast<size_t>(n), 0);
    for (int64_t j = 0; j < n; ++j)
        zp_corr[static_cast<size_t>(j)] =
            128 * col_sum[static_cast<size_t>(j)];
    packed.assign(static_cast<size_t>(Int8PackedSize(k, n)), 0);
    PackInt8B(q.data(), n, k, n, packed.data());
}

void
QuantizedLinear::SetActivationScale(float max_abs)
{
    act_scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    inv_act_scale = 1.0f / act_scale;
    requant_scale.assign(w_scale.size(), 0.0f);
    for (size_t j = 0; j < w_scale.size(); ++j)
        requant_scale[j] = act_scale * w_scale[j];
}

void
QuantizeImageChannelLast(const float* x, int in_c, int64_t hw,
                         float inv_scale, uint8_t* xq)
{
    // Transposing gather — scalar QuantizeU8One per element, which is
    // what the bulk quantizers compute, so dispatch mode is irrelevant
    // here (the images are small: in_c * hw elements).
    for (int c = 0; c < in_c; ++c) {
        const float* src = x + static_cast<size_t>(c) * hw;
        uint8_t* dst = xq + c;
        for (int64_t p = 0; p < hw; ++p)
            dst[p * in_c] = QuantizeU8One(src[p], inv_scale);
    }
}

void
QuantizeConvWeights(QuantizedLinear& lin, const float* w, int in_c,
                    int oc, int kernel)
{
    const int64_t ckk = static_cast<int64_t>(in_c) * kernel * kernel;
    // Permute [OC, C, K, K] into the (ki, kj, c)-ordered [ckk, oc]
    // view the channel-last im2col rows multiply against.
    std::vector<float> tmp(static_cast<size_t>(ckk * oc));
    for (int64_t j = 0; j < oc; ++j) {
        for (int c = 0; c < in_c; ++c) {
            for (int ki = 0; ki < kernel; ++ki) {
                for (int kj = 0; kj < kernel; ++kj) {
                    const int64_t p =
                        (static_cast<int64_t>(ki) * kernel + kj) * in_c +
                        c;
                    tmp[static_cast<size_t>(p * oc + j)] =
                        w[((j * in_c + c) * kernel + ki) * kernel + kj];
                }
            }
        }
    }
    lin.QuantizeWeights(tmp.data(), ckk, oc, /*row_stride=*/oc,
                        /*col_stride=*/1);
}

void
QuantizeDenseWeightsChannelLast(QuantizedLinear& lin, const float* w,
                                int64_t in, int64_t out, int chans)
{
    SINAN_CHECK_MSG(chans > 0 && in % chans == 0,
                    "QuantizeDenseWeightsChannelLast: in ("
                        << in << ") not divisible by chans (" << chans
                        << ")");
    const int64_t hw = in / chans;
    // Row p * chans + c of the permuted matrix is row c * hw + p of
    // the channel-major original.
    std::vector<float> tmp(static_cast<size_t>(in * out));
    for (int64_t p = 0; p < hw; ++p) {
        for (int64_t c = 0; c < chans; ++c) {
            std::memcpy(tmp.data() + (p * chans + c) * out,
                        w + (c * hw + p) * out,
                        static_cast<size_t>(out) * sizeof(float));
        }
    }
    lin.QuantizeWeights(tmp.data(), in, out, /*row_stride=*/out,
                        /*col_stride=*/1);
}

void
QuantizedDenseForward(const QuantizedLinear& lin,
                      const std::vector<float>& bias, const Tensor& x,
                      Tensor& y, Int8Workspace& ws)
{
    SINAN_CHECK_MSG(lin.Ready(),
                    "QuantizedDenseForward: layer not calibrated");
    SINAN_CHECK_EQ(x.Rank(), 2);
    SINAN_CHECK_EQ(x.Dim(1), static_cast<int>(lin.k));
    const int64_t batch = x.Dim(0);
    const int64_t in = lin.k;
    const int64_t out = lin.n;
    SINAN_CHECK_EQ(bias.size(), static_cast<size_t>(out));

    const int64_t lda = Int8KGroups(in) * 4;
    uint8_t* aq = ws.Act(static_cast<size_t>(batch * lda));
    const QuantizeU8Fn qfn = ActiveQuantizeU8();
    ParallelFor(0, batch, kQuantRowGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            qfn(x.Data() + i * in, in, lin.inv_act_scale, aq + i * lda);
    });

    int32_t* acc = ws.Acc(static_cast<size_t>(batch * out));
    std::fill(acc, acc + batch * out, 0);
    const GemmInt8RowsFn kern = ActiveGemmInt8Rows();
    ParallelFor(0, batch, kQuantRowGrain, [&](int64_t lo, int64_t hi) {
        kern(aq, lda, lin.packed.data(), acc, out, lo, hi, in, out);
    });

    y.EnsureShape({static_cast<int>(batch), static_cast<int>(out)});
    ParallelFor(0, batch, kQuantRowGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            const int32_t* arow = acc + i * out;
            float* yrow = y.Data() + static_cast<size_t>(i) * out;
            for (int64_t j = 0; j < out; ++j) {
                const int32_t centered =
                    arow[j] -
                    128 * lin.col_sum[static_cast<size_t>(j)];
                yrow[j] = bias[static_cast<size_t>(j)] +
                          lin.requant_scale[static_cast<size_t>(j)] *
                              static_cast<float>(centered);
            }
        }
    });
}

void
QuantizedDenseForwardU8(const QuantizedLinear& lin,
                        const std::vector<float>& bias, const uint8_t* xq,
                        Tensor& y, Int8Workspace& ws)
{
    SINAN_CHECK_MSG(lin.Ready(),
                    "QuantizedDenseForwardU8: layer not calibrated");
    const int64_t in = lin.k;
    const int64_t out = lin.n;
    SINAN_CHECK_EQ(bias.size(), static_cast<size_t>(out));
    const int64_t lda = Int8KGroups(in) * 4;
    int32_t* acc = ws.Acc(static_cast<size_t>(out));
    std::fill(acc, acc + out, 0);
    ActiveGemmInt8Rows()(xq, lda, lin.packed.data(), acc, out, 0, 1, in,
                         out);
    y.EnsureShape({1, static_cast<int>(out)});
    float* yrow = y.Data();
    for (int64_t j = 0; j < out; ++j) {
        const int32_t centered =
            acc[j] - 128 * lin.col_sum[static_cast<size_t>(j)];
        yrow[j] = bias[static_cast<size_t>(j)] +
                  lin.requant_scale[static_cast<size_t>(j)] *
                      static_cast<float>(centered);
    }
}

void
QuantizedConvForward(const QuantizedLinear& lin,
                     const std::vector<float>& bias, int kernel,
                     const Tensor& x, Tensor& y, Int8Workspace& ws)
{
    SINAN_CHECK_MSG(lin.Ready(),
                    "QuantizedConvForward: layer not calibrated");
    SINAN_CHECK_EQ(x.Rank(), 4);
    SINAN_CHECK_EQ(x.Dim(0), 1);
    const int in_c = x.Dim(1), h = x.Dim(2), w = x.Dim(3);
    const int64_t hw = static_cast<int64_t>(h) * w;
    const int64_t oc = lin.n;
    SINAN_CHECK_EQ(bias.size(), static_cast<size_t>(oc));

    // Quantize the input image once (into the channel-last layout the
    // run-copy im2col consumes); the gather below then only moves
    // bytes, so padding and overlap cost no further rounding.
    uint8_t* xq = ws.Act(static_cast<size_t>(in_c) * hw);
    QuantizeImageChannelLast(x.Data(), in_c, hw, lin.inv_act_scale, xq);

    const int32_t* acc = ConvInt8Core(lin, kernel, xq, in_c, h, w, ws);

    // Requantize back into channel-major planes.
    y.EnsureShape({1, static_cast<int>(oc), h, w});
    for (int64_t c = 0; c < oc; ++c) {
        const float b = bias[static_cast<size_t>(c)];
        const float rs = lin.requant_scale[static_cast<size_t>(c)];
        const int32_t zp = 128 * lin.col_sum[static_cast<size_t>(c)];
        float* yrow = y.Data() + static_cast<size_t>(c) * hw;
        for (int64_t i = 0; i < hw; ++i) {
            yrow[i] =
                b + rs * static_cast<float>(acc[i * oc + c] - zp);
        }
    }
}

void
QuantizedConvForwardU8(const QuantizedLinear& lin,
                       const std::vector<float>& bias, int kernel,
                       const uint8_t* xq, int in_c, int h, int w,
                       float inv_next, uint8_t* out, Int8Workspace& ws)
{
    SINAN_CHECK_MSG(lin.Ready(),
                    "QuantizedConvForwardU8: layer not calibrated");
    const int64_t hw = static_cast<int64_t>(h) * w;
    const int64_t oc = lin.n;
    SINAN_CHECK_EQ(bias.size(), static_cast<size_t>(oc));

    const int32_t* acc = ConvInt8Core(lin, kernel, xq, in_c, h, w, ws);
    ActiveRequantReluU8()(acc, hw, oc, bias.data(),
                          lin.requant_scale.data(), lin.zp_corr.data(),
                          inv_next, out);
}

} // namespace sinan
