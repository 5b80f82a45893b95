/**
 * @file
 * Int8 row-panel GEMM microkernels — the quantized counterpart of
 * gemm_kernels.h, behind the same dispatch contract (row panels,
 * caller-driven parallelism, runtime scalar/AVX2 selection via
 * common/cpu_features).
 *
 * Contract shared by every implementation:
 *
 *   c[r, 0..n) += sum_p a[r, p] * b[p, 0..n)   for r in [r0, r1)
 *
 * with a unsigned 8-bit (activations, zero point 128), b signed 8-bit
 * (weights, clamped to [-kInt8WeightMax, kInt8WeightMax]), and c 32-bit
 * integer accumulators. Every product fits an int32 exactly and integer
 * addition is associative, so — unlike the fp32 kernels, whose
 * bit-identity needs a pinned accumulation order — the scalar and AVX2
 * int8 kernels are byte-identical by construction, at any thread count.
 * Requantization back to float happens in the caller (nn/quant.cc),
 * after the integer accumulation is complete.
 *
 * The b operand is consumed in a packed "K4" panel layout produced by
 * PackInt8B: k is grouped in fours, and each group stores its n columns
 * as 4 consecutive bytes per column —
 *
 *   packed[g * n * 4 + j * 4 + t] = b[g * 4 + t, j]   (0 beyond k)
 *
 * — so the AVX2 kernel can load 8 columns x 4 k-steps as one 32-byte
 * vector and feed _mm256_maddubs_epi16 directly. maddubs saturates its
 * int16 pair sums; clamping weights to +/-kInt8WeightMax keeps every
 * pair sum <= 2 * 255 * 63 = 32130 < 32767, so no saturation can occur
 * and the vector path computes the exact integer sum. The a rows must
 * be readable (not necessarily zeroed) up to lda >= 4 * Int8KGroups(k)
 * bytes: positions past k multiply packed zeros and contribute nothing.
 *
 * The AVX2 implementation lives in gemm_int8_avx2.cc — with
 * gemm_avx2.cc, the only files allowed to use _mm256 intrinsics
 * (enforced by sinan_analyze's raw-simd-intrinsic rule).
 */
#ifndef SINAN_TENSOR_GEMM_INT8_KERNELS_H
#define SINAN_TENSOR_GEMM_INT8_KERNELS_H

#include <cstdint>

namespace sinan {

/** Quantized weights are clamped to +/- this (7-bit symmetric), the
 *  price of exact, saturation-free maddubs pair sums (see above). */
constexpr int kInt8WeightMax = 63;

/** Number of 4-wide k groups in the packed layout. */
inline int64_t
Int8KGroups(int64_t k)
{
    return (k + 3) / 4;
}

/** Bytes of a packed [k, n] panel (zero-padded to a multiple of 4 k). */
inline int64_t
Int8PackedSize(int64_t k, int64_t n)
{
    return Int8KGroups(k) * n * 4;
}

/**
 * Packs row-major b [k, n] (leading dimension @p ldb) into the K4 panel
 * layout described above; @p packed must hold Int8PackedSize(k, n)
 * bytes. Positions past k are stored as zero.
 */
void PackInt8B(const int8_t* b, int64_t ldb, int64_t k, int64_t n,
               int8_t* packed);

/**
 * Accumulates the row panel [r0, r1) of c += a * b.
 * @param a      [*, >=k] row-major uint8, leading dimension @p lda
 *               (lda >= 4 * Int8KGroups(k); bytes past k are read but
 *               multiply zero weights)
 * @param bpack  K4-packed b panel (PackInt8B)
 * @param c      [*, n] row-major int32, leading dimension @p ldc
 *               (accumulated into — callers pre-fill with zeros)
 */
using GemmInt8RowsFn = void (*)(const uint8_t* a, int64_t lda,
                                const int8_t* bpack, int32_t* c,
                                int64_t ldc, int64_t r0, int64_t r1,
                                int64_t k, int64_t n);

/** Portable reference implementation (exact int32 accumulation). */
void GemmInt8RowsScalar(const uint8_t* a, int64_t lda, const int8_t* bpack,
                        int32_t* c, int64_t ldc, int64_t r0, int64_t r1,
                        int64_t k, int64_t n);

#ifdef SINAN_HAVE_AVX2
/** maddubs-based AVX2 implementation (same bytes as scalar). */
void GemmInt8RowsAvx2(const uint8_t* a, int64_t lda, const int8_t* bpack,
                      int32_t* c, int64_t ldc, int64_t r0, int64_t r1,
                      int64_t k, int64_t n);
#endif

/** The kernel the current dispatch decision selects — the same
 *  SINAN_SIMD / SetSimdMode switch as the fp32 kernels, so
 *  SINAN_SIMD=off exercises the int8 scalar reference. */
GemmInt8RowsFn ActiveGemmInt8Rows();

/**
 * Quantizes one activation to u8 with zero point 128:
 *   q = clamp(round_ties_away(clamp(x * inv_scale, ±kQuantClamp)) + 128,
 *             0, 255).
 * The float-domain clamp keeps the int cast defined for any input
 * (values beyond ±129 saturate to 0/255 regardless); its compare
 * direction mirrors the AVX2 max/min semantics, so NaN deterministically
 * maps to byte 0 on both paths. This is the single rounding rule of the
 * whole int8 pipeline — the scalar and AVX2 quantizers and both GEMM
 * kernels compose to byte-identical results by construction.
 */
constexpr float kQuantClamp = 200.0f;

inline uint8_t
QuantizeU8One(float x, float inv_scale)
{
    float v = x * inv_scale;
    // Ordered exactly like _mm256_max_ps/_mm256_min_ps: the second
    // operand wins on NaN.
    v = v > -kQuantClamp ? v : -kQuantClamp;
    v = v < kQuantClamp ? v : kQuantClamp;
    const int32_t r =
        static_cast<int32_t>(v >= 0.0f ? v + 0.5f : v - 0.5f) + 128;
    return static_cast<uint8_t>(r < 0 ? 0 : (r > 255 ? 255 : r));
}

/** Bulk activation quantization: out[i] = QuantizeU8One(x[i]). The
 *  AVX2 version needs no tail slack — byte-identical to scalar. */
using QuantizeU8Fn = void (*)(const float* x, int64_t count,
                              float inv_scale, uint8_t* out);

void QuantizeU8Scalar(const float* x, int64_t count, float inv_scale,
                      uint8_t* out);

#ifdef SINAN_HAVE_AVX2
void QuantizeU8Avx2(const float* x, int64_t count, float inv_scale,
                    uint8_t* out);
#endif

/** Dispatched like ActiveGemmInt8Rows (same SINAN_SIMD switch). */
QuantizeU8Fn ActiveQuantizeU8();

/**
 * Fused requantize + relu + next-layer quantize over channel-last conv
 * accumulators acc [rows, oc]:
 *
 *   v         = bias[c] + rscale[c] * (acc[i, c] - zp128[c])
 *   out[i, c] = max(QuantizeU8One(v, inv_next), 128)
 *
 * zp128[c] is the precomputed zero-point correction 128 * colsum_w[c].
 * The max with 128 IS relu: quantization is monotonic with q(0) = 128,
 * so q(relu(v)) = max(q(v), 128) exactly. Both implementations compute
 * v as an explicit multiply then add (int -> float conversion rounds
 * to nearest in both), so scalar and AVX2 are byte-identical.
 */
using RequantReluU8Fn = void (*)(const int32_t* acc, int64_t rows,
                                 int64_t oc, const float* bias,
                                 const float* rscale,
                                 const int32_t* zp128, float inv_next,
                                 uint8_t* out);

void RequantReluU8Scalar(const int32_t* acc, int64_t rows, int64_t oc,
                         const float* bias, const float* rscale,
                         const int32_t* zp128, float inv_next,
                         uint8_t* out);

#ifdef SINAN_HAVE_AVX2
void RequantReluU8Avx2(const int32_t* acc, int64_t rows, int64_t oc,
                       const float* bias, const float* rscale,
                       const int32_t* zp128, float inv_next,
                       uint8_t* out);
#endif

/** Dispatched like ActiveGemmInt8Rows (same SINAN_SIMD switch). */
RequantReluU8Fn ActiveRequantReluU8();

} // namespace sinan

#endif // SINAN_TENSOR_GEMM_INT8_KERNELS_H
