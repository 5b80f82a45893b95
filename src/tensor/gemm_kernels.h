/**
 * @file
 * Row-panel GEMM microkernels behind MatMul and the direct "same"
 * convolution behind Conv2D, with runtime scalar/AVX2 dispatch
 * (common/cpu_features).
 *
 * Contract shared by every implementation — this is what makes the
 * SIMD path bit-identical to the scalar one, and both thread-count
 * independent:
 *
 *   c[r, 0..n) += sum_p a[r, p] * b[p, 0..n)   for r in [r0, r1)
 *
 * where, per output element c[r, j], the k terms accumulate in
 * ascending p order and each term is one IEEE-rounded multiply
 * followed by one IEEE-rounded add (never a fused multiply-add: FMA's
 * single rounding would diverge from the scalar path). Vector lanes
 * map to distinct output elements, so lane width never changes any
 * element's accumulation order. Callers pre-fill c (zeros for a plain
 * product, the bias for conv output planes) and parallelize over
 * disjoint row ranges; the kernel itself never spawns work. The
 * convolution kernels (ConvRowsFn) keep the same contract with the
 * conv's term order: p runs over (c, ki, kj) ascending.
 *
 * The AVX2 implementation is compiled only when CMake's SINAN_SIMD
 * option and the toolchain allow it (SINAN_HAVE_AVX2), in its own
 * translation unit built with -mavx2 -ffp-contract=off; it is the one
 * file allowed to use _mm256 intrinsics (enforced by sinan_analyze's
 * raw-simd-intrinsic rule).
 */
#ifndef SINAN_TENSOR_GEMM_KERNELS_H
#define SINAN_TENSOR_GEMM_KERNELS_H

#include <cstdint>

namespace sinan {

/**
 * Accumulates the row panel [r0, r1) of c += a * b.
 * @param a    [*, k] row-major, leading dimension @p lda
 * @param b    [k, n] row-major, leading dimension @p ldb
 * @param c    [*, n] row-major, leading dimension @p ldc (accumulated
 *             into — callers pre-fill with zeros or bias)
 */
using GemmRowsFn = void (*)(const float* a, int64_t lda, const float* b,
                            int64_t ldb, float* c, int64_t ldc,
                            int64_t r0, int64_t r1, int64_t k, int64_t n);

/** Portable reference implementation (position-tiled scalar loops). */
void GemmRowsScalar(const float* a, int64_t lda, const float* b,
                    int64_t ldb, float* c, int64_t ldc, int64_t r0,
                    int64_t r1, int64_t k, int64_t n);

#ifdef SINAN_HAVE_AVX2
/** Register-blocked AVX2 implementation (same bytes as scalar). */
void GemmRowsAvx2(const float* a, int64_t lda, const float* b,
                  int64_t ldb, float* c, int64_t ldc, int64_t r0,
                  int64_t r1, int64_t k, int64_t n);
#endif

/** The kernel the current dispatch decision selects (see
 *  common/cpu_features.h: compile gate, CPUID, SINAN_SIMD override). */
GemmRowsFn ActiveGemmRows();

/**
 * Accumulates output channels [oc0, oc1) of one sample's "same"
 * convolution (odd @p kernel, pad = kernel / 2):
 *
 *   y[oc, i, j] += sum_{c, ki, kj} w[oc, c, ki, kj] *
 *                  x[c, i + ki - pad, j + kj - pad]
 *
 * with x read as 0.0f outside the h x w image. Per output element the
 * terms accumulate in ascending (c, ki, kj) order, padding taps
 * included (each adds w * 0.0f), as one rounded multiply then one
 * rounded add; for a bias that is not -0.0f these are also the bytes
 * of the naive loop that skips padding taps.
 * @param x    [in_c, h, w] input planes
 * @param wt   [out_c, in_c, kernel, kernel] weights
 * @param y    [out_c, h, w] output planes (accumulated into — callers
 *             pre-fill with the bias)
 */
using ConvRowsFn = void (*)(const float* x, int64_t in_c, int64_t h,
                            int64_t w, const float* wt, int64_t kernel,
                            float* y, int64_t oc0, int64_t oc1);

/** Portable reference implementation (scalar, up to 8 channels per
 *  pass). */
void ConvRowsScalar(const float* x, int64_t in_c, int64_t h, int64_t w,
                    const float* wt, int64_t kernel, float* y,
                    int64_t oc0, int64_t oc1);

#ifdef SINAN_HAVE_AVX2
/** Register-blocked AVX2 implementation (same bytes as scalar). */
void ConvRowsAvx2(const float* x, int64_t in_c, int64_t h, int64_t w,
                  const float* wt, int64_t kernel, float* y, int64_t oc0,
                  int64_t oc1);
#endif

/** The conv kernel the current dispatch decision selects. */
ConvRowsFn ActiveConvRows();

} // namespace sinan

#endif // SINAN_TENSOR_GEMM_KERNELS_H
