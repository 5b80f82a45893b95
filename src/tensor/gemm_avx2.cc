/**
 * @file
 * AVX2 row-panel GEMM microkernel (see gemm_kernels.h for the shared
 * accumulation-order contract). Compiled only under SINAN_HAVE_AVX2,
 * with -mavx2 -ffp-contract=off: every term is an explicit
 * _mm256_mul_ps followed by _mm256_add_ps, and contraction is disabled
 * so the compiler cannot fuse them into an FMA whose single rounding
 * would diverge from the scalar path. Vector lanes are distinct output
 * elements; per element the k terms accumulate in ascending p exactly
 * like GemmRowsScalar, so the two kernels produce identical bytes.
 *
 * Blocking: 4 rows x 16 columns (8 ymm accumulators live across the
 * whole k loop, b rows loaded once per 4 output rows). Single-row
 * products (the trunk's [1, k] dense layers) run 1-row panels of up to
 * 64 columns, whose every 8-column vector is its own register-resident
 * add chain, so enough independent chains stay in flight to cover the
 * add latency: a 48-wide layer is six chains in one pass over k, not
 * six passes of one chain. The n % 8 column tail is one more vector
 * with masked loads and stores (masked-off lanes read 0.0f and are
 * never stored), so no column ever takes a scalar path.
 *
 * The direct convolution (ConvRowsAvx2) vectorizes along each output
 * row: one panel is up to 8 output channels x 8 columns of one row, 8
 * register-resident add chains across the whole (c, ki, kj) loop. Each
 * tap is one masked load of the shifted input row — lanes whose source
 * column is outside the image read 0.0f, so padding taps add w * 0.0f
 * exactly as the scalar kernel does — and one broadcast weight per
 * output channel.
 */
#include "tensor/gemm_kernels.h"

#ifdef SINAN_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>

namespace sinan {

namespace {

/** Loads 8 floats at @p p, or when kMasked only the lanes set in
 *  @p mask (the rest read 0.0f and touch no memory). */
template <bool kMasked>
inline __m256
Load8(const float* p, __m256i mask)
{
    if constexpr (kMasked)
        return _mm256_maskload_ps(p, mask);
    else
        return _mm256_loadu_ps(p);
}

/** Stores 8 floats at @p p, or when kMasked only the lanes of @p mask. */
template <bool kMasked>
inline void
Store8(float* p, __m256 v, __m256i mask)
{
    if constexpr (kMasked)
        _mm256_maskstore_ps(p, mask, v);
    else
        _mm256_storeu_ps(p, v);
}

/** Mask of the first @p w lanes (0 <= w <= 8) for the column tail. */
inline __m256i
TailMask(int64_t w)
{
    static const int32_t kLanes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                       0,  0,  0,  0,  0,  0,  0,  0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kLanes + 8 - w));
}

/**
 * One row, kVecs full 8-column vectors plus, when kTail, one masked
 * vector of the n % 8 tail columns: kVecs + kTail independent add
 * chains, all register-resident across the whole k loop.
 */
template <int kVecs, bool kTail>
inline void
Panel1xN(const float* arow, const float* b, int64_t ldb, float* crow,
         int64_t j, int64_t k, __m256i mask)
{
    static_assert(kVecs + kTail >= 1 && kVecs + kTail <= 8);
    float* const c = crow + j;
    __m256 acc[kVecs + kTail];
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v)
        acc[v] = _mm256_loadu_ps(c + 8 * v);
    if constexpr (kTail)
        acc[kVecs] = _mm256_maskload_ps(c + 8 * kVecs, mask);
    for (int64_t p = 0; p < k; ++p) {
        const float* brow = b + p * ldb + j;
        const __m256 av = _mm256_set1_ps(arow[p]);
#pragma GCC unroll 8
        for (int v = 0; v < kVecs; ++v)
            acc[v] = _mm256_add_ps(
                acc[v], _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8 * v)));
        if constexpr (kTail)
            acc[kVecs] = _mm256_add_ps(
                acc[kVecs],
                _mm256_mul_ps(av,
                              _mm256_maskload_ps(brow + 8 * kVecs, mask)));
    }
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v)
        _mm256_storeu_ps(c + 8 * v, acc[v]);
    if constexpr (kTail)
        _mm256_maskstore_ps(c + 8 * kVecs, mask, acc[kVecs]);
}

using Panel1Fn = void (*)(const float*, const float*, int64_t, float*,
                          int64_t, int64_t, __m256i);

/** Panel1xN for a remainder of 8 * vecs + tail columns (< 64),
 *  indexed [vecs][tail != 0]; [0][0] covers no columns. */
constexpr Panel1Fn kRowRemainder[8][2] = {
    {nullptr, Panel1xN<0, true>},
    {Panel1xN<1, false>, Panel1xN<1, true>},
    {Panel1xN<2, false>, Panel1xN<2, true>},
    {Panel1xN<3, false>, Panel1xN<3, true>},
    {Panel1xN<4, false>, Panel1xN<4, true>},
    {Panel1xN<5, false>, Panel1xN<5, true>},
    {Panel1xN<6, false>, Panel1xN<6, true>},
    {Panel1xN<7, false>, Panel1xN<7, true>},
};

/** Four rows, 16 columns: b rows loaded once per four output rows. */
inline void
Panel4x16(const float* a, int64_t lda, const float* b, int64_t ldb,
          float* c, int64_t ldc, int64_t r, int64_t j, int64_t k)
{
    const float* a0 = a + r * lda;
    const float* a1 = a0 + lda;
    const float* a2 = a1 + lda;
    const float* a3 = a2 + lda;
    float* c0 = c + r * ldc + j;
    float* c1 = c0 + ldc;
    float* c2 = c1 + ldc;
    float* c3 = c2 + ldc;
    __m256 acc00 = _mm256_loadu_ps(c0);
    __m256 acc01 = _mm256_loadu_ps(c0 + 8);
    __m256 acc10 = _mm256_loadu_ps(c1);
    __m256 acc11 = _mm256_loadu_ps(c1 + 8);
    __m256 acc20 = _mm256_loadu_ps(c2);
    __m256 acc21 = _mm256_loadu_ps(c2 + 8);
    __m256 acc30 = _mm256_loadu_ps(c3);
    __m256 acc31 = _mm256_loadu_ps(c3 + 8);
    for (int64_t p = 0; p < k; ++p) {
        const float* brow = b + p * ldb + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_set1_ps(a0[p]);
        acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(av, b0));
        acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a1[p]);
        acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(av, b0));
        acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a2[p]);
        acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(av, b0));
        acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a3[p]);
        acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(av, b0));
        acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(av, b1));
    }
    _mm256_storeu_ps(c0, acc00);
    _mm256_storeu_ps(c0 + 8, acc01);
    _mm256_storeu_ps(c1, acc10);
    _mm256_storeu_ps(c1 + 8, acc11);
    _mm256_storeu_ps(c2, acc20);
    _mm256_storeu_ps(c2 + 8, acc21);
    _mm256_storeu_ps(c3, acc30);
    _mm256_storeu_ps(c3 + 8, acc31);
}

/** Four rows, 8 columns, or when kMasked the lanes of @p mask (the
 *  column tail). */
template <bool kMasked>
inline void
Panel4x8(const float* a, int64_t lda, const float* b, int64_t ldb,
         float* c, int64_t ldc, int64_t r, int64_t j, int64_t k,
         __m256i mask)
{
    const float* a0 = a + r * lda;
    const float* a1 = a0 + lda;
    const float* a2 = a1 + lda;
    const float* a3 = a2 + lda;
    float* c0 = c + r * ldc + j;
    float* c1 = c0 + ldc;
    float* c2 = c1 + ldc;
    float* c3 = c2 + ldc;
    __m256 acc0 = Load8<kMasked>(c0, mask);
    __m256 acc1 = Load8<kMasked>(c1, mask);
    __m256 acc2 = Load8<kMasked>(c2, mask);
    __m256 acc3 = Load8<kMasked>(c3, mask);
    for (int64_t p = 0; p < k; ++p) {
        const __m256 b0 = Load8<kMasked>(b + p * ldb + j, mask);
        acc0 = _mm256_add_ps(
            acc0, _mm256_mul_ps(_mm256_set1_ps(a0[p]), b0));
        acc1 = _mm256_add_ps(
            acc1, _mm256_mul_ps(_mm256_set1_ps(a1[p]), b0));
        acc2 = _mm256_add_ps(
            acc2, _mm256_mul_ps(_mm256_set1_ps(a2[p]), b0));
        acc3 = _mm256_add_ps(
            acc3, _mm256_mul_ps(_mm256_set1_ps(a3[p]), b0));
    }
    Store8<kMasked>(c0, acc0, mask);
    Store8<kMasked>(c1, acc1, mask);
    Store8<kMasked>(c2, acc2, mask);
    Store8<kMasked>(c3, acc3, mask);
}

/** Mask of lanes [lo, hi) (0 <= lo, hi <= 8; empty when hi <= lo). */
inline __m256i
LaneRange(int64_t lo, int64_t hi)
{
    return _mm256_andnot_si256(TailMask(lo), TailMask(hi));
}

/**
 * kOc output channels (the planes at @p y, @p hw floats apart, weights
 * @p ckk floats apart from @p wt) x the 8 flat output positions
 * [q0, q0 + 8) of the h x w plane (positions past hw are neither read
 * nor stored).
 */
template <int kOc>
void
ConvPanel(const float* x, int64_t in_c, int64_t h, int64_t w,
          const float* wt, int64_t ckk, int64_t kernel, float* y,
          int64_t q0)
{
    static_assert(kOc >= 1 && kOc <= 8);
    const int64_t pad = kernel / 2;
    const int64_t hw = h * w;
    const __m256i out_mask = TailMask(std::min<int64_t>(8, hw - q0));
    // Lane l's output column minus pad, biased by 2^31 so that one
    // signed compare against w + 2^31 tests 0 <= column < w.
    alignas(32) int32_t col[8];
    for (int64_t l = 0, j = q0 % w; l < 8; ++l) {
        col[l] = static_cast<int32_t>(
            static_cast<uint32_t>(j - pad) ^ 0x80000000u);
        if (++j == w)
            j = 0;
    }
    const __m256i col0 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(col));
    const __m256i w_biased = _mm256_set1_epi32(
        static_cast<int32_t>(static_cast<uint32_t>(w) ^ 0x80000000u));
    const __m256i one = _mm256_set1_epi32(1);

    __m256 acc[kOc];
#pragma GCC unroll 8
    for (int o = 0; o < kOc; ++o)
        acc[o] = _mm256_maskload_ps(y + o * hw + q0, out_mask);
    const float* wp = wt;
    for (int64_t c = 0; c < in_c; ++c) {
        const float* xc = x + c * hw;
        for (int64_t ki = 0; ki < kernel; ++ki) {
            // Row shift of this kernel row in flat positions: lane q's
            // source row is inside the image iff q + dr is in [0, hw).
            const int64_t dr = (ki - pad) * w;
            const __m256i row_ok = LaneRange(
                std::clamp<int64_t>(std::max<int64_t>(0, -dr) - q0, 0, 8),
                std::clamp<int64_t>(std::min(hw, hw - dr) - q0, 0, 8));
            const float* xs = xc + q0 + dr - pad;
            __m256i cv = col0;
            for (int64_t kj = 0; kj < kernel; ++kj, ++wp) {
                // Lanes outside the image are padding taps: masked off,
                // they read 0.0f.
                const __m256i m = _mm256_and_si256(
                    row_ok, _mm256_cmpgt_epi32(w_biased, cv));
                const __m256 xv = _mm256_maskload_ps(xs + kj, m);
#pragma GCC unroll 8
                for (int o = 0; o < kOc; ++o)
                    acc[o] = _mm256_add_ps(
                        acc[o],
                        _mm256_mul_ps(_mm256_broadcast_ss(wp + o * ckk),
                                      xv));
                cv = _mm256_add_epi32(cv, one);
            }
        }
    }
#pragma GCC unroll 8
    for (int o = 0; o < kOc; ++o)
        _mm256_maskstore_ps(y + o * hw + q0, out_mask, acc[o]);
}

using ConvPanelFn = void (*)(const float*, int64_t, int64_t, int64_t,
                             const float*, int64_t, int64_t, float*,
                             int64_t);

/** ConvPanel by output-channel count; [0] covers no channels. */
constexpr ConvPanelFn kConvPanels[9] = {
    nullptr,       ConvPanel<1>, ConvPanel<2>, ConvPanel<3>, ConvPanel<4>,
    ConvPanel<5>,  ConvPanel<6>, ConvPanel<7>, ConvPanel<8>,
};

} // namespace

void
ConvRowsAvx2(const float* x, int64_t in_c, int64_t h, int64_t w,
             const float* wt, int64_t kernel, float* y, int64_t oc0,
             int64_t oc1)
{
    const int64_t ckk = in_c * kernel * kernel;
    const int64_t hw = h * w;
    for (int64_t oc = oc0; oc < oc1; oc += 8) {
        const ConvPanelFn panel =
            kConvPanels[std::min<int64_t>(8, oc1 - oc)];
        for (int64_t q0 = 0; q0 < hw; q0 += 8)
            panel(x, in_c, h, w, wt + oc * ckk, ckk, kernel, y + oc * hw,
                  q0);
    }
}

void
GemmRowsAvx2(const float* a, int64_t lda, const float* b, int64_t ldb,
             float* c, int64_t ldc, int64_t r0, int64_t r1, int64_t k,
             int64_t n)
{
    const int64_t tail = n % 8;
    const __m256i mask = TailMask(tail);
    int64_t r = r0;
    for (; r + 4 <= r1; r += 4) {
        int64_t j = 0;
        for (; j + 16 <= n; j += 16)
            Panel4x16(a, lda, b, ldb, c, ldc, r, j, k);
        for (; j + 8 <= n; j += 8)
            Panel4x8<false>(a, lda, b, ldb, c, ldc, r, j, k, mask);
        if (j < n)
            Panel4x8<true>(a, lda, b, ldb, c, ldc, r, j, k, mask);
    }
    for (; r < r1; ++r) {
        const float* arow = a + r * lda;
        float* crow = c + r * ldc;
        int64_t j = 0;
        for (; j + 64 <= n; j += 64)
            Panel1xN<8, false>(arow, b, ldb, crow, j, k, mask);
        const int64_t rest = n - j;
        if (rest > 0)
            kRowRemainder[rest / 8][tail != 0](arow, b, ldb, crow, j, k,
                                               mask);
    }
}

} // namespace sinan

#endif // SINAN_HAVE_AVX2
