#include "tensor/gemm_kernels.h"

#include <algorithm>

#include "common/cpu_features.h"

namespace sinan {

namespace {

/** Output positions per accumulation tile. Tiling only affects cache
 *  behaviour, never bytes: each element's terms still accumulate in
 *  ascending p regardless of how columns are grouped. */
constexpr int64_t kPosTile = 256;

/**
 * kOc output channels (planes h * w floats apart, weights in_c * kernel
 * * kernel floats apart) of ConvRowsScalar: each input tap is read once
 * for all of them, and their sums stay in registers across a
 * position's whole (c, ki, kj) loop.
 */
template <int kOc>
void
ConvPositions(const float* x, int64_t in_c, int64_t h, int64_t w,
              const float* wt, int64_t kernel, float* y)
{
    const int64_t pad = kernel / 2;
    const int64_t hw = h * w;
    const int64_t ckk = in_c * kernel * kernel;
    for (int64_t i = 0; i < h; ++i) {
        for (int64_t j = 0; j < w; ++j) {
            float acc[kOc];
            for (int o = 0; o < kOc; ++o)
                acc[o] = y[o * hw + i * w + j];
            const float* wp = wt;
            for (int64_t c = 0; c < in_c; ++c) {
                for (int64_t ki = 0; ki < kernel; ++ki) {
                    const int64_t si = i + ki - pad;
                    const bool row_in = si >= 0 && si < h;
                    for (int64_t kj = 0; kj < kernel; ++kj, ++wp) {
                        const int64_t sj = j + kj - pad;
                        // A padding tap reads 0.0f.
                        const float xv = row_in && sj >= 0 && sj < w
                                             ? x[(c * h + si) * w + sj]
                                             : 0.0f;
                        for (int o = 0; o < kOc; ++o)
                            acc[o] += wp[o * ckk] * xv;
                    }
                }
            }
            for (int o = 0; o < kOc; ++o)
                y[o * hw + i * w + j] = acc[o];
        }
    }
}

using ConvPositionsFn = void (*)(const float*, int64_t, int64_t, int64_t,
                                 const float*, int64_t, float*);

/** ConvPositions by output-channel count; [0] covers no channels. */
constexpr ConvPositionsFn kConvPositions[9] = {
    nullptr,          ConvPositions<1>, ConvPositions<2>,
    ConvPositions<3>, ConvPositions<4>, ConvPositions<5>,
    ConvPositions<6>, ConvPositions<7>, ConvPositions<8>,
};

} // namespace

void
GemmRowsScalar(const float* a, int64_t lda, const float* b, int64_t ldb,
               float* c, int64_t ldc, int64_t r0, int64_t r1, int64_t k,
               int64_t n)
{
    for (int64_t r = r0; r < r1; ++r) {
        const float* arow = a + r * lda;
        float* crow = c + r * ldc;
        for (int64_t t0 = 0; t0 < n; t0 += kPosTile) {
            const int64_t t1 = std::min(n, t0 + kPosTile);
            for (int64_t p = 0; p < k; ++p) {
                const float av = arow[p];
                const float* brow = b + p * ldb;
                for (int64_t t = t0; t < t1; ++t)
                    crow[t] += av * brow[t];
            }
        }
    }
}

void
ConvRowsScalar(const float* x, int64_t in_c, int64_t h, int64_t w,
               const float* wt, int64_t kernel, float* y, int64_t oc0,
               int64_t oc1)
{
    const int64_t ckk = in_c * kernel * kernel;
    const int64_t hw = h * w;
    for (int64_t oc = oc0; oc < oc1; oc += 8) {
        const ConvPositionsFn run =
            kConvPositions[std::min<int64_t>(8, oc1 - oc)];
        run(x, in_c, h, w, wt + oc * ckk, kernel, y + oc * hw);
    }
}

GemmRowsFn
ActiveGemmRows()
{
#ifdef SINAN_HAVE_AVX2
    if (SimdActive())
        return GemmRowsAvx2;
#endif
    return GemmRowsScalar;
}

ConvRowsFn
ActiveConvRows()
{
#ifdef SINAN_HAVE_AVX2
    if (SimdActive())
        return ConvRowsAvx2;
#endif
    return ConvRowsScalar;
}

} // namespace sinan
