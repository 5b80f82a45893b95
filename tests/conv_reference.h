/**
 * @file
 * The reference the convolution parity tests compare against: the
 * direct 7-deep loop with bias-first accumulation that skips
 * out-of-image taps, plus inputs that mix signs, signed zeros and
 * denormals so a kernel that reorders terms, fuses a multiply-add or
 * mishandles a padding tap moves at least one bit.
 */
#ifndef SINAN_TESTS_CONV_REFERENCE_H
#define SINAN_TESTS_CONV_REFERENCE_H

#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace sinan {
namespace testutil {

/** y = conv(x) + b for x [B, C, H, W], w [OC, C, K, K], b [OC]: per
 *  element the bias, then the in-image taps in (c, ki, kj) order. */
inline Tensor
NaiveConvForward(const Tensor& x, const Tensor& w, const Tensor& b,
                 int kernel)
{
    const int batch = x.Dim(0);
    const int in_c = x.Dim(1);
    const int h = x.Dim(2);
    const int wdim = x.Dim(3);
    const int out_c = w.Dim(0);
    const int pad = kernel / 2;
    Tensor y({batch, out_c, h, wdim});
    for (int bi = 0; bi < batch; ++bi) {
        for (int o = 0; o < out_c; ++o) {
            for (int i = 0; i < h; ++i) {
                for (int j = 0; j < wdim; ++j) {
                    float acc = b.Data()[o];
                    for (int c = 0; c < in_c; ++c) {
                        for (int ki = 0; ki < kernel; ++ki) {
                            const int si = i + ki - pad;
                            if (si < 0 || si >= h)
                                continue;
                            for (int kj = 0; kj < kernel; ++kj) {
                                const int sj = j + kj - pad;
                                if (sj < 0 || sj >= wdim)
                                    continue;
                                acc += w.At(o, c, ki, kj) *
                                       x.At(bi, c, si, sj);
                            }
                        }
                    }
                    y.At(bi, o, i, j) = acc;
                }
            }
        }
    }
    return y;
}

/** Normal(0, 0.5) entries of @p shape with every 5th element +0.0f,
 *  every 7th -0.0f and every 9th a denormal of alternating sign. */
inline Tensor
MixedConvInput(std::vector<int> shape, Rng& rng)
{
    Tensor x = Tensor::Randn(std::move(shape), rng, 0.5f);
    for (size_t i = 0; i < x.Size(); ++i) {
        if (i % 5 == 0)
            x[i] = 0.0f;
        else if (i % 7 == 0)
            x[i] = -0.0f;
        else if (i % 9 == 0)
            x[i] = (i % 2 ? -3.0e-39f : 7.0e-40f);
    }
    return x;
}

} // namespace testutil
} // namespace sinan

#endif // SINAN_TESTS_CONV_REFERENCE_H
