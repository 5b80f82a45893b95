#include "nn/lstm.h"

#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace sinan {

namespace {

float
Sigmoid(float v)
{
    return 1.0f / (1.0f + std::exp(-v));
}

} // namespace

Lstm::Lstm(int input_size, int hidden_size, Rng& rng)
{
    SINAN_CHECK_MSG(input_size > 0 && hidden_size > 0,
                    "Lstm: non-positive dimensions (" << input_size
                        << "x" << hidden_size << ")");
    const float sx = std::sqrt(1.0f / static_cast<float>(input_size));
    const float sh = std::sqrt(1.0f / static_cast<float>(hidden_size));
    wx_ = Param(Tensor::Randn({input_size, 4 * hidden_size}, rng, sx));
    wh_ = Param(Tensor::Randn({hidden_size, 4 * hidden_size}, rng, sh));
    b_ = Param(Tensor({4 * hidden_size}));
    // Positive forget-gate bias, the usual trick for trainability.
    for (int j = hidden_size; j < 2 * hidden_size; ++j)
        b_.value[j] = 1.0f;
}

Tensor
Lstm::Forward(const Tensor& x)
{
    SINAN_CHECK_EQ(x.Rank(), 3);
    SINAN_CHECK_SHAPE(x, x.Dim(0), x.Dim(1), wx_.value.Dim(0));
    x_cache_ = x;
    const int batch = x.Dim(0), steps = x.Dim(1), in = x.Dim(2);
    const int hid = HiddenSize();

    gates_.assign(steps, Tensor());
    h_states_.assign(steps + 1, Tensor({batch, hid}));
    c_states_.assign(steps + 1, Tensor({batch, hid}));

    Tensor xt({batch, in});
    for (int t = 0; t < steps; ++t) {
        for (int b = 0; b < batch; ++b)
            for (int i = 0; i < in; ++i)
                xt.At(b, i) = x.At(b, t, i);

        Tensor pre({batch, 4 * hid});
        MatMul(xt, wx_.value, pre);
        MatMul(h_states_[t], wh_.value, pre, /*accumulate=*/true);
        for (int b = 0; b < batch; ++b)
            for (int j = 0; j < 4 * hid; ++j)
                pre.At(b, j) += b_.value[j];

        Tensor gate({batch, 4 * hid});
        for (int b = 0; b < batch; ++b) {
            for (int j = 0; j < hid; ++j) {
                const float ig = Sigmoid(pre.At(b, j));
                const float fg = Sigmoid(pre.At(b, hid + j));
                const float gg = std::tanh(pre.At(b, 2 * hid + j));
                const float og = Sigmoid(pre.At(b, 3 * hid + j));
                gate.At(b, j) = ig;
                gate.At(b, hid + j) = fg;
                gate.At(b, 2 * hid + j) = gg;
                gate.At(b, 3 * hid + j) = og;
                const float c =
                    fg * c_states_[t].At(b, j) + ig * gg;
                c_states_[t + 1].At(b, j) = c;
                h_states_[t + 1].At(b, j) = og * std::tanh(c);
            }
        }
        gates_[t] = std::move(gate);
    }
    return h_states_[steps];
}

Tensor
Lstm::Backward(const Tensor& dy)
{
    const Tensor& x = x_cache_;
    const int batch = x.Dim(0), steps = x.Dim(1), in = x.Dim(2);
    const int hid = HiddenSize();
    SINAN_CHECK_EQ(dy.Rank(), 2);
    SINAN_CHECK_SHAPE(dy, batch, hid);

    Tensor dx({batch, steps, in});
    Tensor dh = dy;               // [B, H]
    Tensor dc({batch, hid});      // [B, H]
    Tensor xt({batch, in});

    for (int t = steps - 1; t >= 0; --t) {
        const Tensor& gate = gates_[t];
        Tensor dpre({batch, 4 * hid});
        for (int b = 0; b < batch; ++b) {
            for (int j = 0; j < hid; ++j) {
                const float ig = gate.At(b, j);
                const float fg = gate.At(b, hid + j);
                const float gg = gate.At(b, 2 * hid + j);
                const float og = gate.At(b, 3 * hid + j);
                const float c = c_states_[t + 1].At(b, j);
                const float tc = std::tanh(c);

                const float dht = dh.At(b, j);
                float dct = dc.At(b, j) + dht * og * (1.0f - tc * tc);

                // Gate pre-activation gradients.
                dpre.At(b, j) = dct * gg * ig * (1.0f - ig);
                dpre.At(b, hid + j) =
                    dct * c_states_[t].At(b, j) * fg * (1.0f - fg);
                dpre.At(b, 2 * hid + j) = dct * ig * (1.0f - gg * gg);
                dpre.At(b, 3 * hid + j) = dht * tc * og * (1.0f - og);

                dc.At(b, j) = dct * fg;
            }
        }

        // Parameter gradients.
        for (int b = 0; b < batch; ++b)
            for (int i = 0; i < in; ++i)
                xt.At(b, i) = x.At(b, t, i);
        MatMulTa(xt, dpre, wx_.Grad(), /*accumulate=*/true);
        MatMulTa(h_states_[t], dpre, wh_.Grad(), /*accumulate=*/true);
        Tensor& bgrad = b_.Grad();
        for (int b = 0; b < batch; ++b)
            for (int j = 0; j < 4 * hid; ++j)
                bgrad[j] += dpre.At(b, j);

        // Input gradient for this timestep.
        Tensor dxt({batch, in});
        MatMulTb(dpre, wx_.value, dxt);
        for (int b = 0; b < batch; ++b)
            for (int i = 0; i < in; ++i)
                dx.At(b, t, i) = dxt.At(b, i);

        // Hidden gradient flowing to t-1.
        Tensor dh_prev({batch, hid});
        MatMulTb(dpre, wh_.value, dh_prev);
        dh = std::move(dh_prev);
    }
    return dx;
}

} // namespace sinan
