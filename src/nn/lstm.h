/**
 * @file
 * Single-layer LSTM returning the last hidden state, used as the
 * timeseries baseline of the paper's Table 2. Input is [B, T, I]; the
 * output [B, H] feeds a Dense head.
 */
#ifndef SINAN_NN_LSTM_H
#define SINAN_NN_LSTM_H

#include "nn/layer.h"

namespace sinan {

/** LSTM with full backpropagation through time. */
class Lstm : public Layer {
  public:
    /** Uninitialized layer; assign a constructed one before use. */
    Lstm() = default;

    Lstm(int input_size, int hidden_size, Rng& rng);

    /** x: [B, T, I] -> returns last hidden state [B, H]. */
    Tensor Forward(const Tensor& x) override;

    /** dy: [B, H] -> returns dx [B, T, I]. */
    Tensor Backward(const Tensor& dy) override;

    std::vector<Param*> Params() override { return {&wx_, &wh_, &b_}; }

    int HiddenSize() const { return wh_.value.Dim(0); }

  private:
    // Gate order within the 4H axis: input, forget, cell(g), output.
    Param wx_; // [I, 4H]
    Param wh_; // [H, 4H]
    Param b_;  // [4H]

    Tensor x_cache_;               // [B, T, I]
    std::vector<Tensor> gates_;    // per t: [B, 4H] post-activation
    std::vector<Tensor> h_states_; // h_0..h_T, each [B, H]
    std::vector<Tensor> c_states_; // c_0..c_T, each [B, H]
};

} // namespace sinan

#endif // SINAN_NN_LSTM_H
