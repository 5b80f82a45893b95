#include "models/baseline_nets.h"

#include <stdexcept>

namespace sinan {

MlpPredictor::MlpPredictor(const FeatureConfig& fcfg, int hidden1,
                           int hidden2, uint64_t seed)
    : fcfg_(fcfg)
{
    Rng rng(seed);
    rh_len_ = FeatureConfig::kChannels * fcfg.n_tiers * fcfg.history;
    lh_len_ = fcfg.LatFeatures();
    rc_len_ = fcfg.n_tiers;
    const int in = rh_len_ + lh_len_ + rc_len_;
    net_.Emplace<Dense>(in, hidden1, rng);
    net_.Emplace<ReLU>();
    net_.Emplace<Dense>(hidden1, hidden2, rng);
    net_.Emplace<ReLU>();
    net_.Emplace<Dense>(hidden2, fcfg.n_percentiles, rng);
}

Tensor
MlpPredictor::Forward(const Batch& batch)
{
    const int b = batch.Size();
    Tensor x({b, rh_len_ + lh_len_ + rc_len_});
    for (int i = 0; i < b; ++i) {
        float* row = x.Data() +
                     static_cast<size_t>(i) * (rh_len_ + lh_len_ + rc_len_);
        std::copy(batch.xrh.Data() + static_cast<size_t>(i) * rh_len_,
                  batch.xrh.Data() + static_cast<size_t>(i + 1) * rh_len_,
                  row);
        std::copy(batch.xlh.Data() + static_cast<size_t>(i) * lh_len_,
                  batch.xlh.Data() + static_cast<size_t>(i + 1) * lh_len_,
                  row + rh_len_);
        std::copy(batch.xrc.Data() + static_cast<size_t>(i) * rc_len_,
                  batch.xrc.Data() + static_cast<size_t>(i + 1) * rc_len_,
                  row + rh_len_ + lh_len_);
    }
    Tensor y = net_.Forward(x);
    AddPersistenceResidual(batch, fcfg_, y);
    return y;
}

void
MlpPredictor::Backward(const Tensor& dy)
{
    net_.Backward(dy);
}

LstmPredictor::LstmPredictor(const FeatureConfig& fcfg, int hidden,
                             uint64_t seed)
    : fcfg_(fcfg), hidden_(hidden)
{
    Rng rng(seed);
    const int step_features =
        FeatureConfig::kChannels * fcfg.n_tiers + fcfg.n_percentiles;
    lstm_ = Lstm(step_features, hidden, rng);
    head_.Emplace<Dense>(hidden + fcfg.n_tiers, fcfg.n_percentiles, rng);
}

Tensor
LstmPredictor::MakeSequence(const Batch& batch) const
{
    const int b = batch.Size();
    const int t_len = fcfg_.history;
    const int n = fcfg_.n_tiers;
    const int m = fcfg_.n_percentiles;
    const int fpt = FeatureConfig::kChannels * n;
    Tensor seq({b, t_len, fpt + m});
    for (int i = 0; i < b; ++i) {
        for (int t = 0; t < t_len; ++t) {
            float* row = &seq.At(i, t, 0);
            // X_RH is [B, F, N, T]: gather all channels/tiers at time t.
            int k = 0;
            for (int c = 0; c < FeatureConfig::kChannels; ++c)
                for (int tier = 0; tier < n; ++tier)
                    row[k++] = batch.xrh.At(i, c, tier, t);
            for (int p = 0; p < m; ++p)
                row[k++] = batch.xlh.At(i, t * m + p);
        }
    }
    return seq;
}

Tensor
LstmPredictor::Forward(const Batch& batch)
{
    const int b = batch.Size();
    const Tensor h = lstm_.Forward(MakeSequence(batch));
    head_in_ = Tensor({b, hidden_ + fcfg_.n_tiers});
    for (int i = 0; i < b; ++i) {
        float* row =
            head_in_.Data() +
            static_cast<size_t>(i) * (hidden_ + fcfg_.n_tiers);
        std::copy(h.Data() + static_cast<size_t>(i) * hidden_,
                  h.Data() + static_cast<size_t>(i + 1) * hidden_, row);
        std::copy(
            batch.xrc.Data() + static_cast<size_t>(i) * fcfg_.n_tiers,
            batch.xrc.Data() + static_cast<size_t>(i + 1) * fcfg_.n_tiers,
            row + hidden_);
    }
    Tensor y = head_.Forward(head_in_);
    AddPersistenceResidual(batch, fcfg_, y);
    return y;
}

void
LstmPredictor::Backward(const Tensor& dy)
{
    const Tensor g = head_.Backward(dy);
    const int b = g.Dim(0);
    Tensor dh({b, hidden_});
    for (int i = 0; i < b; ++i) {
        const float* row =
            g.Data() + static_cast<size_t>(i) * (hidden_ + fcfg_.n_tiers);
        std::copy(row, row + hidden_,
                  dh.Data() + static_cast<size_t>(i) * hidden_);
    }
    lstm_.Backward(dh);
}

std::vector<Param*>
LstmPredictor::Params()
{
    std::vector<Param*> all = lstm_.Params();
    for (Param* p : head_.Params())
        all.push_back(p);
    return all;
}

} // namespace sinan
