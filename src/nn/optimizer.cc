#include "nn/optimizer.h"

#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace sinan {

Sgd::Sgd(std::vector<Param*> params, double lr, double momentum,
         double weight_decay, double clip_norm)
    : params_(std::move(params)), lr_(lr), momentum_(momentum),
      weight_decay_(weight_decay), clip_norm_(clip_norm)
{
    SINAN_CHECK_GT(lr, 0.0);
    velocity_.reserve(params_.size());
    for (Param* p : params_)
        velocity_.emplace_back(p->value.Shape());
}

void
Sgd::Step()
{
    double scale = 1.0;
    if (clip_norm_ > 0.0) {
        double sq = 0.0;
        for (Param* p : params_) {
            const Tensor& grad = p->Grad();
            for (size_t i = 0; i < grad.Size(); ++i)
                sq += static_cast<double>(grad[i]) *
                      static_cast<double>(grad[i]);
        }
        const double norm = std::sqrt(sq);
        if (norm > clip_norm_)
            scale = clip_norm_ / norm;
    }
    for (size_t k = 0; k < params_.size(); ++k) {
        Param& p = *params_[k];
        const Tensor& grad = p.Grad();
        Tensor& v = velocity_[k];
        for (size_t i = 0; i < p.value.Size(); ++i) {
            const float g = static_cast<float>(scale) * grad[i] +
                            static_cast<float>(weight_decay_) * p.value[i];
            v[i] = static_cast<float>(momentum_) * v[i] -
                   static_cast<float>(lr_) * g;
            p.value[i] += v[i];
        }
    }
}

void
Sgd::ZeroGrad()
{
    for (Param* p : params_)
        p->ZeroGrad();
}

} // namespace sinan
