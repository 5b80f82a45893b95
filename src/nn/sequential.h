/**
 * @file
 * Ordered container of layers with chained forward/backward, used both
 * standalone (MLP baseline) and as the branch blocks of Sinan's
 * multi-input CNN.
 */
#ifndef SINAN_NN_SEQUENTIAL_H
#define SINAN_NN_SEQUENTIAL_H

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace sinan {

/** A pipeline of layers applied in order. */
class Sequential : public Layer {
  public:
    Sequential() = default;

    /** Appends a layer, returning *this for chaining. */
    Sequential&
    Add(std::unique_ptr<Layer> layer)
    {
        layers_.push_back(std::move(layer));
        return *this;
    }

    /** Convenience: constructs the layer in place. */
    template <typename L, typename... Args>
    Sequential&
    Emplace(Args&&... args)
    {
        layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
        return *this;
    }

    Tensor
    Forward(const Tensor& x) override
    {
        Tensor h = x;
        for (auto& l : layers_)
            h = l->Forward(h);
        return h;
    }

    Tensor
    Backward(const Tensor& dy) override
    {
        Tensor g = dy;
        for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
            g = (*it)->Backward(g);
        return g;
    }

    std::vector<Param*>
    Params() override
    {
        std::vector<Param*> all;
        for (auto& l : layers_) {
            for (Param* p : l->Params())
                all.push_back(p);
        }
        return all;
    }

    size_t NumLayers() const { return layers_.size(); }

  private:
    std::vector<std::unique_ptr<Layer>> layers_;
};

} // namespace sinan

#endif // SINAN_NN_SEQUENTIAL_H
