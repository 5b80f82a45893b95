/**
 * @file
 * Neural-network building blocks: the Layer interface and its trainable
 * Param bundle. Layers cache their forward inputs so Backward can be
 * called with only the upstream gradient; parameter gradients accumulate
 * until the optimizer consumes and clears them. A gradient buffer exists
 * only once training touches it, so a loaded or cloned inference model
 * holds its weights alone.
 */
#ifndef SINAN_NN_LAYER_H
#define SINAN_NN_LAYER_H

#include <vector>

#include "tensor/tensor.h"

namespace sinan {

/** A trainable tensor with its lazily sized, accumulated gradient. */
class Param {
  public:
    Tensor value;

    explicit Param(Tensor v = Tensor()) : value(std::move(v)) {}

    /** The gradient, zero-filled to value's shape on first use: the
     *  buffer Backward accumulates into and the optimizer reads. */
    Tensor&
    Grad()
    {
        if (grad_.Shape() != value.Shape())
            grad_ = Tensor(value.Shape());
        return grad_;
    }

    /** True once training has sized the gradient buffer. */
    bool HasGrad() const { return !grad_.Empty(); }

    void ZeroGrad() { Grad().Fill(0.0f); }

  private:
    Tensor grad_;
};

/** Base class of all differentiable layers. */
class Layer {
  public:
    virtual ~Layer() = default;

    /**
     * Computes the layer output for a batched input and caches whatever
     * Backward needs. Calling Forward invalidates the previous cache.
     */
    virtual Tensor Forward(const Tensor& x) = 0;

    /**
     * Propagates @p dy (gradient w.r.t. the last Forward's output) back,
     * returning the gradient w.r.t. that Forward's input and accumulating
     * parameter gradients.
     */
    virtual Tensor Backward(const Tensor& dy) = 0;

    /** Trainable parameters (empty for stateless layers). */
    virtual std::vector<Param*> Params() { return {}; }

    /** Number of scalar parameters (for the paper's model-size column). */
    size_t
    NumParams()
    {
        size_t n = 0;
        for (Param* p : Params())
            n += p->value.Size();
        return n;
    }
};

} // namespace sinan

#endif // SINAN_NN_LAYER_H
