/**
 * @file
 * Interface shared by all short-term latency predictors (the paper's
 * Table 2 compares a CNN against MLP and LSTM under this contract):
 * forward maps a Batch to normalized latency percentiles [B, M];
 * backward consumes the loss gradient.
 */
#ifndef SINAN_MODELS_LATENCY_MODEL_H
#define SINAN_MODELS_LATENCY_MODEL_H

#include <vector>

#include "models/features.h"
#include "nn/layer.h"

namespace sinan {

/** A trainable latency predictor over (X_RH, X_LH, X_RC) batches. */
class LatencyModel {
  public:
    virtual ~LatencyModel() = default;

    /** Predicts [B, M] normalized latency percentiles. */
    virtual Tensor Forward(const Batch& batch) = 0;

    /** Backpropagates the loss gradient of the last Forward. */
    virtual void Backward(const Tensor& dy) = 0;

    /** All trainable parameters. */
    virtual std::vector<Param*> Params() = 0;

    /** Human-readable name used in reports ("CNN", "MLP", "LSTM"). */
    virtual const char* Name() const = 0;

    /** Scalar parameter count (Table 2's model-size column). */
    size_t
    NumParams()
    {
        size_t n = 0;
        for (Param* p : Params())
            n += p->value.Size();
        return n;
    }
};

/**
 * Adds the persistence prior to a model's raw output: the newest
 * latency percentiles from X_LH are the natural baseline for the next
 * interval, so models predict the *deviation* from them. This
 * reparametrization conditions the optimization dramatically (the
 * trivial solution "latency persists" is the zero function).
 */
inline void
AddPersistenceResidual(const Batch& batch, const FeatureConfig& fcfg,
                       Tensor& y)
{
    const int b = y.Dim(0);
    const int m = fcfg.n_percentiles;
    const int base = (fcfg.history - 1) * m;
    for (int i = 0; i < b; ++i) {
        for (int p = 0; p < m; ++p)
            y.At(i, p) += batch.xlh.At(i, base + p);
    }
}

} // namespace sinan

#endif // SINAN_MODELS_LATENCY_MODEL_H
