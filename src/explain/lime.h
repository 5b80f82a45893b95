/**
 * @file
 * LIME-style interpretability for the latency predictor (paper Sec. 5.6).
 *
 * Following the paper's procedure: take an input X from a timestep of
 * interest (e.g., where QoS violations occur), generate perturbed samples
 * by multiplying a tier's (or a resource channel's) utilization history
 * with constants, label them with the model, fit a linear surrogate from
 * the perturbation coefficients to the predicted p99, and rank features
 * by the magnitude of their regression weights.
 */
#ifndef SINAN_EXPLAIN_LIME_H
#define SINAN_EXPLAIN_LIME_H

#include <functional>
#include <string>
#include <vector>

#include "models/latency_model.h"

namespace sinan {

/** One explanation: weights per group, ranked accessors. */
struct LimeExplanation {
    /** |weight| per group, aligned with the group naming used to build. */
    std::vector<double> weights;

    /** Indices of the top-k groups by |weight|. */
    std::vector<int> TopK(int k) const;
};

/** Perturbation-based linear surrogate explainer. */
class LimeExplainer {
  public:
    LimeExplainer(LatencyModel& model, const FeatureConfig& fcfg);

    /**
     * Importance of each tier for the prediction at @p x: all resource
     * channels of a tier's history are perturbed together. Returns one
     * weight per tier.
     */
    LimeExplanation ExplainTiers(const Sample& x);

    /**
     * Importance of each resource channel of @p tier (CPU limit, CPU
     * used, RSS, cache memory, RX, TX). Returns one weight per channel.
     */
    LimeExplanation ExplainResources(const Sample& x, int tier);

    /**
     * Averaged tier importance over several samples (the paper sums
     * weights over the violation timesteps it explains).
     */
    LimeExplanation ExplainTiersAveraged(const std::vector<Sample>& xs);

  private:
    /**
     * Core routine: @p n_groups perturbation variables; @p apply scales
     * group g of a sample copy by m. Fits ridge regression of predicted
     * p99 on the multipliers.
     */
    LimeExplanation
    Explain(const Sample& x, int n_groups,
            const std::function<void(Sample&, int, double)>& apply);

    LatencyModel& model_;
    FeatureConfig fcfg_;
};

/**
 * Solves (A + lambda I) w = b for symmetric positive semi-definite A via
 * Gaussian elimination with partial pivoting. Exposed for testing.
 */
std::vector<double> SolveRidge(std::vector<std::vector<double>> a,
                               std::vector<double> b, double lambda);

} // namespace sinan

#endif // SINAN_EXPLAIN_LIME_H
