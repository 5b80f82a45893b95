/**
 * @file
 * The reference the hybrid-model parity tests and the legacy
 * benchmark compare HybridModel::Evaluate against: every candidate is
 * stacked into one batch with its own copy of the window history, the
 * complete CNN (SinanCnn::Forward, trunk included) runs per row, and
 * each row's Boosted-Trees input is assembled here from the public
 * latent, in the documented layout, rather than by the code under
 * test.
 */
#ifndef SINAN_TESTS_HYBRID_REFERENCE_H
#define SINAN_TESTS_HYBRID_REFERENCE_H

#include <vector>

#include "models/hybrid.h"

namespace sinan {
namespace testutil {

/** The window aggregates a BT row ends with, after the total
 *  allocation. */
struct WindowAggregates {
    float cur_p99 = 0.0f;
    float util = 0.0f;
    float traffic = 0.0f;
};

/** Aggregates of row 0 of the history tensors: current p99, mean
 *  utilization and traffic of the newest history step, accumulated
 *  over tiers in ascending order (channel 0 = cpu limit, 1 = cpu used,
 *  4 = rx pps). */
inline WindowAggregates
ReferenceAggregates(const FeatureConfig& f, const Tensor& xrh,
                    const Tensor& xlh)
{
    const int n = f.n_tiers;
    const int t_last = f.history - 1;
    WindowAggregates a;
    a.cur_p99 = xlh.At(0, f.LatFeatures() - 1);
    for (int i = 0; i < n; ++i) {
        const float limit = xrh.At(0, 0, i, t_last);
        const float used = xrh.At(0, 1, i, t_last);
        a.util += limit > 1e-6f ? used / limit : 0.0f;
        a.traffic += xrh.At(0, 4, i, t_last);
    }
    a.util /= static_cast<float>(n);
    return a;
}

/** Scores @p allocations against @p window through the full-batch
 *  CNN forward. A BT row is [L_f | X_RC | total allocation, current
 *  p99, mean utilization, traffic]; the last three come from the
 *  newest history step, accumulated over tiers in ascending order. */
inline std::vector<Prediction>
EvaluateFullBatchReference(
    HybridModel& model, const MetricWindow& window,
    const std::vector<std::vector<double>>& allocations)
{
    if (allocations.empty())
        return {};
    const FeatureConfig& f = model.Features();
    const int n = f.n_tiers;
    const int n_cands = static_cast<int>(allocations.size());

    Batch batch;
    batch.xrh = Tensor({n_cands, FeatureConfig::kChannels, n, f.history});
    batch.xlh = Tensor({n_cands, f.LatFeatures()});
    batch.xrc = Tensor({n_cands, n});
    for (int i = 0; i < n_cands; ++i) {
        BuildHistoryRow(window, batch.xrh, batch.xlh, i);
        BuildAllocRow(f, allocations[static_cast<size_t>(i)], batch.xrc,
                      i);
    }
    const Tensor pred = model.Cnn().Forward(batch);
    const Tensor& latent = model.Cnn().Latent();
    const int m = pred.Dim(1);
    const int latent_dim = latent.Dim(1);
    // Identical for every row.
    const WindowAggregates agg =
        ReferenceAggregates(f, batch.xrh, batch.xlh);

    std::vector<Prediction> out(static_cast<size_t>(n_cands));
    std::vector<float> row;
    for (int c = 0; c < n_cands; ++c) {
        Prediction& p = out[static_cast<size_t>(c)];
        p.latency_ms.resize(static_cast<size_t>(m));
        for (int j = 0; j < m; ++j)
            p.latency_ms[static_cast<size_t>(j)] =
                static_cast<double>(pred.At(c, j)) * f.qos_ms;

        row.clear();
        for (int j = 0; j < latent_dim; ++j)
            row.push_back(latent.At(c, j));
        float total_alloc = 0.0f;
        for (int j = 0; j < n; ++j) {
            row.push_back(batch.xrc.At(c, j));
            total_alloc += batch.xrc.At(c, j);
        }
        row.insert(row.end(),
                   {total_alloc, agg.cur_p99, agg.util, agg.traffic});
        p.p_violation = model.Bt().Predict(row);
    }
    return out;
}

} // namespace testutil
} // namespace sinan

#endif // SINAN_TESTS_HYBRID_REFERENCE_H
