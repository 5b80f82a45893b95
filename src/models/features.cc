#include "models/features.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/check.h"

namespace sinan {

namespace {

/** Inputs are clipped to a sane normalized range: during queueing
 *  explosions raw latencies can reach tens of times the QoS, which
 *  destabilizes training (exploding gradients) without adding signal. */
constexpr float kMaxNormalizedInput = 4.0f;

float
Clip(double v)
{
    return static_cast<float>(std::clamp(v, 0.0,
                                         double{kMaxNormalizedInput}));
}

} // namespace

void
BuildHistoryRow(const MetricWindow& window, Tensor& xrh, Tensor& xlh,
                int row)
{
    const FeatureConfig& cfg = window.Config();
    if (!window.Ready())
        throw std::logic_error("BuildInput: window not full yet");

    const int n = cfg.n_tiers;
    const int t_len = cfg.history;
    const int m = cfg.n_percentiles;
    SINAN_CHECK_SHAPE(xrh, xrh.Dim(0), FeatureConfig::kChannels, n, t_len);
    SINAN_CHECK_SHAPE(xlh, xrh.Dim(0), t_len * m);
    SINAN_CHECK_BOUNDS(row, 0, xrh.Dim(0) - 1);
    // Channel c of the row is the [n, t_len] plane at rh + c * plane.
    const size_t plane = static_cast<size_t>(n) * t_len;
    float* rh = xrh.Data() +
                static_cast<size_t>(row) * FeatureConfig::kChannels * plane;
    float* lh = xlh.Data() + static_cast<size_t>(row) * t_len * m;

    for (int t = 0; t < t_len; ++t) {
        const IntervalObservation& obs = window.At(static_cast<size_t>(t));
        if (static_cast<int>(obs.tiers.size()) != n)
            throw std::invalid_argument("BuildInput: tier count mismatch");
        for (int i = 0; i < n; ++i) {
            const TierMetrics& tm = obs.tiers[i];
            float* x = rh + static_cast<size_t>(i) * t_len + t;
            x[0 * plane] = Clip(tm.cpu_limit / FeatureConfig::kCpuScale);
            x[1 * plane] = Clip(tm.cpu_used / FeatureConfig::kCpuScale);
            x[2 * plane] = Clip(tm.rss_mb / FeatureConfig::kRssScale);
            x[3 * plane] = Clip(tm.cache_mb / FeatureConfig::kCacheScale);
            x[4 * plane] = Clip(tm.rx_pps / FeatureConfig::kPpsScale);
            x[5 * plane] = Clip(tm.tx_pps / FeatureConfig::kPpsScale);
        }
        for (int p = 0; p < m; ++p) {
            const double lat =
                p < static_cast<int>(obs.latency_ms.size())
                    ? obs.latency_ms[p]
                    : 0.0;
            lh[t * m + p] = Clip(lat / cfg.qos_ms);
        }
    }
}

void
BuildAllocRow(const FeatureConfig& cfg,
              const std::vector<double>& next_alloc, Tensor& xrc, int row)
{
    if (static_cast<int>(next_alloc.size()) != cfg.n_tiers)
        throw std::invalid_argument("BuildInput: allocation size mismatch");
    // Checked without SINAN_CHECK_SHAPE's vector: this runs once per
    // candidate.
    SINAN_CHECK_EQ(xrc.Rank(), 2);
    SINAN_CHECK_EQ(xrc.Dim(1), cfg.n_tiers);
    SINAN_CHECK_BOUNDS(row, 0, xrc.Dim(0) - 1);
    float* x = xrc.Data() + static_cast<size_t>(row) * cfg.n_tiers;
    for (int i = 0; i < cfg.n_tiers; ++i)
        x[i] = Clip(next_alloc[i] / FeatureConfig::kCpuScale);
}

Sample
BuildInput(const MetricWindow& window, const std::vector<double>& next_alloc)
{
    const FeatureConfig& cfg = window.Config();
    if (!window.Ready())
        throw std::logic_error("BuildInput: window not full yet");
    if (static_cast<int>(next_alloc.size()) != cfg.n_tiers)
        throw std::invalid_argument("BuildInput: allocation size mismatch");

    Sample s;
    const int n = cfg.n_tiers;
    const int t_len = cfg.history;
    const int m = cfg.n_percentiles;

    // Build through the row writers on a batch of 1, then drop the
    // batch dimension in place (no data copy).
    s.xrh = Tensor({1, FeatureConfig::kChannels, n, t_len});
    s.xlh = Tensor({1, t_len * m});
    s.xrc = Tensor({1, n});
    BuildHistoryRow(window, s.xrh, s.xlh, 0);
    BuildAllocRow(cfg, next_alloc, s.xrc, 0);
    s.xrh.ReshapeInPlace({FeatureConfig::kChannels, n, t_len});
    s.xlh.ReshapeInPlace({t_len * m});
    s.xrc.ReshapeInPlace({n});
    return s;
}

Batch
StackSamples(const std::vector<const Sample*>& samples)
{
    if (samples.empty())
        throw std::invalid_argument("StackSamples: empty batch");
    const int b = static_cast<int>(samples.size());
    const auto& rh_shape = samples[0]->xrh.Shape();
    Batch batch;
    batch.xrh = Tensor({b, rh_shape[0], rh_shape[1], rh_shape[2]});
    batch.xlh = Tensor({b, samples[0]->xlh.Dim(0)});
    batch.xrc = Tensor({b, samples[0]->xrc.Dim(0)});
    const size_t rh_sz = samples[0]->xrh.Size();
    const size_t lh_sz = samples[0]->xlh.Size();
    const size_t rc_sz = samples[0]->xrc.Size();
    for (int i = 0; i < b; ++i) {
        const Sample& s = *samples[i];
        if (s.xrh.Size() != rh_sz || s.xlh.Size() != lh_sz ||
            s.xrc.Size() != rc_sz) {
            throw std::invalid_argument("StackSamples: ragged samples");
        }
        std::copy(s.xrh.Data(), s.xrh.Data() + rh_sz,
                  batch.xrh.Data() + static_cast<size_t>(i) * rh_sz);
        std::copy(s.xlh.Data(), s.xlh.Data() + lh_sz,
                  batch.xlh.Data() + static_cast<size_t>(i) * lh_sz);
        std::copy(s.xrc.Data(), s.xrc.Data() + rc_sz,
                  batch.xrc.Data() + static_cast<size_t>(i) * rc_sz);
    }
    return batch;
}

std::pair<Dataset, Dataset>
Dataset::Split(double train_frac, Rng& rng) const
{
    if (train_frac <= 0.0 || train_frac >= 1.0)
        throw std::invalid_argument("Dataset::Split: bad fraction");
    std::vector<int> order(samples.size());
    std::iota(order.begin(), order.end(), 0);
    // Fisher-Yates with the deterministic Rng.
    for (size_t i = order.size(); i > 1; --i) {
        const size_t j = rng.UniformInt(static_cast<uint64_t>(i));
        std::swap(order[i - 1], order[j]);
    }
    const size_t n_train =
        static_cast<size_t>(train_frac * static_cast<double>(order.size()));
    Dataset train, valid;
    train.samples.reserve(n_train);
    valid.samples.reserve(order.size() - n_train);
    for (size_t i = 0; i < order.size(); ++i) {
        if (i < n_train)
            train.samples.push_back(samples[order[i]]);
        else
            valid.samples.push_back(samples[order[i]]);
    }
    return {std::move(train), std::move(valid)};
}

Batch
Dataset::MakeBatch(const std::vector<int>& indices, size_t begin,
                   size_t end) const
{
    std::vector<const Sample*> ptrs;
    ptrs.reserve(end - begin);
    for (size_t i = begin; i < end; ++i)
        ptrs.push_back(&samples[indices[i]]);
    return StackSamples(ptrs);
}

Tensor
Dataset::MakeLatencyTargets(const std::vector<int>& indices, size_t begin,
                            size_t end) const
{
    const int b = static_cast<int>(end - begin);
    const int m = static_cast<int>(samples[indices[begin]].y_latency.size());
    Tensor y({b, m});
    for (int i = 0; i < b; ++i) {
        const Sample& s = samples[indices[begin + i]];
        for (int p = 0; p < m; ++p)
            y.At(i, p) = s.y_latency[p];
    }
    return y;
}

double
Dataset::ViolationRate() const
{
    if (samples.empty())
        return 0.0;
    double acc = 0.0;
    for (const Sample& s : samples)
        acc += static_cast<double>(s.violation);
    return acc / static_cast<double>(samples.size());
}

} // namespace sinan
