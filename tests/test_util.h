/**
 * @file
 * Shared helpers for model-level tests: synthetic interval observations
 * and datasets with a known latency law, so learning tests can assert
 * that models recover it, plus the windows, candidate sets and
 * thread-count guard the inference tests share.
 */
#ifndef SINAN_TESTS_TEST_UTIL_H
#define SINAN_TESTS_TEST_UTIL_H

#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "models/features.h"

namespace sinan {
namespace testutil {

/** A small feature space used across model tests. */
inline FeatureConfig
SmallFeatures(int n_tiers = 4, int history = 3)
{
    FeatureConfig f;
    f.n_tiers = n_tiers;
    f.history = history;
    f.qos_ms = 500.0;
    f.violation_lookahead = 3;
    return f;
}

/** Builds one synthetic observation with the given utilization level. */
inline IntervalObservation
MakeObs(const FeatureConfig& f, double time_s, double rps, double cpu_limit,
        double util, double p99_ms, Rng* rng = nullptr)
{
    IntervalObservation obs;
    obs.time_s = time_s;
    obs.rps = rps;
    obs.completed_rps = rps;
    for (int i = 0; i < f.n_tiers; ++i) {
        TierMetrics m;
        m.cpu_limit = cpu_limit;
        m.cpu_used = cpu_limit * util;
        m.rss_mb = 100.0 + (rng ? rng->Uniform(0, 5) : 0.0);
        m.cache_mb = 50.0;
        m.rx_pps = rps * 4.0;
        m.tx_pps = rps * 4.0;
        m.queue_len = util > 0.9 ? 10.0 : 0.5;
        m.active = 2.0;
        m.queue_wait_s = util > 0.9 ? 0.02 : 0.0;
        obs.tiers.push_back(m);
    }
    obs.latency_ms = {p99_ms * 0.8, p99_ms * 0.85, p99_ms * 0.9,
                      p99_ms * 0.95, p99_ms};
    return obs;
}

/** A full window of identical observations at @p rps and @p p99. */
inline MetricWindow
MakeWindow(const FeatureConfig& f, double rps, double p99)
{
    MetricWindow w(f);
    for (int t = 0; t < f.history; ++t)
        w.Push(MakeObs(f, t, rps, 2.0, 0.6, p99));
    return w;
}

/** Candidate allocations with per-candidate and per-tier variation. */
inline std::vector<std::vector<double>>
MakeCandidates(const FeatureConfig& f, int n)
{
    std::vector<std::vector<double>> cands;
    for (int i = 0; i < n; ++i) {
        std::vector<double> a(static_cast<size_t>(f.n_tiers));
        for (int j = 0; j < f.n_tiers; ++j)
            a[static_cast<size_t>(j)] = 0.4 + 0.13 * ((i + j) % 17);
        cands.push_back(std::move(a));
    }
    return cands;
}

/** Restores the entry thread count on scope exit. */
class ThreadGuard {
  public:
    ThreadGuard() : saved_(NumThreads()) {}
    ~ThreadGuard() { SetNumThreads(saved_); }

  private:
    int saved_;
};

/** The synthetic queueing law: fine above the boundary, exploding below
 *  it. lat > 500 ms iff ratio < ~0.45. */
inline double
SyntheticLaw(double ratio)
{
    return ratio >= 1.0 ? 100.0
                        : 100.0 / std::max(0.1, ratio * ratio);
}

/**
 * A synthetic dataset mirroring the real prediction task: the history
 * window reflects the steady state under the *current* allocation
 * (utilization and latency consistent with the law), and the labeled
 * candidate allocation X_RC perturbs it by a bounded factor. Latency
 * explodes as allocation drops below the demand.
 */
inline Dataset
SyntheticDataset(const FeatureConfig& f, int n_samples, uint64_t seed)
{
    Rng rng(seed);
    Dataset data;
    MetricWindow window(f);
    for (int k = 0; k < n_samples; ++k) {
        const double rps = rng.Uniform(50, 400);
        const double demand = rps * 0.02; // cores needed in total
        const double ratio_cur = rng.Uniform(0.35, 2.5);
        const double alloc_cur = ratio_cur * demand;
        const double lat_cur = SyntheticLaw(ratio_cur);
        const double util = std::min(1.0, 1.0 / ratio_cur);

        window.Clear();
        for (int t = 0; t < f.history; ++t) {
            window.Push(MakeObs(f, t, rps, alloc_cur / f.n_tiers, util,
                                lat_cur + rng.Uniform(0, 15), &rng));
        }

        const double mult = rng.Uniform(0.6, 1.5);
        const double ratio_next = ratio_cur * mult;
        std::vector<double> alloc(f.n_tiers,
                                  alloc_cur * mult / f.n_tiers);
        Sample s = BuildInput(window, alloc);
        const double lat = SyntheticLaw(ratio_next) + rng.Uniform(0, 20);
        s.y_latency.resize(f.n_percentiles);
        for (int p = 0; p < f.n_percentiles; ++p) {
            s.y_latency[p] = static_cast<float>(
                lat * (0.8 + 0.05 * p) / f.qos_ms);
        }
        s.p99_ms = lat;
        s.violation = lat > f.qos_ms ? 1.0f : 0.0f;
        data.samples.push_back(std::move(s));
    }
    return data;
}

} // namespace testutil
} // namespace sinan

#endif // SINAN_TESTS_TEST_UTIL_H
