/**
 * @file
 * Per-interval telemetry types shared by the cluster substrate that
 * produces them and the models/managers that consume them.
 *
 * This mirrors what the paper's per-node agents read from Docker's cgroup
 * interface every decision interval: CPU usage, memory usage (resident
 * set size and cache memory), network packet counts, plus the end-to-end
 * latency percentiles from the API gateway. Queue statistics are also
 * exported because the PowerChief baseline needs them.
 *
 * These are pure data carriers with no cluster dependencies, which is
 * why they live in common/: models (layer 3) consumes them and cluster
 * (layer 4) produces them, so hosting them in cluster/ would force an
 * upward include (see tools/analyze/layers.txt).
 */
#ifndef SINAN_COMMON_TELEMETRY_H
#define SINAN_COMMON_TELEMETRY_H

#include <cmath>
#include <cstddef>
#include <iterator>
#include <vector>

#include "common/percentile_row.h"

namespace sinan {

/** One tier's metrics over one decision interval. */
struct TierMetrics {
    /** CPU limit (cores) in force during the interval. */
    double cpu_limit = 0.0;
    /** Average cores actually consumed. */
    double cpu_used = 0.0;
    /** Resident set size, MB (end of interval). */
    double rss_mb = 0.0;
    /** Page/dataset cache memory, MB (end of interval). */
    double cache_mb = 0.0;
    /** Received / transmitted packets per second. */
    double rx_pps = 0.0;
    double tx_pps = 0.0;
    /** Average admission-queue length (requests waiting for a slot). */
    double queue_len = 0.0;
    /** Average occupied concurrency slots. */
    double active = 0.0;
    /** Mean time spent waiting in the admission queue, seconds. */
    double queue_wait_s = 0.0;

    /** Utilization of the allocated CPU (used / limit). */
    double
    Utilization() const
    {
        return cpu_limit > 0.0 ? cpu_used / cpu_limit : 0.0;
    }
};

/** Cluster-wide snapshot delivered to resource managers every interval. */
struct IntervalObservation {
    /** Simulated time at the end of the interval. */
    double time_s = 0.0;
    /** Requests injected per second during the interval (gateway stats). */
    double rps = 0.0;
    /** Requests completed per second during the interval. */
    double completed_rps = 0.0;
    /** Per-tier telemetry, indexed like Application::tiers. */
    std::vector<TierMetrics> tiers;
    /** End-to-end tail latencies in ms: p95, p96, p97, p98, p99. */
    std::vector<double> latency_ms;

    /** The p99 end-to-end latency (the QoS metric), ms. */
    double
    P99() const
    {
        return latency_ms.empty() ? 0.0 : latency_ms.back();
    }

    /** Aggregate CPU cores allocated across tiers. */
    double
    TotalCpuLimit() const
    {
        double s = 0.0;
        for (const auto& t : tiers)
            s += t.cpu_limit;
        return s;
    }
};

/** True when every numeric field of @p t is finite. Tier-targeted NaN
 *  faults poison individual tiers, so graded telemetry assessment
 *  (core/telemetry_guard.h) needs the per-tier check on its own. */
inline bool
TierMetricsFinite(const TierMetrics& t)
{
    return std::isfinite(t.cpu_limit) && std::isfinite(t.cpu_used) &&
           std::isfinite(t.rss_mb) && std::isfinite(t.cache_mb) &&
           std::isfinite(t.rx_pps) && std::isfinite(t.tx_pps) &&
           std::isfinite(t.queue_len) && std::isfinite(t.active) &&
           std::isfinite(t.queue_wait_s);
}

/** True when every numeric field of @p obs is finite. Fault injection
 *  (sim/fault_injector.h) can deliver NaN-poisoned observations; this
 *  is the check managers run before trusting one. */
inline bool
ObservationFinite(const IntervalObservation& obs)
{
    if (!std::isfinite(obs.time_s) || !std::isfinite(obs.rps) ||
        !std::isfinite(obs.completed_rps))
        return false;
    for (double v : obs.latency_ms) {
        if (!std::isfinite(v))
            return false;
    }
    for (const TierMetrics& t : obs.tiers) {
        if (!TierMetricsFinite(t))
            return false;
    }
    return true;
}

/** True when @p obs carries a complete, finite payload for an
 *  application with @p n_tiers tiers — the precondition for feeding it
 *  to a model or a scaling rule. */
inline bool
TelemetryUsable(const IntervalObservation& obs, size_t n_tiers)
{
    return obs.tiers.size() == n_tiers && !obs.latency_ms.empty() &&
           ObservationFinite(obs);
}

/** Latency percentiles reported per interval (p95..p99); one level
 *  per PercentileRow slot. */
inline const std::vector<double>&
LatencyQuantiles()
{
    static constexpr double kLevels[] = {0.95, 0.96, 0.97, 0.98, 0.99};
    static_assert(std::size(kLevels) == PercentileRow::kCapacity);
    static const std::vector<double> qs(std::begin(kLevels),
                                        std::end(kLevels));
    return qs;
}

} // namespace sinan

#endif // SINAN_COMMON_TELEMETRY_H
