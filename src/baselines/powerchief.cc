#include "baselines/powerchief.h"

#include <algorithm>
#include <numeric>

#include "common/telemetry.h"

namespace sinan {

std::vector<double>
PowerChief::Decide(const IntervalObservation& obs,
                   const std::vector<double>& alloc, const Application& app)
{
    // Degraded telemetry: hold rather than rank tiers on missing or
    // NaN queueing signals.
    if (!TelemetryUsable(obs, alloc.size()))
        return alloc;
    const int n = static_cast<int>(alloc.size());
    std::vector<double> next(alloc);

    // Rank tiers by estimated ingress queueing (mean admission wait
    // weighted by queue length — what network-trace analysis would see).
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    auto queueing = [&](int i) {
        return obs.tiers[i].queue_wait_s * (1.0 + obs.tiers[i].queue_len);
    };
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return queueing(a) > queueing(b); });

    // Boost the apparent bottlenecks.
    for (int r = 0; r < kBoostTopK && r < n; ++r) {
        const int i = order[r];
        if (queueing(i) <= kIdleWaitS)
            break; // nothing is queueing anywhere
        next[i] = alloc[i] * (1.0 + kBoostRatio) + 0.2;
    }

    // Reclaim from stages that show no queue and low utilization, but
    // never below a headroom multiple of their measured usage.
    for (int i = 0; i < n; ++i) {
        if (queueing(i) <= kIdleWaitS &&
            obs.tiers[i].Utilization() < kIdleUtil) {
            next[i] = std::max(alloc[i] * (1.0 - kReclaimRatio),
                               obs.tiers[i].cpu_used *
                                   kReclaimFloorHeadroom);
        }
    }

    for (int i = 0; i < n; ++i)
        next[i] = std::clamp(next[i], app.tiers[i].min_cpu,
                             app.tiers[i].max_cpu);
    return next;
}

} // namespace sinan
