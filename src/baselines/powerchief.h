/**
 * @file
 * PowerChief-style queueing-analysis manager (Yang et al., ISCA'17), the
 * paper's research baseline: it estimates per-tier queueing from network
 * traces, declares the tier with the longest ingress queue the
 * bottleneck, and boosts that tier's resources while reclaiming from
 * apparently idle stages.
 *
 * As the paper argues (Sec. 5.3), in microservice graphs the longest
 * queue is often a symptom of a downstream culprit rather than the
 * culprit itself, so this policy misdirects resources under
 * back-pressure — the behaviour our Figure 11 reproduction shows.
 */
#ifndef SINAN_BASELINES_POWERCHIEF_H
#define SINAN_BASELINES_POWERCHIEF_H

#include "core/manager.h"

namespace sinan {

/** Queue-driven boosting manager. */
class PowerChief : public ResourceManager {
  public:
    /** Boost ratio applied to the bottleneck tier. */
    static constexpr double kBoostRatio = 0.30;
    /** How many of the longest-queue tiers get boosted per interval. */
    static constexpr int kBoostTopK = 3;
    /** Reclaim ratio for idle tiers. */
    static constexpr double kReclaimRatio = 0.10;
    /** Utilization below which an unqueued tier is considered idle. */
    static constexpr double kIdleUtil = 0.30;
    /** Queueing time (s) below which a tier is queue-free. */
    static constexpr double kIdleWaitS = 0.002;
    /** Reclaim floor as a multiple of measured usage (keeps the manager
     *  from starving tiers outright at low load). */
    static constexpr double kReclaimFloorHeadroom = 1.4;


    std::vector<double> Decide(const IntervalObservation& obs,
                               const std::vector<double>& alloc,
                               const Application& app) override;

    const char* Name() const override { return "PowerChief"; }
};

} // namespace sinan

#endif // SINAN_BASELINES_POWERCHIEF_H
