/**
 * @file
 * The paper's training-data collection algorithm (Sec. 4.2): a
 * multi-armed bandit in which every tier is an independent arm. The
 * mapping from a tier's resource level to "end-to-end QoS met" is modeled
 * as a Bernoulli distribution per (running state, resource level); each
 * interval the explorer picks, per tier, the operation maximizing the
 * expected reduction of the Bernoulli confidence interval (Eq. 3), scaled
 * by per-operation coefficients C_op that encourage meeting QoS while
 * discouraging overprovisioning.
 *
 * Guard rails (paper Sec. 4.2): operations come from a fixed set
 * (+-0.2..1.0 CPU, +-10%/30%), a per-tier utilization cap blocks overly
 * aggressive downsizing, reclamation is disabled while the tail latency
 * exceeds the QoS, and exploration is confined to the [0, QoS*(1+alpha)]
 * latency region, upscale being forced beyond it.
 */
#ifndef SINAN_COLLECT_BANDIT_H
#define SINAN_COLLECT_BANDIT_H

#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/manager.h"

namespace sinan {

/** Bandit explorer configuration. */
struct BanditConfig {
    /** End-to-end QoS target, ms. */
    double qos_ms = 500.0;
    /** Probability that a tier may pick a down op in a given interval;
     *  throttles the collective descent rate toward the boundary so the
     *  system does not oscillate across it every few seconds. */
    double down_eligibility = 0.35;
    /** Eligibility used instead when a tier is nearly idle (utilization
     *  below BanditExplorer::kIdleUtil): heavily overprovisioned tiers
     *  may shed CPU quickly or the descent never reaches the low-load
     *  boundary within one load-dwell. */
    double idle_down_eligibility = 0.8;
    /** RNG seed for tie-breaking. */
    uint64_t seed = 11;
};

/** Bandit-driven explorer; plugs in as a ResourceManager. */
class BanditExplorer : public ResourceManager {
  public:
    /** Exploration overshoot: allowed region is QoS * (1 + kAlpha). */
    static constexpr double kAlpha = 0.2;
    /** Per-tier CPU utilization cap above which downsizing is blocked. */
    static constexpr double kUtilCap = 0.8;
    /** CPU allocation quantum (paper: 0.2 CPU). */
    static constexpr double kQuantum = 0.2;
    /** Intervals with downsizing disabled after a QoS violation, so the
     *  drained system stabilizes before exploration resumes. */
    static constexpr int kRecoveryHold = 5;
    /** Utilization below which a tier counts as nearly idle (see
     *  BanditConfig::idle_down_eligibility). */
    static constexpr double kIdleUtil = 0.25;
    /** Per-tier cap on recovery upscaling, as a multiple of the tier's
     *  allocation when the violation episode began (prevents the
     *  multiplicative recovery from overshooting far past the
     *  boundary). */
    static constexpr double kRecoveryCap = 2.2;
    /** Upscale factor applied to loaded tiers while QoS is violated
     *  inside the exploration region. Deliberately moderate: a heavier
     *  hand drifts the whole trajectory to high allocations and the
     *  dataset loses its boundary coverage. */
    static constexpr double kViolationBoost = 1.15;

    explicit BanditExplorer(const BanditConfig& cfg);

    std::vector<double> Decide(const IntervalObservation& obs,
                               const std::vector<double>& alloc,
                               const Application& app) override;

    const char* Name() const override { return "BanditExplorer"; }

    void Reset() override;

    /** Number of distinct (tier,state,level) cells visited. */
    size_t CellsVisited() const { return stats_.size(); }

  private:
    struct Cell {
        int n = 0;
        int successes = 0;
    };

    /** Discretizes the running state (rps, lat_cur, lat_diff). */
    int StateOf(const IntervalObservation& obs) const;

    /** Confidence-interval reduction of Eq. 3 for one cell. */
    double InfoGain(const Cell& cell) const;

    static uint64_t
    KeyOf(int tier, int state, int level)
    {
        return (static_cast<uint64_t>(tier) << 40) ^
               (static_cast<uint64_t>(state) << 20) ^
               static_cast<uint64_t>(level);
    }

    BanditConfig cfg_;
    Rng rng_;
    std::unordered_map<uint64_t, Cell> stats_;

    /** Pending (state, level) per tier, updated on the next outcome. */
    std::vector<std::pair<int, int>> pending_;
    /** Remaining intervals of the post-violation no-reclaim hold. */
    int hold_left_ = 0;
    /** Per-tier allocation at the start of the violation episode. */
    std::vector<double> anchor_;
    double prev_p99_ = 0.0;
    bool has_prev_ = false;
};

} // namespace sinan

#endif // SINAN_COLLECT_BANDIT_H
