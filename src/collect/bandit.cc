#include "collect/bandit.h"

#include <algorithm>
#include <cmath>

namespace sinan {

namespace {

/** Candidate per-tier operations: absolute core deltas and ratios. */
struct Op {
    double delta_cores = 0.0; // absolute change
    double ratio = 0.0;       // relative change (applied to current)
    bool is_up = false;
    bool is_down = false;
};

std::vector<Op>
OpSet()
{
    std::vector<Op> ops;
    ops.push_back(Op{}); // hold
    for (double d = 0.2; d <= 1.0 + 1e-9; d += 0.2) {
        ops.push_back(Op{d, 0.0, true, false});
        ops.push_back(Op{-d, 0.0, false, true});
    }
    ops.push_back(Op{0.0, 0.10, true, false});
    ops.push_back(Op{0.0, 0.30, true, false});
    ops.push_back(Op{0.0, -0.10, false, true});
    ops.push_back(Op{0.0, -0.30, false, true});
    return ops;
}

} // namespace

BanditExplorer::BanditExplorer(const BanditConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed)
{
}

void
BanditExplorer::Reset()
{
    stats_.clear();
    pending_.clear();
    prev_p99_ = 0.0;
    has_prev_ = false;
    hold_left_ = 0;
    anchor_.clear();
}

int
BanditExplorer::StateOf(const IntervalObservation& obs) const
{
    // rps on a log2 scale, tail latency in thirds of QoS (capped), and
    // the latency trend in {draining, stable, accumulating}.
    const int rps_b = static_cast<int>(std::log2(obs.rps + 2.0));
    const double lat = obs.P99();
    const int lat_b =
        std::min(5, static_cast<int>(lat / (cfg_.qos_ms / 3.0)));
    const double diff = has_prev_ ? lat - prev_p99_ : 0.0;
    int diff_b = 1;
    if (diff < -0.05 * cfg_.qos_ms)
        diff_b = 0;
    else if (diff > 0.05 * cfg_.qos_ms)
        diff_b = 2;
    return (rps_b * 6 + lat_b) * 3 + diff_b;
}

double
BanditExplorer::InfoGain(const Cell& cell) const
{
    // Smoothed Bernoulli estimates (Beta(1,1) prior).
    const double n = cell.n;
    const double p = (cell.successes + 1.0) / (n + 2.0);
    const double p_pos = (cell.successes + 2.0) / (n + 3.0);
    const double p_neg = (cell.successes + 1.0) / (n + 3.0);
    const double ci_now = std::sqrt(p * (1.0 - p) / (n + 1.0));
    const double ci_pos = std::sqrt(p_pos * (1.0 - p_pos) / (n + 2.0));
    const double ci_neg = std::sqrt(p_neg * (1.0 - p_neg) / (n + 2.0));
    return ci_now - p * ci_pos - (1.0 - p) * ci_neg;
}

std::vector<double>
BanditExplorer::Decide(const IntervalObservation& obs,
                       const std::vector<double>& alloc,
                       const Application& app)
{
    const int n_tiers = static_cast<int>(alloc.size());

    // 1. Credit the previous interval's choice with this outcome.
    const bool met = obs.P99() <= cfg_.qos_ms;
    if (!pending_.empty()) {
        for (int i = 0; i < n_tiers; ++i) {
            Cell& cell = stats_[KeyOf(i, pending_[i].first,
                                      pending_[i].second)];
            ++cell.n;
            if (met)
                ++cell.successes;
        }
    }

    const int state = StateOf(obs);
    const double lat = obs.P99();

    std::vector<double> next(alloc);
    pending_.assign(n_tiers, {state, 0});

    // Anchor the start of a violation episode so recovery upscaling has
    // a reference to cap against.
    if (lat > cfg_.qos_ms && anchor_.empty())
        anchor_ = alloc;
    else if (lat <= cfg_.qos_ms)
        anchor_.clear();
    auto recovery_target = [&](int i, double factor, double add) {
        double cap = app.tiers[i].max_cpu;
        if (!anchor_.empty())
            cap = std::min(cap, anchor_[i] * kRecoveryCap + 0.2);
        return std::min(cap, std::max(alloc[i],
                                      alloc[i] * factor + add));
    };

    // 2. Out of the exploration region: force recovery so latency comes
    // back under QoS*(1+alpha) quickly (paper's region guard).
    if (lat > cfg_.qos_ms * (1.0 + kAlpha)) {
        for (int i = 0; i < n_tiers; ++i) {
            next[i] = recovery_target(i, 1.3, 0.2);
            pending_[i].second =
                static_cast<int>(std::lround(next[i] / kQuantum));
        }
        prev_p99_ = lat;
        has_prev_ = true;
        return next;
    }

    // 3. QoS currently violated (but within the exploration region):
    // reclamation is disabled and loaded tiers are upscaled decisively so
    // built-up queues drain quickly (paper rule 3). Lightly-used tiers
    // keep exploring upward via the bandit below.
    const bool violating = lat > cfg_.qos_ms;
    if (violating)
        hold_left_ = kRecoveryHold;
    else if (hold_left_ > 0)
        --hold_left_;
    if (violating) {
        for (int i = 0; i < n_tiers; ++i) {
            if (obs.tiers[i].Utilization() > 0.6) {
                next[i] = recovery_target(i, kViolationBoost, 0.1);
                pending_[i].second = static_cast<int>(
                    std::lround(next[i] / kQuantum));
            }
        }
    }

    // 4. Bandit step per tier (each tier is an independent arm).
    static const std::vector<Op> kOps = OpSet();
    for (int i = 0; i < n_tiers; ++i) {
        const TierSpec& spec = app.tiers[i];
        const double util = obs.tiers[i].Utilization();
        if (violating && util > 0.6)
            continue; // already force-upscaled above

        // Down ops are rationed: blocked during the post-violation hold
        // and granted to a random tier subset each interval otherwise.
        // Nearly idle tiers shed CPU with high probability so the
        // trajectory reaches the boundary even at low loads.
        const double p_down = util < kIdleUtil
                                  ? cfg_.idle_down_eligibility
                                  : cfg_.down_eligibility;
        const bool may_down = !violating && hold_left_ == 0 &&
                              util <= kUtilCap &&
                              rng_.Bernoulli(p_down);

        double best_score = -1e18;
        double best_cpu = alloc[i];
        for (const Op& op : kOps) {
            if (op.is_down && !may_down)
                continue;
            double cpu = alloc[i] + op.delta_cores +
                         alloc[i] * op.ratio;
            cpu = std::clamp(cpu, spec.min_cpu, spec.max_cpu);
            const int level =
                static_cast<int>(std::lround(cpu / kQuantum));

            // C_op: bias exploration toward the QoS boundary.
            double coeff;
            if (lat > cfg_.qos_ms) {
                coeff = op.is_up ? 2.0 : 0.5; // recover
            } else if (op.is_down) {
                coeff = 1.5; // hunt for the minimum allocation
            } else if (op.is_up) {
                coeff = 0.6;
            } else {
                coeff = 0.8;
            }

            const auto it = stats_.find(KeyOf(i, state, level));
            const Cell cell = it == stats_.end() ? Cell{} : it->second;
            const double score =
                coeff * InfoGain(cell) + 1e-6 * rng_.Uniform();
            if (score > best_score) {
                best_score = score;
                best_cpu = cpu;
            }
        }
        next[i] = best_cpu;
        pending_[i].second =
            static_cast<int>(std::lround(best_cpu / kQuantum));
    }

    prev_p99_ = lat;
    has_prev_ = true;
    return next;
}

} // namespace sinan
