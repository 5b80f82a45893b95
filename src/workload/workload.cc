#include "workload/workload.h"

#include <cmath>
#include <stdexcept>

namespace sinan {

DiurnalLoad::DiurnalLoad(double low, double high, double period_s)
    : low_(low), high_(high), period_s_(period_s)
{
    if (period_s <= 0.0)
        throw std::invalid_argument("DiurnalLoad: non-positive period");
    if (high < low)
        throw std::invalid_argument("DiurnalLoad: high < low");
}

double
DiurnalLoad::UsersAt(double t) const
{
    const double phase = 6.283185307179586 * t / period_s_;
    // Starts at the trough (cos shifted by pi).
    return low_ + 0.5 * (high_ - low_) * (1.0 - std::cos(phase));
}

StepLoad::StepLoad(std::vector<std::pair<double, double>> steps)
    : steps_(std::move(steps))
{
    if (steps_.empty())
        throw std::invalid_argument("StepLoad: empty schedule");
    for (size_t i = 1; i < steps_.size(); ++i) {
        if (steps_[i].first < steps_[i - 1].first)
            throw std::invalid_argument("StepLoad: unsorted schedule");
    }
}

double
StepLoad::UsersAt(double t) const
{
    double users = steps_.front().second;
    for (const auto& [start, u] : steps_) {
        if (t >= start)
            users = u;
        else
            break;
    }
    return users;
}

WorkloadGenerator::WorkloadGenerator(Cluster& cluster,
                                     const LoadShape& shape, uint64_t seed,
                                     double rps_per_user,
                                     const BurstOptions& bursts)
    : cluster_(cluster), shape_(shape), rng_(seed),
      rps_per_user_(rps_per_user), bursts_(bursts)
{
    if (rps_per_user <= 0.0)
        throw std::invalid_argument("WorkloadGenerator: bad rps_per_user");
    BuildMixTable();
    if (bursts_.enabled)
        next_burst_at_ = rng_.Exponential(bursts_.mean_gap_s);
}

void
WorkloadGenerator::BuildMixTable()
{
    const auto& types = cluster_.App().request_types;
    mix_cdf_.clear();
    double total = 0.0;
    for (const auto& t : types)
        total += t.weight;
    if (total <= 0.0)
        throw std::invalid_argument("WorkloadGenerator: zero mix weight");
    double acc = 0.0;
    for (const auto& t : types) {
        acc += t.weight / total;
        mix_cdf_.push_back(acc);
    }
    mix_cdf_.back() = 1.0;
}

void
WorkloadGenerator::SetRateMultiplier(double mult)
{
    if (!std::isfinite(mult) || mult <= 0.0)
        throw std::invalid_argument(
            "WorkloadGenerator: rate multiplier must be finite and > 0");
    rate_mult_ = mult;
}

void
WorkloadGenerator::Tick(double now, double dt)
{
    if (bursts_.enabled) {
        if (in_burst_ && now >= burst_until_) {
            in_burst_ = false;
            next_burst_at_ = now + rng_.Exponential(bursts_.mean_gap_s);
        }
        if (!in_burst_ && now >= next_burst_at_) {
            in_burst_ = true;
            burst_until_ =
                now + rng_.Exponential(bursts_.mean_duration_s);
            burst_mult_ =
                rng_.Uniform(bursts_.mult_min, bursts_.mult_max);
        }
    }
    const double mult = in_burst_ ? burst_mult_ : 1.0;
    const double rate =
        shape_.UsersAt(now) * rps_per_user_ * mult * rate_mult_;
    const int n = rng_.Poisson(rate * dt);
    const Application& app = cluster_.App();
    for (int i = 0; i < n; ++i) {
        const double u = rng_.Uniform();
        int type = 0;
        while (type + 1 < static_cast<int>(mix_cdf_.size()) &&
               u > mix_cdf_[type]) {
            ++type;
        }
        // Bursts skew the mix toward the application's burst-bias type.
        if (in_burst_ && app.burst_bias_type >= 0 &&
            app.burst_bias_type <
                static_cast<int>(mix_cdf_.size()) &&
            rng_.Bernoulli(app.burst_bias_extra)) {
            type = app.burst_bias_type;
        }
        cluster_.Inject(type, now);
        ++injected_;
    }
}

} // namespace sinan
