#include "sim/simulator.h"

#include <cmath>
#include <stdexcept>

namespace sinan {

Simulator::Simulator(const SimConfig& cfg, WorkloadGenerator& gen,
                     Cluster& cluster)
    : cfg_(cfg), gen_(gen), cluster_(cluster)
{
    if (cfg.tick_s <= 0.0 || cfg.interval_s <= 0.0)
        throw std::invalid_argument("Simulator: non-positive step sizes");
    ticks_per_interval_ =
        static_cast<int64_t>(std::llround(cfg.interval_s / cfg.tick_s));
    if (ticks_per_interval_ < 1)
        throw std::invalid_argument(
            "Simulator: interval must be at least one tick");
}

IntervalObservation
Simulator::RunInterval()
{
    for (int64_t i = 0; i < ticks_per_interval_; ++i) {
        const double now = Now();
        gen_.Tick(now, cfg_.tick_s);
        cluster_.Tick(now, cfg_.tick_s);
        ++tick_;
    }
    return cluster_.Harvest(Now(), cfg_.interval_s);
}

int64_t
Simulator::IntervalsIn(double seconds) const
{
    return static_cast<int64_t>(std::llround(seconds / cfg_.tick_s)) /
           ticks_per_interval_;
}

} // namespace sinan
