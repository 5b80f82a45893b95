/**
 * @file
 * Discrete-time simulation loop.
 *
 * The cluster substrate advances in small fixed ticks (default 10 ms); a
 * coarser "decision interval" (default 1 s, matching the paper's scheduler
 * cadence and QoS definition granularity) groups ticks for metric roll-up
 * and resource-management decisions. The loop owns the clock, ticks the
 * workload generator and then the cluster every tick, and harvests the
 * cluster's observation at every interval boundary.
 */
#ifndef SINAN_SIM_SIMULATOR_H
#define SINAN_SIM_SIMULATOR_H

#include <cstdint>

#include "cluster/cluster.h"
#include "workload/workload.h"

namespace sinan {

/** Timing parameters of a simulation. */
struct SimConfig {
    /** Fine tick used to integrate the processor-sharing fluid model. */
    double tick_s = 0.01;
    /** Decision / metric-reporting interval (the paper uses 1 s). */
    double interval_s = 1.0;
};

/**
 * Fixed-step simulation loop over one workload generator and the
 * cluster it feeds. Each tick runs the generator before the cluster, so
 * arrivals of a tick are served in that same tick; determinism depends
 * only on that order and the components' own RNG seeds. The generator
 * and the cluster must outlive the simulator.
 */
class Simulator {
  public:
    Simulator(const SimConfig& cfg, WorkloadGenerator& gen,
              Cluster& cluster);

    /** Ticks one decision interval and returns the cluster's
     *  observation harvested at its end. */
    IntervalObservation RunInterval();

    /** Whole decision intervals in @p seconds of simulated time; a
     *  trailing partial interval is dropped. */
    int64_t IntervalsIn(double seconds) const;

    /** Current simulated time in seconds. */
    double Now() const { return static_cast<double>(tick_) * cfg_.tick_s; }

  private:
    SimConfig cfg_;
    WorkloadGenerator& gen_;
    Cluster& cluster_;
    int64_t tick_ = 0;
    int64_t ticks_per_interval_ = 0;
};

} // namespace sinan

#endif // SINAN_SIM_SIMULATOR_H
