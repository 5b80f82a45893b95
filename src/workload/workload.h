/**
 * @file
 * Open-loop workload generation, standing in for the paper's Locust
 * deployment: each emulated user issues requests as a Poisson process with
 * a 1 RPS mean rate (Sec. 5.3), and the number of users follows a load
 * shape (constant for the Figure 11 sweep, diurnal for Figure 12).
 * Request types are sampled from the application's mix weights.
 */
#ifndef SINAN_WORKLOAD_WORKLOAD_H
#define SINAN_WORKLOAD_WORKLOAD_H

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"

namespace sinan {

/** Number of emulated users as a function of time. */
class LoadShape {
  public:
    virtual ~LoadShape() = default;
    /** Users active at simulated time @p t (fractional values allowed). */
    virtual double UsersAt(double t) const = 0;
};

/** Fixed user population. */
class ConstantLoad : public LoadShape {
  public:
    explicit ConstantLoad(double users) : users_(users) {}
    double UsersAt(double) const override { return users_; }

  private:
    double users_;
};

/**
 * Smooth diurnal pattern: users oscillate between @p low and @p high with
 * the given period, starting at the trough.
 */
class DiurnalLoad : public LoadShape {
  public:
    DiurnalLoad(double low, double high, double period_s);
    double UsersAt(double t) const override;

  private:
    double low_;
    double high_;
    double period_s_;
};

/** Piecewise-constant schedule of (start time, users) steps. */
class StepLoad : public LoadShape {
  public:
    /** @p steps must be sorted by time; the first entry should be t=0. */
    explicit StepLoad(std::vector<std::pair<double, double>> steps);
    double UsersAt(double t) const override;

  private:
    std::vector<std::pair<double, double>> steps_;
};

/** Traffic micro-burst model layered on the Poisson arrivals. */
struct BurstOptions {
    /** Enables short random bursts (flash-crowd behaviour). */
    bool enabled = false;
    /** Mean seconds between burst onsets. */
    double mean_gap_s = 30.0;
    /** Mean burst duration, seconds. */
    double mean_duration_s = 3.0;
    /** Arrival-rate multiplier range during a burst. Kept moderate:
     *  the differentiating pressure comes from the request-mix skew
     *  (Application::burst_bias_*), which concentrates the spike on the
     *  compute-heavy tiers rather than uniformly. */
    double mult_min = 1.2;
    double mult_max = 1.5;
};

/**
 * Poisson open-loop request source bound to a cluster. Register Tick()
 * with the simulator *before* the cluster tick so arrivals of a tick are
 * served within it. Optional micro-bursts multiply the arrival rate for
 * a few seconds at random times — the transient spikes that reactive
 * autoscaling handles poorly (paper Sec. 2.3's delayed queueing).
 */
class WorkloadGenerator {
  public:
    /**
     * @param cluster target cluster.
     * @param shape user population over time (not owned).
     * @param seed RNG seed.
     * @param rps_per_user per-user mean request rate (paper: 1.0).
     * @param bursts micro-burst model.
     */
    WorkloadGenerator(Cluster& cluster, const LoadShape& shape,
                      uint64_t seed, double rps_per_user = 1.0,
                      const BurstOptions& bursts = BurstOptions());

    /** Injects this tick's Poisson arrivals. */
    void Tick(double now, double dt);

    /**
     * External arrival-rate multiplier, composed with the load shape
     * and the micro-burst multiplier. The harness sets this from the
     * fault injector's flash-crowd events once per decision interval;
     * it must be finite and > 0.
     */
    void SetRateMultiplier(double mult);

    /** Total requests injected so far. */
    int64_t Injected() const { return injected_; }

  private:
    /** Rebuilds the cumulative mix table from the app's weights. */
    void BuildMixTable();

    Cluster& cluster_;
    const LoadShape& shape_;
    Rng rng_;
    double rps_per_user_;
    double rate_mult_ = 1.0;
    BurstOptions bursts_;
    std::vector<double> mix_cdf_;
    int64_t injected_ = 0;

    // Burst process state.
    bool in_burst_ = false;
    double burst_until_ = 0.0;
    double next_burst_at_ = 0.0;
    double burst_mult_ = 1.0;
};

} // namespace sinan

#endif // SINAN_WORKLOAD_WORKLOAD_H
