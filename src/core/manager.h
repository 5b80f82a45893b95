/**
 * @file
 * The resource-manager interface shared by Sinan and the baselines
 * (autoscaling, PowerChief): once per decision interval the manager
 * receives the cluster-wide telemetry of the finished interval and
 * returns the per-tier CPU allocation for the next one.
 */
#ifndef SINAN_CORE_MANAGER_H
#define SINAN_CORE_MANAGER_H

#include <vector>

#include "common/telemetry.h"
#include "cluster/spec.h"
#include "common/metrics.h"
#include "core/decision_trace.h"

namespace sinan {

/** Per-interval resource-allocation policy. */
class ResourceManager {
  public:
    virtual ~ResourceManager() = default;

    /**
     * Decides the allocation for the next interval.
     * @param obs finished interval's telemetry.
     * @param alloc allocation currently in force (cores per tier).
     * @param app the managed application (for per-tier bounds).
     * @return new allocation vector (clamped by the caller per spec).
     */
    virtual std::vector<double> Decide(const IntervalObservation& obs,
                                       const std::vector<double>& alloc,
                                       const Application& app) = 0;

    /** Display name used in reports. */
    virtual const char* Name() const = 0;

    /** Resets manager state between runs. */
    virtual void Reset() {}

    /**
     * Predicted p99 (ms) for the chosen action, when the manager is
     * model-driven; negative when unavailable. Lets the harness plot the
     * paper's predicted-vs-actual timelines (Fig. 12).
     */
    virtual double LastPredictedP99() const { return -1.0; }

    /** Predicted violation probability of the chosen action, or -1. */
    virtual double LastViolationProb() const { return -1.0; }

    /**
     * Attaches decision telemetry sinks owned by the caller (the
     * harness attaches a per-interval trace and a per-run registry,
     * and detaches both before the run result is returned). Either
     * pointer may be null; managers without an introspectable
     * decision process ignore the hook.
     * Sinks must outlive every subsequent Decide() call.
     */
    virtual void
    AttachTelemetry(DecisionTrace* trace, MetricsRegistry* metrics)
    {
        (void)trace;
        (void)metrics;
    }
};

} // namespace sinan

#endif // SINAN_CORE_MANAGER_H
