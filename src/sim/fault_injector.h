/**
 * @file
 * Deterministic fault injection at the cluster/telemetry boundary.
 *
 * A FaultSchedule is an explicit list of timed events — tier stalls,
 * capacity loss, CPU steal by a noisy neighbor, latency spikes, and
 * dropped / delayed / non-finite telemetry intervals — parsed from a
 * compact spec string (`sinan_sim --faults=<spec>`). The injector
 * carries no randomness of its own: every perturbation is a pure
 * function of the schedule and the decision-interval index, so a run
 * with the same seed and spec is byte-identical at any thread-pool
 * size. The harness applies cluster-side events before each interval
 * and filters the harvested observation before the manager sees it;
 * every applied event is counted under `sinan.faults.*`.
 *
 * This is the substrate for the chaos scenario suite (ChaosScenarios())
 * exercising the scheduler's graceful-degradation path: fallbacks,
 * the telemetry guard, and the silent-interval watchdog.
 */
#ifndef SINAN_SIM_FAULT_INJECTOR_H
#define SINAN_SIM_FAULT_INJECTOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/telemetry.h"
#include "common/metrics.h"

namespace sinan {

/** What a fault event perturbs. */
enum class FaultKind {
    /** Tier serves nothing while active (fork/GC/preemption pause). */
    kTierStall,
    /** Tier loses a fraction of its effective CPU capacity; the
     *  telemetry still reports the configured limit (failed replica,
     *  throttled host). */
    kCapacityLoss,
    /** Reported end-to-end latency percentiles are inflated by a fixed
     *  amount (probe interference; the cluster itself is unaffected). */
    kLatencySpike,
    /** Noisy neighbor: capacity shrinks like kCapacityLoss and the
     *  reported cpu_used is inflated toward the limit (the cgroup
     *  accounts the thief's cycles). */
    kCpuSteal,
    /** The interval's observation is lost entirely. */
    kTelemetryDrop,
    /** The manager receives the previous interval's observation again
     *  (collection pipeline lag). */
    kTelemetryDelay,
    /** NaN poisoning (broken exporter). Untargeted, every latency and
     *  cpu_used field turns NaN; targeted at a tier (or a correlated
     *  tier group), only those tiers' cpu_used fields do — the latency
     *  percentiles stay real, which is what makes graded telemetry
     *  confidence observable. */
    kTelemetryNan,
    /** Flash crowd: the workload's arrival rate is multiplied by the
     *  magnitude while active (layered on whatever load shape the run
     *  uses). Applied by the harness via RateMultiplierAt(); cluster
     *  and telemetry are otherwise untouched. */
    kFlashCrowd,
};

/** Spec keyword of the kind (stall, caploss, spike, steal, drop,
 *  delay, nan, flash). */
const char* ToString(FaultKind kind);

/** One timed fault. */
struct FaultEvent {
    FaultKind kind = FaultKind::kTierStall;
    /** First affected decision interval (0-based). */
    int64_t start = 0;
    /** Number of consecutive affected intervals (per tier for a
     *  jittered correlated group). */
    int64_t duration = 1;
    /** Affected tier index; -1 targets every tier. With tier_hi >= 0
     *  this is the first tier of a correlated group. Ignored by the
     *  whole-observation kinds (spike/drop/delay/flash). */
    int tier = -1;
    /** Last tier of a correlated group [tier, tier_hi]; -1 means the
     *  event targets `tier` alone (spec param `tiers=A-B`). */
    int tier_hi = -1;
    /** Per-tier activation stagger (intervals) within a correlated
     *  group: the i-th member of the group activates at
     *  start + i * jitter and stays active for `duration` intervals —
     *  one spec entry fans out to a rolling multi-tier event, with no
     *  randomness involved. */
    int64_t jitter = 0;
    /** Kind-specific strength: capacity/steal fraction in (0, 1],
     *  spike milliseconds, flash-crowd rate multiplier. Unused by
     *  stall/drop/delay/nan. */
    double magnitude = 0.0;

    /** Stagger span of the correlated group (0 without one). */
    int64_t
    GroupSpan() const
    {
        return tier >= 0 && tier_hi > tier
                   ? jitter * static_cast<int64_t>(tier_hi - tier)
                   : 0;
    }

    /** True when the event perturbs anything at @p interval. */
    bool
    ActiveAt(int64_t interval) const
    {
        return interval >= start &&
               interval < start + GroupSpan() + duration;
    }

    /** True when the event perturbs tier @p t at @p interval, honoring
     *  the correlated group's per-tier stagger. */
    bool
    ActiveForTier(int t, int64_t interval) const
    {
        if (tier < 0)
            return ActiveAt(interval);
        if (t < tier || t > (tier_hi >= 0 ? tier_hi : tier))
            return false;
        const int64_t off = jitter * static_cast<int64_t>(t - tier);
        return interval >= start + off &&
               interval < start + off + duration;
    }
};

/** A full run's fault plan. */
struct FaultSchedule {
    std::vector<FaultEvent> events;

    bool Empty() const { return events.empty(); }

    /** First interval index at (and after) which no event is active. */
    int64_t EndInterval() const;
};

/**
 * Parses a fault spec:
 *
 *   spec   := event (';' event)*  |  "chaos:" name
 *   event  := kind '@' start ['+' duration] [':' param (',' param)*]
 *   kind   := stall|caploss|spike|steal|drop|delay|nan|flash
 *   param  := "tier=" index | "tiers=" lo '-' hi | "jitter=" n
 *           | "mag=" value
 *
 * `start` and `duration` are decision-interval counts (duration
 * defaults to 1). `tiers=A-B` targets the correlated group [A, B] and
 * `jitter=N` staggers the members' activation by N intervals each
 * (jitter requires a tiers= group). `chaos:<name>` expands to the
 * named scenario from ChaosScenarios(). Throws std::invalid_argument
 * with the offending event text on any malformed input, including
 * an empty event or parameter (";;", ",,", a trailing ',' or a bare
 * ':'), out-of-range integers, a non-finite `mag`, and an event whose
 * start + GroupSpan() + duration would overflow int64.
 */
FaultSchedule ParseFaultSpec(const std::string& spec);

/**
 * Formats one event in the spec grammar, emitting only non-default
 * fields (duration when != 1, tier/tiers when targeted, jitter when
 * != 0, mag when it differs from the kind's default) with
 * shortest-round-trip magnitudes, so
 * ParseFaultSpec(FormatFaultEvent(e)) reproduces @p e exactly.
 */
std::string FormatFaultEvent(const FaultEvent& event);

/**
 * Formats a schedule as a ';'-joined spec string — the inverse of
 * ParseFaultSpec: parsing the result yields a field-identical
 * schedule. An empty schedule formats as "" (which ParseFaultSpec
 * rejects; callers treat "" as "no faults" before parsing).
 */
std::string FormatFaultSpec(const FaultSchedule& schedule);

/**
 * Rejects events referencing tiers outside [0, n_tiers). Throws
 * std::invalid_argument; called by the harness before a run starts so
 * a bad spec fails loudly instead of silently perturbing nothing.
 */
void ValidateFaultSchedule(const FaultSchedule& schedule, int n_tiers);

/** A named, documented fault plan of the chaos suite. */
struct ChaosScenario {
    std::string name;
    std::string spec;
    std::string description;
};

/** The chaos scenario suite (stable order; >= 6 scenarios). */
const std::vector<ChaosScenario>& ChaosScenarios();

/** Scenario by name, or nullptr. */
const ChaosScenario* FindChaosScenario(const std::string& name);

/** What FilterTelemetry decided about the interval's observation. */
enum class TelemetryFate {
    /** Deliver the (possibly perturbed) observation. */
    kDeliver,
    /** The observation is lost; the manager sees an empty one. */
    kDrop,
    /** Redeliver the previous delivered observation. */
    kDelay,
};

/**
 * Applies a FaultSchedule to one run. The harness owns the instance
 * and drives both hooks once per decision interval; the injector keeps
 * no per-interval state beyond the immutable schedule, so replays are
 * trivially deterministic.
 */
class FaultInjector {
  public:
    /** @param interval_s decision-interval length (stall renewal). */
    FaultInjector(FaultSchedule schedule, double interval_s);

    /** Counts applied events under `sinan.faults.*` (may be null). */
    void AttachMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }

    /**
     * Applies cluster-side events (stall, caploss, steal) for the
     * interval that starts at @p now. Capacity factors are recomputed
     * from scratch every call, so expired events self-restore.
     */
    void ApplyClusterFaults(int64_t interval, double now,
                            Cluster& cluster);

    /**
     * Perturbs the harvested observation of @p interval in place
     * (spike, steal inflation, NaN poisoning) and rules on its fate.
     * Drop wins over delay when both are active.
     */
    TelemetryFate FilterTelemetry(int64_t interval,
                                  IntervalObservation& obs);

    /**
     * Product of the rate multipliers of the flash-crowd events active
     * at @p interval (1.0 when none). The harness forwards this to the
     * workload generator before ticking the interval — a pure function
     * of (schedule, interval), like every other perturbation.
     */
    double RateMultiplierAt(int64_t interval) const;

    const FaultSchedule& Schedule() const { return schedule_; }

  private:
    void Count(FaultKind kind);

    FaultSchedule schedule_;
    double interval_s_;
    MetricsRegistry* metrics_ = nullptr;
};

} // namespace sinan

#endif // SINAN_SIM_FAULT_INJECTOR_H
