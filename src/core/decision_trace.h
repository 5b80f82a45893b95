/**
 * @file
 * Structured per-interval decision trace of the online scheduler: every
 * candidate the scheduler considered, the model's predictions for it,
 * and the reason it was rejected or chosen, together with the trust
 * state and the safety-path events (warm-up, fallback, escalation).
 *
 * The trace is what makes the scheduler's behaviour inspectable — the
 * paper's fallback/trust mechanics are otherwise invisible in a run log
 * that only records the final allocation. A ResourceManager fills the
 * trace through the AttachTelemetry() hook. Each ManagedRun attaches
 * a one-interval scratch trace, stamps the simulation time on the
 * interval's entries and folds them into a 64-bit digest
 * (FoldDecision). Only RunManaged keeps the entries themselves, which
 * sinan_sim serializes next to the run log (harness/telemetry_log.h);
 * a fleet shard keeps the digest alone.
 *
 * Determinism: entries are appended only from Decide(), which the
 * harness calls serially per run, and every recorded value is derived
 * from the deterministic simulation and model evaluation — so the trace
 * is bit-identical across thread-pool sizes.
 */
#ifndef SINAN_CORE_DECISION_TRACE_H
#define SINAN_CORE_DECISION_TRACE_H

#include <cstdint>
#include <vector>

#include "common/percentile_row.h"

namespace sinan {

/** Candidate action families (paper Table 1). */
enum class ActionKind : uint8_t {
    kHold,
    kScaleDown,
    kScaleDownBatch,
    kScaleUp,
    kScaleUpAll,
    kScaleUpVictims,
};

/**
 * The scheduler's classification of an interval's telemetry (see
 * core/telemetry_guard.h). Anything but kFresh routes the decision
 * through the graceful-degradation path instead of the model.
 */
enum class TelemetryHealth {
    /** Complete, finite, and newer than the last good observation. */
    kFresh,
    /** Timestamp not newer than the last good observation (delayed or
     *  repeated delivery). */
    kStale,
    /** Contains NaN/Inf fields (broken exporter). */
    kNonFinite,
    /** Missing or incomplete payload (dropped interval). */
    kAbsent,
};

/** Why a candidate was (not) applied. */
enum class CandidateOutcome : uint8_t {
    /** Passed every filter and had the least total CPU. */
    kChosen,
    /** Down-action rejected: healthy streak too short to reclaim. */
    kRejectedHysteresis,
    /** Down-action rejected: a tier would exceed kPostDownUtilCap. */
    kRejectedPostDownSaturation,
    /** Predicted p99 above QoS minus the (trust-scaled) margin. */
    kRejectedLatencyMargin,
    /** Predicted violation probability above kPDown / kPUp (the
     *  paper's p_d / p_u). */
    kRejectedViolationProb,
    /** Down-action rejected: deciding on degraded (last-known-good)
     *  telemetry, where reclaiming would be flying blind. */
    kRejectedDegradedTelemetry,
    /** Down-action rejected on the uncertainty-aware path: its CPU
     *  reduction exceeds the confidence-scaled step-down budget. */
    kRejectedUncertaintyStep,
    /** Passed every filter but a cheaper candidate won. */
    kNotCheapest,
};

/** Which path produced the interval's allocation. */
enum class DecisionKind {
    /** History window not full: conservative utilization stepping. */
    kWarmup,
    /** Observed QoS violation: blanket safety upscale. */
    kFallback,
    /** Persistent violation: escalated safety upscale (trust lost). */
    kEscalatedFallback,
    /** Normal path: a model-filtered candidate was applied. */
    kModel,
    /** Normal path, but no candidate passed: scale-up-all. */
    kNoFeasibleUpscale,
    /** Degraded telemetry: model consulted on the last-known-good
     *  window, down-actions disabled. */
    kDegradedModel,
    /** Degraded telemetry before the window is ready: utilization
     *  stepping on the last good observation. */
    kDegradedHeuristic,
    /** Degraded telemetry with no usable history at all: hold. */
    kDegradedHold,
    /** Watchdog: telemetry silent for too many consecutive intervals,
     *  forced blanket scale-up. */
    kWatchdogUpscale,
    /** Uncertainty-aware path: partially-trusted telemetry repaired
     *  from the last-known-good observation, model consulted with a
     *  widened margin and a confidence-scaled step-down budget. */
    kUncertainModel,
};

const char* ToString(ActionKind kind);
const char* ToString(CandidateOutcome outcome);
const char* ToString(DecisionKind kind);
const char* ToString(TelemetryHealth health);

/**
 * One candidate considered by one decision: one 64-byte record, with
 * no heap storage of its own. The row comes first so the enums sit in
 * its tail padding.
 */
struct CandidateTrace {
    /** Predicted latency percentiles, ms (p95..p99); empty on
     *  safety-path intervals where the model was not consulted. */
    [[no_unique_address]] PercentileRow latency_ms;
    ActionKind kind = ActionKind::kHold;
    CandidateOutcome outcome = CandidateOutcome::kNotCheapest;
    /** Total CPU (cores) of the candidate allocation. */
    double total_cpu = 0.0;
    /** Predicted violation probability. */
    double p_violation = 0.0;

    double P99() const
    {
        return latency_ms.empty() ? 0.0 : latency_ms.back();
    }
};

// A trace holds one record per candidate per interval (~96 on the
// social network), so the record's size is the trace's memory budget.
static_assert(sizeof(CandidateTrace) <= 64,
              "CandidateTrace must fit in one 64-byte cache line");

/** One decision interval. */
struct DecisionTraceEntry {
    /** Simulation time of the decision; stamped by the harness (-1
     *  when the scheduler is driven directly). */
    double time_s = -1.0;
    /** 0-based decision index since Reset(). */
    int interval = 0;
    DecisionKind kind = DecisionKind::kWarmup;

    /** Observed p99 of the finished interval, and whether it violated
     *  QoS. -1 on degraded intervals, where the observation is
     *  missing or untrusted. */
    double observed_p99_ms = 0.0;
    bool violated = false;

    /** Telemetry classification that routed this decision. */
    TelemetryHealth telemetry = TelemetryHealth::kFresh;
    /** Consecutive degraded intervals including this one (0 when
     *  fresh); the watchdog trips when it reaches
     *  SinanScheduler::kWatchdogSilentAfter. */
    int silent_intervals = 0;

    /** Trust state after this interval's bookkeeping. */
    bool trust_reduced = false;
    int mispredictions = 0;
    int healthy_streak = 0;
    int consecutive_violations = 0;
    /** Trust transitions that happened on this interval. */
    bool trust_lost = false;
    bool trust_restored = false;

    /** Latency filter margin (ms) used on the model path; -1 on the
     *  safety paths. */
    double margin_ms = -1.0;
    /** Whether hysteresis permitted reclaim this interval. */
    bool may_reclaim = false;

    /** Scheduler's confidence in this interval's telemetry: 1 on the
     *  fresh path, the graded scalar on the uncertainty-aware paths,
     *  0 on the binary degraded ladder. */
    double confidence = 1.0;
    /** Extra latency margin (ms) the uncertainty policy derived for
     *  this interval (SinanScheduler::kUncertaintyMarginFrac * QoS *
     *  (1 - confidence)); 0 outside the uncertainty-aware path. */
    double uncertainty_margin_ms = 0.0;
    /** Per-tier confidence vector; empty when no per-tier assessment
     *  ran (fresh path, or uncertainty policy disabled). */
    std::vector<double> tier_confidence;

    /** Index of the chosen candidate, -1 when none was applied. */
    int chosen = -1;
    std::vector<CandidateTrace> candidates;
};

/** A full run's decision trace. */
struct DecisionTrace {
    std::vector<DecisionTraceEntry> intervals;

    void Clear() { intervals.clear(); }
};

/** Digest of an empty trace (the 64-bit FNV-1a offset basis). */
inline constexpr uint64_t kEmptyDecisionDigest = 0xcbf29ce484222325ULL;

/**
 * Folds @p entry into the running digest @p h: word-wise FNV-1a over
 * every field in declaration order. Doubles enter by bit pattern,
 * integers, enums and bools widened to 64 bits, and each vector as its
 * length followed by its elements (a candidate as its row count, row
 * values, kind, outcome, total_cpu and p_violation). Padding and text
 * never enter, so the digest is as strict as the values themselves.
 */
uint64_t FoldDecision(uint64_t h, const DecisionTraceEntry& entry);

/** Every entry of @p trace folded in order, from kEmptyDecisionDigest. */
uint64_t DecisionTraceDigest(const DecisionTrace& trace);

} // namespace sinan

#endif // SINAN_CORE_DECISION_TRACE_H
