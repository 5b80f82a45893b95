#include "core/decision_trace.h"

#include <cstring>

namespace sinan {

const char*
ToString(ActionKind kind)
{
    switch (kind) {
    case ActionKind::kHold:
        return "hold";
    case ActionKind::kScaleDown:
        return "scale_down";
    case ActionKind::kScaleDownBatch:
        return "scale_down_batch";
    case ActionKind::kScaleUp:
        return "scale_up";
    case ActionKind::kScaleUpAll:
        return "scale_up_all";
    case ActionKind::kScaleUpVictims:
        return "scale_up_victims";
    }
    return "unknown";
}

const char*
ToString(CandidateOutcome outcome)
{
    switch (outcome) {
    case CandidateOutcome::kChosen:
        return "chosen";
    case CandidateOutcome::kRejectedHysteresis:
        return "hysteresis";
    case CandidateOutcome::kRejectedPostDownSaturation:
        return "post_down_saturation";
    case CandidateOutcome::kRejectedLatencyMargin:
        return "latency_margin";
    case CandidateOutcome::kRejectedViolationProb:
        return "violation_prob";
    case CandidateOutcome::kRejectedDegradedTelemetry:
        return "degraded_telemetry";
    case CandidateOutcome::kRejectedUncertaintyStep:
        return "uncertainty_step";
    case CandidateOutcome::kNotCheapest:
        return "not_cheapest";
    }
    return "unknown";
}

const char*
ToString(DecisionKind kind)
{
    switch (kind) {
    case DecisionKind::kWarmup:
        return "warmup";
    case DecisionKind::kFallback:
        return "fallback";
    case DecisionKind::kEscalatedFallback:
        return "escalated_fallback";
    case DecisionKind::kModel:
        return "model";
    case DecisionKind::kNoFeasibleUpscale:
        return "no_feasible_upscale";
    case DecisionKind::kDegradedModel:
        return "degraded_model";
    case DecisionKind::kDegradedHeuristic:
        return "degraded_heuristic";
    case DecisionKind::kDegradedHold:
        return "degraded_hold";
    case DecisionKind::kWatchdogUpscale:
        return "watchdog_upscale";
    case DecisionKind::kUncertainModel:
        return "uncertain_model";
    }
    return "unknown";
}

const char*
ToString(TelemetryHealth health)
{
    switch (health) {
    case TelemetryHealth::kFresh:
        return "fresh";
    case TelemetryHealth::kStale:
        return "stale";
    case TelemetryHealth::kNonFinite:
        return "non_finite";
    case TelemetryHealth::kAbsent:
        return "absent";
    }
    return "unknown";
}

namespace {

/** Word-wise 64-bit FNV-1a. Each step is a bijection of the running
 *  value, so any single changed word changes the digest. */
struct Fnv {
    uint64_t h;

    void Word(uint64_t w) { h = (h ^ w) * 0x100000001b3ULL; }
    void Int(int64_t v) { Word(static_cast<uint64_t>(v)); }
    void
    Real(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        Word(bits);
    }
};

} // namespace

uint64_t
FoldDecision(uint64_t h, const DecisionTraceEntry& e)
{
    Fnv f{h};
    f.Real(e.time_s);
    f.Int(e.interval);
    f.Word(static_cast<uint64_t>(e.kind));
    f.Real(e.observed_p99_ms);
    f.Word(e.violated);
    f.Word(static_cast<uint64_t>(e.telemetry));
    f.Int(e.silent_intervals);
    f.Word(e.trust_reduced);
    f.Int(e.mispredictions);
    f.Int(e.healthy_streak);
    f.Int(e.consecutive_violations);
    f.Word(e.trust_lost);
    f.Word(e.trust_restored);
    f.Real(e.margin_ms);
    f.Word(e.may_reclaim);
    f.Real(e.confidence);
    f.Real(e.uncertainty_margin_ms);
    f.Word(e.tier_confidence.size());
    for (const double c : e.tier_confidence)
        f.Real(c);
    f.Int(e.chosen);
    f.Word(e.candidates.size());
    for (const CandidateTrace& c : e.candidates) {
        f.Word(c.latency_ms.size());
        for (const double v : c.latency_ms)
            f.Real(v);
        f.Word(static_cast<uint64_t>(c.kind));
        f.Word(static_cast<uint64_t>(c.outcome));
        f.Real(c.total_cpu);
        f.Real(c.p_violation);
    }
    return f.h;
}

uint64_t
DecisionTraceDigest(const DecisionTrace& trace)
{
    uint64_t h = kEmptyDecisionDigest;
    for (const DecisionTraceEntry& e : trace.intervals)
        h = FoldDecision(h, e);
    return h;
}

} // namespace sinan
