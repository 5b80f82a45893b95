/**
 * @file
 * Golden-file pin of the telemetry_log serializer. The decision-trace
 * CSV is consumed by the acceptance tooling, so its exact bytes are a
 * contract: any formatting drift (column order, precision, enum
 * spelling) must show up as a reviewed diff of the committed golden
 * file, not as a silent change.
 *
 * The fixture trace is hand-built to cover every serialization branch:
 * a warm-up interval with no candidates, a model interval with one
 * candidate per outcome, a fallback, a degraded interval with
 * non-finite telemetry, and an uncertainty-aware interval with graded
 * confidence. Regenerate after an intentional format change
 * with:  SINAN_REGEN_GOLDEN=1 ./tests/golden_trace_test
 */
#include <gtest/gtest.h>

#include <string>

#include "golden_util.h"
#include "harness/telemetry_log.h"

namespace sinan {
namespace {

using testutil::CheckGolden;

/** A fixed trace exercising every row shape the serializers emit. */
DecisionTrace
FixtureTrace()
{
    DecisionTrace trace;

    // Interval 0: warm-up, no candidates (the candidate=-1 row).
    DecisionTraceEntry warmup;
    warmup.time_s = 1.0;
    warmup.interval = 0;
    warmup.kind = DecisionKind::kWarmup;
    warmup.observed_p99_ms = 87.5;
    trace.intervals.push_back(warmup);

    // Interval 1: model path, one candidate per outcome.
    DecisionTraceEntry model;
    model.time_s = 2.0;
    model.interval = 1;
    model.kind = DecisionKind::kModel;
    model.observed_p99_ms = 142.25;
    model.healthy_streak = 3;
    model.margin_ms = 20.0;
    model.may_reclaim = true;
    model.chosen = 1;
    const CandidateOutcome outcomes[] = {
        CandidateOutcome::kNotCheapest,
        CandidateOutcome::kChosen,
        CandidateOutcome::kRejectedHysteresis,
        CandidateOutcome::kRejectedPostDownSaturation,
        CandidateOutcome::kRejectedLatencyMargin,
        CandidateOutcome::kRejectedViolationProb,
        CandidateOutcome::kRejectedDegradedTelemetry,
    };
    const ActionKind kinds[] = {
        ActionKind::kHold,          ActionKind::kScaleDown,
        ActionKind::kScaleDownBatch, ActionKind::kScaleUp,
        ActionKind::kScaleUpAll,    ActionKind::kScaleUpVictims,
        ActionKind::kHold,
    };
    for (int i = 0; i < 7; ++i) {
        CandidateTrace c;
        c.kind = kinds[i];
        c.total_cpu = 10.0 + i * 0.5;
        c.latency_ms = {100.0 + i, 110.0 + i, 120.0 + i, 130.0 + i,
                        140.0 + i};
        c.p_violation = 0.01 * i;
        c.outcome = outcomes[i];
        model.candidates.push_back(c);
    }
    trace.intervals.push_back(model);

    // Interval 2: fallback after an observed violation, trust lost.
    DecisionTraceEntry fallback;
    fallback.time_s = 3.0;
    fallback.interval = 2;
    fallback.kind = DecisionKind::kEscalatedFallback;
    fallback.observed_p99_ms = 512.0;
    fallback.violated = true;
    fallback.trust_reduced = true;
    fallback.mispredictions = 2;
    fallback.consecutive_violations = 3;
    fallback.trust_lost = true;
    trace.intervals.push_back(fallback);

    // Interval 3: degraded telemetry (non-finite), heuristic path.
    DecisionTraceEntry degraded;
    degraded.time_s = 4.0;
    degraded.interval = 3;
    degraded.kind = DecisionKind::kDegradedHeuristic;
    degraded.observed_p99_ms = -1.0;
    degraded.telemetry = TelemetryHealth::kNonFinite;
    degraded.silent_intervals = 1;
    degraded.trust_reduced = true;
    degraded.trust_restored = false;
    trace.intervals.push_back(degraded);

    // Interval 4: uncertainty-aware path — partially-trusted telemetry,
    // graded confidence, widened margin, and a candidate rejected by the
    // confidence-scaled step-down budget.
    DecisionTraceEntry uncertain;
    uncertain.time_s = 5.0;
    uncertain.interval = 4;
    uncertain.kind = DecisionKind::kUncertainModel;
    uncertain.observed_p99_ms = 98.0;
    uncertain.telemetry = TelemetryHealth::kNonFinite;
    uncertain.silent_intervals = 2;
    uncertain.confidence = 0.8;
    uncertain.uncertainty_margin_ms = 3.0;
    uncertain.tier_confidence = {1.0, 0.0, 1.0, 0.25};
    uncertain.chosen = 1;
    CandidateTrace too_big;
    too_big.kind = ActionKind::kScaleDown;
    too_big.total_cpu = 9.0;
    too_big.latency_ms = {90.0, 95.0, 100.0, 105.0, 110.0};
    too_big.p_violation = 0.02;
    too_big.outcome = CandidateOutcome::kRejectedUncertaintyStep;
    uncertain.candidates.push_back(too_big);
    CandidateTrace hold;
    hold.kind = ActionKind::kHold;
    hold.total_cpu = 10.0;
    hold.latency_ms = {95.0, 100.0, 105.0, 110.0, 115.0};
    hold.p_violation = 0.01;
    hold.outcome = CandidateOutcome::kChosen;
    uncertain.candidates.push_back(hold);
    trace.intervals.push_back(uncertain);

    return trace;
}

TEST(GoldenTraceTest, DecisionTraceCsvBytesAreStable)
{
    CheckGolden("decision_trace.csv",
                DecisionTraceToCsv(FixtureTrace()));
}

TEST(GoldenTraceTest, RenderingIsAPureFunctionOfTheTrace)
{
    const DecisionTrace t = FixtureTrace();
    EXPECT_EQ(DecisionTraceToCsv(t), DecisionTraceToCsv(t));
}

} // namespace
} // namespace sinan
