/**
 * @file
 * Serialization of the scheduler's decision telemetry (see
 * core/decision_trace.h and common/metrics.h), emitted next to the run
 * log as a flat CSV with one row per candidate per decision interval
 * (the format the acceptance tooling and the figure post-processing
 * consume). The rendering is deterministic: equal traces produce
 * byte-identical output.
 */
#ifndef SINAN_HARNESS_TELEMETRY_LOG_H
#define SINAN_HARNESS_TELEMETRY_LOG_H

#include <string>

#include "common/metrics.h"
#include "core/decision_trace.h"

namespace sinan {

/**
 * Flat CSV: header plus one row per candidate, and one row with
 * candidate = -1 for intervals decided on a safety path (warm-up,
 * fallback) where no candidates were evaluated. Columns:
 *   time_s, interval, decision, observed_p99_ms, violated,
 *   trust_reduced, mispredictions, healthy_streak,
 *   consecutive_violations, trust_lost, trust_restored, telemetry,
 *   silent_intervals, margin_ms, may_reclaim, confidence,
 *   uncertainty_margin_ms, tier_confidence ('|'-separated vector),
 *   candidate, action, total_cpu, pred_p95_ms..pred_p99_ms,
 *   p_violation, outcome
 */
std::string DecisionTraceToCsv(const DecisionTrace& trace);

/** Writes DecisionTraceToCsv to @p path (creating parent directories). */
void WriteDecisionTrace(const std::string& path,
                        const DecisionTrace& trace);

/** Writes MetricsRegistry::ToCsv to @p path (parents created). */
void WriteMetrics(const std::string& path, const MetricsRegistry& reg);

/** Summary counters derived from a run's metric registry. */
struct TelemetrySummary {
    uint64_t decisions = 0;
    uint64_t warmup = 0;
    uint64_t fallbacks = 0;
    uint64_t escalations = 0;
    uint64_t model_decisions = 0;
    uint64_t no_feasible = 0;
    uint64_t candidates = 0;
    uint64_t predictions = 0;
    uint64_t mispredictions = 0;
    uint64_t trust_lost = 0;
    uint64_t trust_restored = 0;
    /** Degraded-telemetry intervals (stale/non-finite/absent input),
     *  split by path, plus watchdog-forced upscales. */
    uint64_t degraded = 0;
    uint64_t degraded_model = 0;
    uint64_t degraded_heuristic = 0;
    uint64_t degraded_hold = 0;
    uint64_t watchdog_upscales = 0;
    /** Uncertainty-aware intervals (partially-trusted telemetry with
     *  the graded policy enabled), and the subset decided by a
     *  model-filtered candidate. */
    uint64_t uncertain = 0;
    uint64_t uncertain_model = 0;

    /** Fraction of evaluated predictions that proved out (1 when the
     *  manager made no predictions). */
    double PredictionAccuracy() const;

    /** Fallback intervals (incl. escalations) per decision. */
    double FallbackRate() const;
};

/** Reads the `sinan.scheduler.*` counters out of @p reg. */
TelemetrySummary SummarizeTelemetry(const MetricsRegistry& reg);

} // namespace sinan

#endif // SINAN_HARNESS_TELEMETRY_LOG_H
