#include "harness/telemetry_log.h"

#include <sstream>

#include "common/check.h"
#include "common/table.h"

namespace sinan {

namespace {

// p95..p99: every candidate's prediction is one PercentileRow.
constexpr int kPercentiles = static_cast<int>(PercentileRow::kCapacity);

void
AppendEntryPrefix(std::ostringstream& out, const DecisionTraceEntry& e)
{
    out << e.time_s << ',' << e.interval << ',' << ToString(e.kind)
        << ',' << e.observed_p99_ms << ',' << (e.violated ? 1 : 0)
        << ',' << (e.trust_reduced ? 1 : 0) << ',' << e.mispredictions
        << ',' << e.healthy_streak << ',' << e.consecutive_violations
        << ',' << (e.trust_lost ? 1 : 0) << ','
        << (e.trust_restored ? 1 : 0) << ',' << ToString(e.telemetry)
        << ',' << e.silent_intervals << ',' << e.margin_ms << ','
        << (e.may_reclaim ? 1 : 0) << ',' << e.confidence << ','
        << e.uncertainty_margin_ms << ',';
    // The per-tier confidence vector is one CSV cell: '|'-separated so
    // the column count stays fixed across tier counts.
    for (size_t i = 0; i < e.tier_confidence.size(); ++i) {
        if (i)
            out << '|';
        out << e.tier_confidence[i];
    }
}

} // namespace

std::string
DecisionTraceToCsv(const DecisionTrace& trace)
{
    std::ostringstream out;
    out << "time_s,interval,decision,observed_p99_ms,violated,"
           "trust_reduced,mispredictions,healthy_streak,"
           "consecutive_violations,trust_lost,trust_restored,telemetry,"
           "silent_intervals,margin_ms,may_reclaim,"
           "confidence,uncertainty_margin_ms,tier_confidence,"
           "candidate,action,total_cpu";
    for (int p = 0; p < kPercentiles; ++p)
        out << ",pred_p" << (95 + p) << "_ms";
    out << ",p_violation,outcome\n";
    out.setf(std::ios::fixed);
    out.precision(4);
    for (const DecisionTraceEntry& e : trace.intervals) {
        if (e.candidates.empty()) {
            AppendEntryPrefix(out, e);
            out << ",-1,,";
            for (int p = 0; p <= kPercentiles; ++p)
                out << ',';
            out << ",\n";
            continue;
        }
        SINAN_CHECK_BOUNDS(e.chosen, -1,
                           static_cast<int>(e.candidates.size()) - 1);
        for (size_t c = 0; c < e.candidates.size(); ++c) {
            const CandidateTrace& ct = e.candidates[c];
            AppendEntryPrefix(out, e);
            out << ',' << c << ',' << ToString(ct.kind) << ','
                << ct.total_cpu;
            for (int p = 0; p < kPercentiles; ++p) {
                out << ',';
                if (p < static_cast<int>(ct.latency_ms.size()))
                    out << ct.latency_ms[p];
            }
            out << ',' << ct.p_violation << ',' << ToString(ct.outcome)
                << '\n';
        }
    }
    return out.str();
}

void
WriteDecisionTrace(const std::string& path, const DecisionTrace& trace)
{
    WriteFile(path, DecisionTraceToCsv(trace));
}

void
WriteMetrics(const std::string& path, const MetricsRegistry& reg)
{
    WriteFile(path, reg.ToCsv());
}

double
TelemetrySummary::PredictionAccuracy() const
{
    if (predictions == 0)
        return 1.0;
    return 1.0 - static_cast<double>(mispredictions) /
                     static_cast<double>(predictions);
}

double
TelemetrySummary::FallbackRate() const
{
    if (decisions == 0)
        return 0.0;
    return static_cast<double>(fallbacks) /
           static_cast<double>(decisions);
}

TelemetrySummary
SummarizeTelemetry(const MetricsRegistry& reg)
{
    TelemetrySummary s;
    s.decisions = reg.Counter("sinan.scheduler.decisions");
    s.warmup = reg.Counter("sinan.scheduler.warmup");
    s.fallbacks = reg.Counter("sinan.scheduler.fallbacks");
    s.escalations = reg.Counter("sinan.scheduler.escalations");
    s.model_decisions = reg.Counter("sinan.scheduler.model_decisions");
    s.no_feasible = reg.Counter("sinan.scheduler.no_feasible");
    s.candidates = reg.Counter("sinan.scheduler.candidates");
    s.predictions = reg.Counter("sinan.scheduler.predictions");
    s.mispredictions = reg.Counter("sinan.scheduler.mispredictions");
    s.trust_lost = reg.Counter("sinan.scheduler.trust_lost");
    s.trust_restored = reg.Counter("sinan.scheduler.trust_restored");
    s.degraded = reg.Counter("sinan.scheduler.degraded");
    s.degraded_model = reg.Counter("sinan.scheduler.degraded_model");
    s.degraded_heuristic =
        reg.Counter("sinan.scheduler.degraded_heuristic");
    s.degraded_hold = reg.Counter("sinan.scheduler.degraded_hold");
    s.watchdog_upscales = reg.Counter("sinan.scheduler.watchdog");
    s.uncertain = reg.Counter("sinan.scheduler.uncertain");
    s.uncertain_model = reg.Counter("sinan.scheduler.uncertain_model");
    return s;
}

} // namespace sinan
