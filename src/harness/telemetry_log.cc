#include "harness/telemetry_log.h"

#include "common/check.h"
#include "common/text_appender.h"

namespace sinan {

namespace {

// p95..p99: every candidate's prediction is one PercentileRow.
constexpr int kPercentiles = static_cast<int>(PercentileRow::kCapacity);

// Reservation width of an enum-name cell (the longest ToString name
// has 20 characters) with its separator.
constexpr size_t kNameCellBytes = 32;

/** The cells every row of @p e starts with, through tier_confidence. */
void
AppendEntryPrefix(TextAppender& out, const DecisionTraceEntry& e)
{
    out.Fixed(e.time_s).Char(',').Int(e.interval).Char(',');
    out.Str(ToString(e.kind)).Char(',').Fixed(e.observed_p99_ms);
    out.Char(',').Int(e.violated ? 1 : 0).Char(',');
    out.Int(e.trust_reduced ? 1 : 0).Char(',').Int(e.mispredictions);
    out.Char(',').Int(e.healthy_streak).Char(',');
    out.Int(e.consecutive_violations).Char(',');
    out.Int(e.trust_lost ? 1 : 0).Char(',');
    out.Int(e.trust_restored ? 1 : 0).Char(',');
    out.Str(ToString(e.telemetry)).Char(',').Int(e.silent_intervals);
    out.Char(',').Fixed(e.margin_ms).Char(',');
    out.Int(e.may_reclaim ? 1 : 0).Char(',').Fixed(e.confidence);
    out.Char(',').Fixed(e.uncertainty_margin_ms).Char(',');
    // The per-tier confidence vector is one CSV cell: '|'-separated so
    // the column count stays fixed across tier counts.
    for (size_t i = 0; i < e.tier_confidence.size(); ++i) {
        if (i)
            out.Char('|');
        out.Fixed(e.tier_confidence[i]);
    }
}

/** Reservation for @p e's rows: each is its prefix (5 fixed, 5
 *  integer, 5 flag and 2 name cells, then the tier confidences)
 *  followed by the candidate cells (an index, 2 names, 2 + the
 *  percentiles fixed). */
size_t
EntryBytes(const DecisionTraceEntry& e)
{
    constexpr size_t kFixed = TextAppender::kFixedCellBytes;
    const size_t prefix = 5 * kFixed + 5 * TextAppender::kIntCellBytes +
                          5 * 2 + 2 * kNameCellBytes +
                          e.tier_confidence.size() * kFixed;
    const size_t candidate = TextAppender::kIntCellBytes +
                             2 * kNameCellBytes +
                             (2 + kPercentiles) * kFixed;
    const size_t rows = e.candidates.empty() ? 1 : e.candidates.size();
    return rows * (prefix + candidate);
}

} // namespace

std::string
DecisionTraceToCsv(const DecisionTrace& trace)
{
    size_t bytes = 512; // the header
    for (const DecisionTraceEntry& e : trace.intervals)
        bytes += EntryBytes(e);
    std::string csv;
    csv.reserve(bytes);
    TextAppender out(csv);
    AppendDecisionTraceHeader(out);
    AppendDecisionTraceEntries(out, trace.intervals);
    return csv;
}

void
AppendDecisionTraceHeader(TextAppender& out)
{
    out.Str("time_s,interval,decision,observed_p99_ms,violated,"
            "trust_reduced,mispredictions,healthy_streak,"
            "consecutive_violations,trust_lost,trust_restored,telemetry,"
            "silent_intervals,margin_ms,may_reclaim,"
            "confidence,uncertainty_margin_ms,tier_confidence,"
            "candidate,action,total_cpu");
    for (int p = 0; p < kPercentiles; ++p)
        out.Str(",pred_p").Int(95 + p).Str("_ms");
    out.Str(",p_violation,outcome\n");
}

void
AppendDecisionTraceEntries(TextAppender& out,
                           const std::vector<DecisionTraceEntry>& entries)
{
    // An entry's prefix is formatted once and copied into each of its
    // (~100 on the social network) candidate rows.
    std::string prefix;
    for (const DecisionTraceEntry& e : entries) {
        prefix.clear();
        TextAppender cells(prefix);
        AppendEntryPrefix(cells, e);
        if (e.candidates.empty()) {
            out.Str(prefix).Str(",-1,,");
            for (int p = 0; p <= kPercentiles; ++p)
                out.Char(',');
            out.Str(",\n");
            out.EndRow();
            continue;
        }
        SINAN_CHECK_BOUNDS(e.chosen, -1,
                           static_cast<int>(e.candidates.size()) - 1);
        for (size_t c = 0; c < e.candidates.size(); ++c) {
            const CandidateTrace& ct = e.candidates[c];
            out.Str(prefix).Char(',').Int(c).Char(',');
            out.Str(ToString(ct.kind)).Char(',').Fixed(ct.total_cpu);
            for (int p = 0; p < kPercentiles; ++p) {
                out.Char(',');
                if (p < static_cast<int>(ct.latency_ms.size()))
                    out.Fixed(ct.latency_ms[static_cast<size_t>(p)]);
            }
            out.Char(',').Fixed(ct.p_violation).Char(',');
            out.Str(ToString(ct.outcome)).Char('\n');
            out.EndRow();
        }
    }
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
