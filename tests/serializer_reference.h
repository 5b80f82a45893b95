/**
 * @file
 * The reference the artifact-serializer oracle tests compare against:
 * every artifact serializer as it was first written, on
 * std::ostringstream with the iostream settings that define the byte
 * contract (std::fixed with precision 4 for the CSV/JSON artifacts,
 * the default float field with precision 17 for metric values). The
 * code under test formats the same bytes through TextAppender
 * (common/text_appender.h); this header keeps the stream formulation
 * so the two can be compared on values no golden holds.
 */
#ifndef SINAN_TESTS_SERIALIZER_REFERENCE_H
#define SINAN_TESTS_SERIALIZER_REFERENCE_H

#include <sstream>
#include <string>

#include "common/metrics.h"
#include "core/decision_trace.h"
#include "fleet/fleet.h"
#include "harness/harness.h"

namespace sinan {
namespace testutil {

/** FormatDouble: fixed with @p precision fraction digits. */
inline std::string
ReferenceFormatDouble(double value, int precision)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(precision);
    out << value;
    return out.str();
}

/** A metric value: default float field, precision 17. */
inline std::string
ReferenceFormatValue(double v)
{
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

inline std::string
ReferenceMetricsCsv(const MetricsRegistry& reg)
{
    std::ostringstream out;
    out << "kind,name,field,value\n";
    for (const auto& [name, v] : reg.Counters())
        out << "counter," << name << ",value," << v << '\n';
    for (const auto& [name, v] : reg.Gauges())
        out << "gauge," << name << ",value," << ReferenceFormatValue(v)
            << '\n';
    for (const auto& [name, h] : reg.Histograms()) {
        out << "histogram," << name << ",count," << h.Count() << '\n';
        out << "histogram," << name << ",sum,"
            << ReferenceFormatValue(h.Sum()) << '\n';
        out << "histogram," << name << ",min,"
            << ReferenceFormatValue(h.Min()) << '\n';
        out << "histogram," << name << ",max,"
            << ReferenceFormatValue(h.Max()) << '\n';
        for (size_t b = 0; b < h.Counts().size(); ++b) {
            out << "histogram," << name << ",le_";
            if (b < h.Bounds().size())
                out << ReferenceFormatValue(h.Bounds()[b]);
            else
                out << "inf";
            out << ',' << h.Counts()[b] << '\n';
        }
    }
    return out.str();
}

inline std::string
ReferenceRunLogCsv(const RunResult& result, const Application& app)
{
    std::ostringstream out;
    out << "time_s,rps,p99_ms,predicted_p99_ms,predicted_violation,"
           "total_cpu";
    for (const TierSpec& t : app.tiers)
        out << ",cpu:" << t.name;
    out << '\n';
    out.setf(std::ios::fixed);
    out.precision(4);
    for (const IntervalRecord& rec : result.timeline) {
        out << rec.time_s << ',' << rec.rps << ',' << rec.p99_ms << ','
            << rec.predicted_p99_ms << ',' << rec.predicted_violation
            << ',' << rec.total_cpu;
        for (double a : rec.alloc)
            out << ',' << a;
        out << '\n';
    }
    return out.str();
}

inline void
ReferenceEntryPrefix(std::ostringstream& out, const DecisionTraceEntry& e)
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
    for (size_t i = 0; i < e.tier_confidence.size(); ++i) {
        if (i)
            out << '|';
        out << e.tier_confidence[i];
    }
}

inline std::string
ReferenceDecisionTraceCsv(const DecisionTrace& trace)
{
    constexpr int kPercentiles =
        static_cast<int>(PercentileRow::kCapacity);
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
            ReferenceEntryPrefix(out, e);
            out << ",-1,,";
            for (int p = 0; p <= kPercentiles; ++p)
                out << ',';
            out << ",\n";
            continue;
        }
        for (size_t c = 0; c < e.candidates.size(); ++c) {
            const CandidateTrace& ct = e.candidates[c];
            ReferenceEntryPrefix(out, e);
            out << ',' << c << ',' << ToString(ct.kind) << ','
                << ct.total_cpu;
            for (int p = 0; p < kPercentiles; ++p) {
                out << ',';
                if (p < static_cast<int>(ct.latency_ms.size()))
                    out << ct.latency_ms[static_cast<size_t>(p)];
            }
            out << ',' << ct.p_violation << ',' << ToString(ct.outcome)
                << '\n';
        }
    }
    return out.str();
}

inline std::string
ReferenceJsonEscape(const std::string& s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

inline std::string
ReferenceFleetTraceCsv(const FleetResult& result)
{
    std::ostringstream out;
    out << "interval,time_s,cluster,app,manager,seed,rps,p99_ms,qos_ms,"
           "violated,total_cpu,predicted_p99_ms,predicted_violation\n";
    out.setf(std::ios::fixed);
    out.precision(4);
    const size_t intervals =
        result.clusters.empty()
            ? 0
            : result.clusters.front().result.timeline.size();
    for (size_t i = 0; i < intervals; ++i) {
        for (const FleetClusterResult& c : result.clusters) {
            const IntervalRecord& rec = c.result.timeline[i];
            out << i << ',' << rec.time_s << ',' << c.spec.index << ','
                << c.spec.app << ',' << c.spec.manager << ','
                << c.spec.seed << ',' << rec.rps << ',' << rec.p99_ms
                << ',' << c.qos_ms << ','
                << (rec.p99_ms > c.qos_ms ? 1 : 0) << ','
                << rec.total_cpu << ',' << rec.predicted_p99_ms << ','
                << rec.predicted_violation << '\n';
        }
    }
    return out.str();
}

inline std::string
ReferenceFleetSummaryJson(const FleetResult& result, bool include_timing)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(4);
    out << "{\n  \"clusters\": [\n";
    for (size_t k = 0; k < result.clusters.size(); ++k) {
        const FleetClusterResult& c = result.clusters[k];
        out << "    {\"cluster\": " << c.spec.index << ", \"app\": \""
            << c.spec.app << "\", \"app_name\": \""
            << ReferenceJsonEscape(c.app_name)
            << "\", \"manager\": \"" << c.spec.manager
            << "\", \"users\": " << c.spec.users
            << ", \"seed\": " << c.spec.seed << ", \"faults\": \""
            << ReferenceJsonEscape(c.spec.faults)
            << "\", \"qos_ms\": " << c.qos_ms
            << ", \"qos_meet_prob\": " << c.result.qos_meet_prob
            << ", \"mean_cpu\": " << c.result.mean_cpu
            << ", \"max_cpu\": " << c.result.max_cpu
            << ", \"mean_p99_ms\": " << c.result.mean_p99_ms
            << ", \"recovery_intervals\": " << c.recovery_intervals
            << "}";
        out << (k + 1 < result.clusters.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"fleet\": {\"n_clusters\": "
        << result.clusters.size()
        << ", \"qos_meet_prob\": " << result.qos_meet_prob
        << ", \"measured_cluster_intervals\": "
        << result.measured_cluster_intervals
        << ", \"violation_cluster_intervals\": "
        << result.violation_cluster_intervals
        << ", \"mean_total_cpu\": " << result.mean_total_cpu
        << ", \"max_total_cpu\": " << result.max_total_cpu << "}";
    if (include_timing) {
        out << ",\n  \"timing\": {\"threads\": " << result.threads
            << ", \"wall_s\": " << result.wall_s
            << ", \"shard_intervals_per_s\": "
            << result.shard_intervals_per_s
            << ", \"model_clones\": " << result.model_clones
            << ", \"decide_ms\": {\"mean\": " << result.decide.mean_ms
            << ", \"p50\": " << result.decide.p50_ms
            << ", \"p95\": " << result.decide.p95_ms
            << ", \"p99\": " << result.decide.p99_ms
            << ", \"max\": " << result.decide.max_ms << "}}";
    }
    out << "\n}\n";
    return out.str();
}

} // namespace testutil
} // namespace sinan

#endif // SINAN_TESTS_SERIALIZER_REFERENCE_H
