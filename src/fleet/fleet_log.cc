#include "fleet/fleet_log.h"

#include <sstream>

#include "common/check.h"
#include "common/table.h"

namespace sinan {

namespace {

/** Minimal JSON string escaping (fault specs are plain ASCII, but a
 *  quote or backslash must not corrupt the document). */
std::string
JsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

void
AppendClusterJson(std::ostringstream& out, const FleetClusterResult& c)
{
    out << "    {\"cluster\": " << c.spec.index << ", \"app\": \""
        << c.spec.app << "\", \"app_name\": \"" << JsonEscape(c.app_name)
        << "\", \"manager\": \"" << c.spec.manager
        << "\", \"users\": " << c.spec.users
        << ", \"seed\": " << c.spec.seed << ", \"faults\": \""
        << JsonEscape(c.spec.faults) << "\", \"qos_ms\": " << c.qos_ms
        << ", \"qos_meet_prob\": " << c.result.qos_meet_prob
        << ", \"mean_cpu\": " << c.result.mean_cpu
        << ", \"max_cpu\": " << c.result.max_cpu
        << ", \"mean_p99_ms\": " << c.result.mean_p99_ms
        << ", \"recovery_intervals\": " << c.recovery_intervals << "}";
}

} // namespace

std::string
FleetTraceToCsv(const FleetResult& result)
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
    for (const FleetClusterResult& c : result.clusters)
        SINAN_CHECK_MSG(c.result.timeline.size() == intervals,
                        "FleetTraceToCsv: clusters disagree on "
                        "interval count");
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

std::string
FleetSummaryToJson(const FleetResult& result, bool include_timing)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(4);
    out << "{\n  \"clusters\": [\n";
    for (size_t k = 0; k < result.clusters.size(); ++k) {
        AppendClusterJson(out, result.clusters[k]);
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

void
WriteFleetTrace(const std::string& path, const FleetResult& result)
{
    WriteFile(path, FleetTraceToCsv(result));
}

void
WriteFleetReport(const std::string& path, const FleetResult& result)
{
    WriteFile(path, FleetSummaryToJson(result));
}

} // namespace sinan
