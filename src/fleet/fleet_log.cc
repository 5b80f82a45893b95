#include "fleet/fleet_log.h"

#include <string_view>

#include "common/check.h"
#include "common/text_appender.h"

namespace sinan {

namespace {

/** Minimal JSON string escaping (fault specs are plain ASCII, but a
 *  quote or backslash must not corrupt the document). */
void
AppendJsonEscaped(TextAppender& out, std::string_view s)
{
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.Char('\\');
        out.Char(c);
    }
}

void
AppendClusterJson(TextAppender& out, const FleetClusterResult& c)
{
    out.Str("    {\"cluster\": ").Int(c.spec.index);
    out.Str(", \"app\": \"").Str(c.spec.app).Str("\", \"app_name\": \"");
    AppendJsonEscaped(out, c.app_name);
    out.Str("\", \"manager\": \"").Str(c.spec.manager);
    out.Str("\", \"users\": ").Fixed(c.spec.users);
    out.Str(", \"seed\": ").Int(c.spec.seed).Str(", \"faults\": \"");
    AppendJsonEscaped(out, c.spec.faults);
    out.Str("\", \"qos_ms\": ").Fixed(c.qos_ms);
    out.Str(", \"qos_meet_prob\": ").Fixed(c.result.qos_meet_prob);
    out.Str(", \"mean_cpu\": ").Fixed(c.result.mean_cpu);
    out.Str(", \"max_cpu\": ").Fixed(c.result.max_cpu);
    out.Str(", \"mean_p99_ms\": ").Fixed(c.result.mean_p99_ms);
    out.Str(", \"recovery_intervals\": ").Int(c.recovery_intervals);
    out.Char('}');
}

/** Timeline length shared by every cluster of @p result. */
size_t
FleetIntervals(const FleetResult& result)
{
    const size_t intervals =
        result.clusters.empty()
            ? 0
            : result.clusters.front().result.timeline.size();
    for (const FleetClusterResult& c : result.clusters)
        SINAN_CHECK_MSG(c.result.timeline.size() == intervals,
                        "FleetTraceToCsv: clusters disagree on "
                        "interval count");
    return intervals;
}

} // namespace

std::string
FleetTraceToCsv(const FleetResult& result)
{
    // Per interval, each cluster's row: 4 integer cells (interval,
    // cluster, seed, violated), 6 fixed cells and its two names.
    size_t interval_bytes = 0;
    for (const FleetClusterResult& c : result.clusters)
        interval_bytes += 4 * TextAppender::kIntCellBytes +
                          6 * TextAppender::kFixedCellBytes +
                          c.spec.app.size() + c.spec.manager.size() + 2;
    std::string csv;
    csv.reserve(128 + FleetIntervals(result) * interval_bytes);
    TextAppender out(csv);
    AppendFleetTrace(out, result);
    return csv;
}

void
AppendFleetTrace(TextAppender& out, const FleetResult& result)
{
    out.Str("interval,time_s,cluster,app,manager,seed,rps,p99_ms,qos_ms,"
            "violated,total_cpu,predicted_p99_ms,predicted_violation\n");
    const size_t intervals = FleetIntervals(result);
    for (size_t i = 0; i < intervals; ++i) {
        for (const FleetClusterResult& c : result.clusters) {
            const IntervalRecord& rec = c.result.timeline[i];
            out.Int(i).Char(',').Fixed(rec.time_s).Char(',');
            out.Int(c.spec.index).Char(',').Str(c.spec.app).Char(',');
            out.Str(c.spec.manager).Char(',').Int(c.spec.seed).Char(',');
            out.Fixed(rec.rps).Char(',').Fixed(rec.p99_ms).Char(',');
            out.Fixed(c.qos_ms).Char(',');
            out.Int(rec.p99_ms > c.qos_ms ? 1 : 0).Char(',');
            out.Fixed(rec.total_cpu).Char(',');
            out.Fixed(rec.predicted_p99_ms).Char(',');
            out.Fixed(rec.predicted_violation).Char('\n');
            out.EndRow();
        }
    }
}

std::string
FleetSummaryToJson(const FleetResult& result, bool include_timing)
{
    // A cluster line holds 3 integer and 6 fixed cells, ~190 bytes of
    // keys and its four strings; the fleet and timing objects fit in
    // 1 KiB.
    size_t bytes = 1024;
    for (const FleetClusterResult& c : result.clusters)
        bytes += 3 * TextAppender::kIntCellBytes +
                 6 * TextAppender::kFixedCellBytes + 192 +
                 c.spec.app.size() + c.spec.manager.size() +
                 2 * (c.app_name.size() + c.spec.faults.size());
    std::string json;
    json.reserve(bytes);
    TextAppender out(json);
    AppendFleetSummaryJson(out, result, include_timing);
    return json;
}

void
AppendFleetSummaryJson(TextAppender& out, const FleetResult& result,
                       bool include_timing)
{
    out.Str("{\n  \"clusters\": [\n");
    for (size_t k = 0; k < result.clusters.size(); ++k) {
        AppendClusterJson(out, result.clusters[k]);
        out.Str(k + 1 < result.clusters.size() ? ",\n" : "\n");
        out.EndRow();
    }
    out.Str("  ],\n  \"fleet\": {\"n_clusters\": ");
    out.Int(result.clusters.size());
    out.Str(", \"qos_meet_prob\": ").Fixed(result.qos_meet_prob);
    out.Str(", \"measured_cluster_intervals\": ");
    out.Int(result.measured_cluster_intervals);
    out.Str(", \"violation_cluster_intervals\": ");
    out.Int(result.violation_cluster_intervals);
    out.Str(", \"mean_total_cpu\": ").Fixed(result.mean_total_cpu);
    out.Str(", \"max_total_cpu\": ").Fixed(result.max_total_cpu);
    out.Char('}');
    if (include_timing) {
        out.Str(",\n  \"timing\": {\"threads\": ").Int(result.threads);
        out.Str(", \"wall_s\": ").Fixed(result.wall_s);
        out.Str(", \"shard_intervals_per_s\": ");
        out.Fixed(result.shard_intervals_per_s);
        out.Str(", \"model_clones\": ").Int(result.model_clones);
        out.Str(", \"decide_ms\": {\"mean\": ").Fixed(result.decide.mean_ms);
        out.Str(", \"p50\": ").Fixed(result.decide.p50_ms);
        out.Str(", \"p95\": ").Fixed(result.decide.p95_ms);
        out.Str(", \"p99\": ").Fixed(result.decide.p99_ms);
        out.Str(", \"max\": ").Fixed(result.decide.max_ms).Str("}}");
    }
    out.Str("\n}\n");
}

} // namespace sinan
