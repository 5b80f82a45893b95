#include "harness/runlog.h"

#include "common/check.h"
#include "common/text_appender.h"

namespace sinan {

std::string
RunLogToCsv(const RunResult& result, const Application& app)
{
    size_t bytes = sizeof "time_s,rps,p99_ms,predicted_p99_ms,"
                          "predicted_violation,total_cpu\n";
    for (const TierSpec& t : app.tiers)
        bytes += sizeof ",cpu:" + t.name.size();
    bytes += result.timeline.size() * (6 + app.tiers.size()) *
             TextAppender::kFixedCellBytes;
    std::string csv;
    csv.reserve(bytes);
    TextAppender out(csv);
    AppendRunLog(out, result, app);
    return csv;
}

void
AppendRunLog(TextAppender& out, const RunResult& result,
             const Application& app)
{
    out.Str("time_s,rps,p99_ms,predicted_p99_ms,predicted_violation,"
            "total_cpu");
    for (const TierSpec& t : app.tiers)
        out.Str(",cpu:").Str(t.name);
    out.Char('\n');
    for (const IntervalRecord& rec : result.timeline) {
        // A record whose allocation width drifted from the tier list
        // would silently shift every column after total_cpu.
        SINAN_CHECK_EQ(rec.alloc.size(), app.tiers.size());
        SINAN_CHECK_FINITE(rec.p99_ms);
        out.Fixed(rec.time_s).Char(',').Fixed(rec.rps).Char(',');
        out.Fixed(rec.p99_ms).Char(',').Fixed(rec.predicted_p99_ms);
        out.Char(',').Fixed(rec.predicted_violation).Char(',');
        out.Fixed(rec.total_cpu);
        for (double a : rec.alloc)
            out.Char(',').Fixed(a);
        out.Char('\n');
        out.EndRow();
    }
}

void
WriteRunLog(const std::string& path, const RunResult& result,
            const Application& app)
{
    TextFile file(path);
    AppendRunLog(file.Out(), result, app);
    file.Close();
}

} // namespace sinan
