#include "harness/runlog.h"

#include <sstream>

#include "common/check.h"
#include "common/table.h"

namespace sinan {

std::string
RunLogToCsv(const RunResult& result, const Application& app)
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
        // A record whose allocation width drifted from the tier list
        // would silently shift every column after total_cpu.
        SINAN_CHECK_EQ(rec.alloc.size(), app.tiers.size());
        SINAN_CHECK_FINITE(rec.p99_ms);
        out << rec.time_s << ',' << rec.rps << ',' << rec.p99_ms << ','
            << rec.predicted_p99_ms << ',' << rec.predicted_violation
            << ',' << rec.total_cpu;
        for (double a : rec.alloc)
            out << ',' << a;
        out << '\n';
    }
    return out.str();
}

void
WriteRunLog(const std::string& path, const RunResult& result,
            const Application& app)
{
    WriteFile(path, RunLogToCsv(result, app));
}

} // namespace sinan
