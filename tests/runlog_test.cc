/**
 * @file
 * Tests for the execution-log CSV writer.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "app/apps.h"
#include "harness/runlog.h"

namespace sinan {
namespace {

RunResult
ToyResult(int intervals)
{
    RunResult r;
    for (int i = 0; i < intervals; ++i) {
        IntervalRecord rec;
        rec.time_s = i + 1.0;
        rec.rps = 100.0 + i;
        rec.p99_ms = 100.0 + 10.0 * i;
        rec.predicted_p99_ms = 95.0 + 10.0 * i;
        rec.predicted_violation = 0.05 * i;
        rec.alloc = {1.0 + i, 2.0, 3.0};
        rec.total_cpu = rec.alloc[0] + 5.0;
        r.timeline.push_back(rec);
    }
    return r;
}

Application
ToyApp()
{
    Application app;
    app.name = "toy";
    app.qos_ms = 150.0;
    for (const char* n : {"a", "b", "c"}) {
        TierSpec t;
        t.name = n;
        app.tiers.push_back(t);
    }
    RequestType rt;
    rt.root.tier = 0;
    app.request_types.push_back(rt);
    return app;
}

TEST(RunLog, CsvIsHeaderPlusFixedPointRows)
{
    const std::string expected =
        "time_s,rps,p99_ms,predicted_p99_ms,predicted_violation,"
        "total_cpu,cpu:a,cpu:b,cpu:c\n"
        "1.0000,100.0000,100.0000,95.0000,0.0000,6.0000,1.0000,2.0000,"
        "3.0000\n"
        "2.0000,101.0000,110.0000,105.0000,0.0500,7.0000,2.0000,2.0000,"
        "3.0000\n";
    EXPECT_EQ(RunLogToCsv(ToyResult(2), ToyApp()), expected);
}

TEST(RunLog, WriteRunLogWritesTheCsv)
{
    const Application app = ToyApp();
    const RunResult r = ToyResult(3);
    const std::string path = "/tmp/sinan_runlog_test/run.csv";
    WriteRunLog(path, r, app);
    std::ifstream in(path);
    std::ostringstream written;
    written << in.rdbuf();
    EXPECT_EQ(written.str(), RunLogToCsv(r, app));
    std::filesystem::remove_all("/tmp/sinan_runlog_test");
}

TEST(RunLog, EndToEndWithRealRun)
{
    // A tiny real run through the harness must serialize cleanly.
    const Application app = BuildSocialNetwork();
    class Hold : public ResourceManager {
      public:
        std::vector<double>
        Decide(const IntervalObservation&,
               const std::vector<double>& alloc,
               const Application&) override
        {
            return alloc;
        }
        const char* Name() const override { return "Hold"; }
    } hold;
    ConstantLoad load(80.0);
    RunConfig cfg;
    cfg.duration_s = 8.0;
    const RunResult r = RunManaged(app, hold, load, cfg);
    // Header plus one row per interval, each 6 + one column per tier.
    std::istringstream csv(RunLogToCsv(r, app));
    std::string line;
    size_t lines = 0;
    while (std::getline(csv, line)) {
        ++lines;
        EXPECT_EQ(std::count(line.begin(), line.end(), ','),
                  static_cast<std::ptrdiff_t>(5 + app.tiers.size()));
    }
    EXPECT_EQ(lines, 1u + 8u);
}

} // namespace
} // namespace sinan
