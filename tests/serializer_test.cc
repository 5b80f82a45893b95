/**
 * @file
 * The artifact serializers' byte contract, checked against the
 * iostream reference (serializer_reference.h) on values the goldens
 * never hold: NaN of either sign, infinities, -0.0, the extremes of
 * the double range, the -1 sentinels, empty vectors, rows shorter than
 * the percentile count, a fleet with no intervals, and histograms of
 * 0, 1 and many bounds. Also pins the file sink: a file drained in
 * TextFile::kFlushBytes pieces holds exactly the string serializer's
 * bytes, and a failed open or write throws naming the path.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/text_appender.h"
#include "fleet/fleet_log.h"
#include "harness/runlog.h"
#include "harness/telemetry_log.h"
#include "serializer_reference.h"

namespace sinan {
namespace {

using testutil::ReferenceDecisionTraceCsv;
using testutil::ReferenceFleetSummaryJson;
using testutil::ReferenceFleetTraceCsv;
using testutil::ReferenceFormatDouble;
using testutil::ReferenceFormatValue;
using testutil::ReferenceMetricsCsv;
using testutil::ReferenceRunLogCsv;

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Values no golden holds, plus ties and carries of the rounding. */
std::vector<double>
EdgeValues()
{
    return {kNaN,
            -kNaN,
            kInf,
            -kInf,
            0.0,
            -0.0,
            1e300,
            -1e300,
            5e-324,
            -5e-324,
            std::numeric_limits<double>::max(),
            std::numeric_limits<double>::lowest(),
            std::numeric_limits<double>::min(),
            -1.0,
            0.5,
            1.5,
            2.5,
            0.00005,
            0.00015,
            0.99995,
            -0.00004,
            9999.99995,
            123456789.123456789,
            1e10,
            1e16 + 1.0,
            0.1,
            1.0 / 3.0};
}

/** Every double bit pattern class, NaN payloads included. */
std::vector<double>
RandomBitPatterns(size_t n)
{
    Rng rng(20261022);
    std::vector<double> out;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t bits = rng.NextU64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        out.push_back(v);
    }
    return out;
}

std::string
ReadFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream all;
    all << in.rdbuf();
    return all.str();
}

/** A scratch directory removed when the test ends. */
class ScratchDir {
  public:
    explicit ScratchDir(const std::string& name)
        : path_(std::filesystem::temp_directory_path() / name)
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }
    std::string File(const std::string& name) const
    {
        return (path_ / name).string();
    }

  private:
    std::filesystem::path path_;
};

TEST(TextAppender, DoubleFormatsMatchTheIostreamSettings)
{
    std::vector<double> values = EdgeValues();
    const std::vector<double> random = RandomBitPatterns(20000);
    values.insert(values.end(), random.begin(), random.end());
    for (const double v : values) {
        SCOPED_TRACE(ReferenceFormatValue(v));
        for (const int precision : {0, 2, 4, 17})
            EXPECT_EQ(FormatDouble(v, precision),
                      ReferenceFormatDouble(v, precision));
        std::string g;
        TextAppender(g).General17(v);
        EXPECT_EQ(g, ReferenceFormatValue(v));
    }
}

TEST(TextAppender, IntegersMatchTheStream)
{
    std::string s;
    TextAppender out(s);
    out.Int(0).Char(',').Int(-1).Char(',');
    out.Int(std::numeric_limits<int64_t>::min()).Char(',');
    out.Int(std::numeric_limits<uint64_t>::max()).Char(',');
    out.Int(size_t{42});
    std::ostringstream ref;
    ref << 0 << ',' << -1 << ',' << std::numeric_limits<int64_t>::min()
        << ',' << std::numeric_limits<uint64_t>::max() << ','
        << size_t{42};
    EXPECT_EQ(s, ref.str());
}

MetricsRegistry
EdgeRegistry()
{
    MetricsRegistry reg;
    reg.Inc("a.zero", 0);
    reg.Inc("b.max", std::numeric_limits<uint64_t>::max());
    const std::vector<double> values = EdgeValues();
    for (size_t i = 0; i < values.size(); ++i)
        reg.Set("gauge." + std::to_string(i), values[i]);
    // 0 bounds: the summary-only histogram, empty and observed.
    reg.HistogramFor("h0.empty");
    reg.Observe("h0.seen", -0.0);
    reg.Observe("h0.seen", 1e300);
    // 1 bound.
    reg.Observe("h1", 5e-324, {0.0});
    reg.Observe("h1", -1.0, {0.0});
    // Many bounds, extreme ones included.
    std::vector<double> bounds = {-kInf, -1e300, -0.0};
    for (int b = 1; b <= 40; ++b)
        bounds.push_back(b * 0.1);
    bounds.push_back(1e300);
    for (const double v : values)
        if (!std::isnan(v))
            reg.Observe("hmany", v, bounds);
    return reg;
}

TEST(SerializerOracle, MetricsCsv)
{
    const MetricsRegistry reg = EdgeRegistry();
    EXPECT_EQ(reg.ToCsv(), ReferenceMetricsCsv(reg));
    EXPECT_EQ(MetricsRegistry().ToCsv(),
              ReferenceMetricsCsv(MetricsRegistry()));
}

Application
ThreeTierApp()
{
    Application app;
    app.name = "edge";
    for (const char* n : {"front", "mid", "back"}) {
        TierSpec t;
        t.name = n;
        app.tiers.push_back(t);
    }
    return app;
}

TEST(SerializerOracle, RunLogCsv)
{
    const Application app = ThreeTierApp();
    RunResult r;
    const std::vector<double> values = EdgeValues();
    for (size_t i = 0; i < values.size(); ++i) {
        const double v = values[i];
        IntervalRecord rec;
        rec.time_s = v;
        rec.rps = -v;
        rec.p99_ms = std::isfinite(v) ? v : -1.0; // checked finite
        rec.total_cpu = v;
        rec.predicted_p99_ms = i % 2 ? -1.0 : v; // the -1 sentinel
        rec.predicted_violation = i % 3 ? -1.0 : v;
        rec.alloc = {v, -0.0, 1e300};
        r.timeline.push_back(rec);
    }
    EXPECT_EQ(RunLogToCsv(r, app), ReferenceRunLogCsv(r, app));
    EXPECT_EQ(RunLogToCsv(RunResult{}, app),
              ReferenceRunLogCsv(RunResult{}, app));
}

/** Entries over every edge value: sentinels, empty and long
 *  tier_confidence, no candidates, and latency rows of every length
 *  up to kCapacity. */
DecisionTrace
EdgeTrace()
{
    const std::vector<double> values = EdgeValues();
    DecisionTrace trace;
    for (size_t i = 0; i < values.size(); ++i) {
        const double v = values[i];
        DecisionTraceEntry e;
        e.time_s = v;
        e.interval = static_cast<int>(i) - 3;
        e.kind = static_cast<DecisionKind>(i % 10);
        e.observed_p99_ms = i % 2 ? -1.0 : v;
        e.violated = i % 2 == 0;
        e.telemetry = static_cast<TelemetryHealth>(i % 4);
        e.silent_intervals = static_cast<int>(i);
        e.trust_reduced = i % 3 == 0;
        e.mispredictions = -1;
        e.healthy_streak = std::numeric_limits<int>::max();
        e.consecutive_violations = std::numeric_limits<int>::min();
        e.trust_lost = i % 5 == 0;
        e.trust_restored = i % 7 == 0;
        e.margin_ms = i % 3 ? -1.0 : v;
        e.may_reclaim = i % 2 == 1;
        e.confidence = -v;
        e.uncertainty_margin_ms = v;
        if (i % 4 != 0)
            e.tier_confidence.assign(i % 9, v);
        if (i % 5 != 1) {
            for (size_t c = 0; c < 1 + i % 7; ++c) {
                CandidateTrace ct;
                ct.kind = static_cast<ActionKind>(c % 6);
                ct.outcome = static_cast<CandidateOutcome>(c % 8);
                ct.total_cpu = c % 2 ? v : -v;
                ct.latency_ms.resize((i + c) %
                                     (PercentileRow::kCapacity + 1));
                for (size_t p = 0; p < ct.latency_ms.size(); ++p)
                    ct.latency_ms[p] = values[(i + p) % values.size()];
                ct.p_violation = v;
                e.candidates.push_back(ct);
            }
            e.chosen = static_cast<int>(i % e.candidates.size()) - 1;
        }
        trace.intervals.push_back(e);
    }
    return trace;
}

TEST(SerializerOracle, DecisionTraceCsv)
{
    const DecisionTrace trace = EdgeTrace();
    EXPECT_EQ(DecisionTraceToCsv(trace), ReferenceDecisionTraceCsv(trace));
    EXPECT_EQ(DecisionTraceToCsv(DecisionTrace{}),
              ReferenceDecisionTraceCsv(DecisionTrace{}));
}

/** @p n clusters of @p intervals edge-valued records each. */
FleetResult
EdgeFleet(int n, size_t intervals)
{
    const std::vector<double> values = EdgeValues();
    FleetResult f;
    for (int k = 0; k < n; ++k) {
        FleetClusterResult c;
        c.spec.index = k;
        c.spec.app = k % 2 ? "hotel" : "social";
        c.spec.manager = k % 3 ? "sinan" : "cons";
        c.spec.users = values[static_cast<size_t>(k) % values.size()];
        c.spec.seed = k == 0 ? std::numeric_limits<uint64_t>::max()
                             : static_cast<uint64_t>(k);
        c.spec.faults = k % 2 ? "stall@1+2:tier=\"3\"\\x" : "";
        c.app_name = "Name \"with\" \\quotes\\";
        c.qos_ms = k % 2 ? 200.0 : kNaN;
        c.recovery_intervals = k - 2;
        c.result.qos_meet_prob = -0.0;
        c.result.mean_cpu = kInf;
        c.result.max_cpu = 1e300;
        c.result.mean_p99_ms = 5e-324;
        for (size_t i = 0; i < intervals; ++i) {
            const double v = values[(i + static_cast<size_t>(k)) %
                                    values.size()];
            IntervalRecord rec;
            rec.time_s = static_cast<double>(i);
            rec.rps = v;
            rec.p99_ms = -v;
            rec.total_cpu = v;
            rec.predicted_p99_ms = i % 2 ? -1.0 : v;
            rec.predicted_violation = i % 2 ? -1.0 : -v;
            c.result.timeline.push_back(rec);
        }
        f.clusters.push_back(c);
    }
    f.qos_meet_prob = kNaN;
    f.measured_cluster_intervals = std::numeric_limits<uint64_t>::max();
    f.violation_cluster_intervals = 0;
    f.mean_total_cpu = -kInf;
    f.max_total_cpu = -0.0;
    f.decide = {kNaN, 0.0, 1e300, -1.0, 5e-324};
    f.wall_s = -kNaN;
    f.shard_intervals_per_s = kInf;
    f.threads = 256;
    f.model_clones = -1;
    return f;
}

TEST(SerializerOracle, FleetTraceAndSummary)
{
    for (const FleetResult& f :
         {EdgeFleet(0, 0), EdgeFleet(3, 0), EdgeFleet(1, 5),
          EdgeFleet(4, 30)}) {
        EXPECT_EQ(FleetTraceToCsv(f), ReferenceFleetTraceCsv(f));
        for (const bool timing : {false, true})
            EXPECT_EQ(FleetSummaryToJson(f, timing),
                      ReferenceFleetSummaryJson(f, timing));
    }
}

/** A trace whose CSV spans many kFlushBytes drains. */
DecisionTrace
LargeTrace()
{
    DecisionTrace trace;
    for (int i = 0; i < 60; ++i) {
        DecisionTraceEntry e;
        e.time_s = i + 1.0;
        e.interval = i;
        e.kind = DecisionKind::kModel;
        e.observed_p99_ms = 100.0 + i;
        e.margin_ms = 20.0;
        e.tier_confidence.assign(8, 0.75);
        for (int c = 0; c < 96; ++c) {
            CandidateTrace ct;
            ct.total_cpu = 10.0 + c * 0.125;
            ct.latency_ms = {90.0 + c, 91.0, 92.0, 93.0, 94.0 + i};
            ct.p_violation = c / 96.0;
            e.candidates.push_back(ct);
        }
        e.chosen = i % 96;
        trace.intervals.push_back(e);
    }
    return trace;
}

TEST(TextFileSink, DrainedFileEqualsTheStringSerializer)
{
    const ScratchDir dir("sinan_serializer_test");
    const DecisionTrace trace = LargeTrace();
    const std::string csv = DecisionTraceToCsv(trace);
    ASSERT_GT(csv.size(), 8 * TextFile::kFlushBytes);

    // Stream it the way sinan_sim does, one interval at a time.
    const std::string path = dir.File("nested/dir/decisions.csv");
    TextFile file(path);
    AppendDecisionTraceHeader(file.Out());
    for (const DecisionTraceEntry& e : trace.intervals)
        AppendDecisionTraceEntries(file.Out(), {e});
    // Drained, not held: all but the last partial piece is on disk.
    const uintmax_t on_disk = std::filesystem::file_size(path);
    EXPECT_GE(on_disk, csv.size() - 2 * TextFile::kFlushBytes);
    EXPECT_LT(on_disk, csv.size());
    file.Close();
    EXPECT_EQ(ReadFile(path), csv);

    // The other sinks drain through the same appender.
    const FleetResult fleet = EdgeFleet(4, 2000);
    TextFile fleet_file(dir.File("fleet.csv"));
    AppendFleetTrace(fleet_file.Out(), fleet);
    fleet_file.Close();
    EXPECT_EQ(ReadFile(dir.File("fleet.csv")), FleetTraceToCsv(fleet));

    const MetricsRegistry reg = EdgeRegistry();
    TextFile metrics_file(dir.File("metrics.csv"));
    reg.AppendCsv(metrics_file.Out());
    metrics_file.Close();
    EXPECT_EQ(ReadFile(dir.File("metrics.csv")), reg.ToCsv());

    WriteFile(dir.File("copy.csv"), csv);
    EXPECT_EQ(ReadFile(dir.File("copy.csv")), csv);
}

TEST(TextFileSink, OpenFailureNamesThePath)
{
    const ScratchDir dir("sinan_serializer_open_test");
    // A regular file cannot be a parent directory.
    WriteFile(dir.File("plain"), "x");
    const std::string path = dir.File("plain") + "/out.csv";
    try {
        TextFile file(path);
        FAIL() << "opened " << path;
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("cannot open '" + path + "'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TextFileSink, FailedWritesThrowNamingThePath)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    // A drain at a row boundary fails as soon as the buffer fills.
    {
        TextFile file("/dev/full");
        const std::string row(1024, 'x');
        EXPECT_THROW(
            {
                for (size_t i = 0; i <= TextFile::kFlushBytes / 1024; ++i) {
                    file.Out().Str(row);
                    file.Out().EndRow();
                }
            },
            std::runtime_error);
    }
    // So does the final drain in Close(), for an artifact of one row.
    TextFile file("/dev/full");
    file.Out().Str("one row\n");
    try {
        file.Close();
        FAIL() << "Close() on /dev/full succeeded";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("cannot write '/dev/full'"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(WriteFile("/dev/full", "x"), std::runtime_error);
}

} // namespace
} // namespace sinan
