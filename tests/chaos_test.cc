/**
 * @file
 * Chaos suite: the fault-injection subsystem end to end. Covers the
 * `--faults` spec grammar, the named scenario catalog, byte-identical
 * determinism of fault runs across thread counts, the scheduler's
 * graceful-degradation guarantees under every scenario (no throw, no
 * crash, watchdog engagement), the baselines' hold-on-degraded guard,
 * and recovery-time accounting.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/apps.h"
#include "baselines/autoscale.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/scheduler.h"
#include "harness/harness.h"
#include "harness/telemetry_log.h"
#include "sim/fault_injector.h"

namespace sinan {
namespace {

// ---- spec grammar ----------------------------------------------------

TEST(FaultSpecTest, ParsesSingleEventWithDefaults)
{
    const FaultSchedule s = ParseFaultSpec("drop@10");
    ASSERT_EQ(s.events.size(), 1u);
    EXPECT_EQ(s.events[0].kind, FaultKind::kTelemetryDrop);
    EXPECT_EQ(s.events[0].start, 10);
    EXPECT_EQ(s.events[0].duration, 1);
    EXPECT_EQ(s.events[0].tier, -1);
    EXPECT_EQ(s.EndInterval(), 11);
}

TEST(FaultSpecTest, ParsesFullEventList)
{
    const FaultSchedule s = ParseFaultSpec(
        "stall@5+3:tier=2; caploss@8+2:tier=0,mag=0.5; spike@4:mag=250");
    ASSERT_EQ(s.events.size(), 3u);
    EXPECT_EQ(s.events[0].kind, FaultKind::kTierStall);
    EXPECT_EQ(s.events[0].tier, 2);
    EXPECT_EQ(s.events[0].duration, 3);
    EXPECT_EQ(s.events[1].kind, FaultKind::kCapacityLoss);
    EXPECT_DOUBLE_EQ(s.events[1].magnitude, 0.5);
    EXPECT_EQ(s.events[2].kind, FaultKind::kLatencySpike);
    EXPECT_DOUBLE_EQ(s.events[2].magnitude, 250.0);
    EXPECT_EQ(s.EndInterval(), 10);
}

void
ExpectSpecError(const std::string& spec, const std::string& needle)
{
    try {
        ParseFaultSpec(spec);
        FAIL() << "expected ParseFaultSpec to reject '" << spec << "'";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message '" << e.what() << "' lacks '" << needle << "'";
    }
}

TEST(FaultSpecTest, RejectsMalformedSpecs)
{
    EXPECT_THROW(ParseFaultSpec(""), std::invalid_argument);
    EXPECT_THROW(ParseFaultSpec("bogus@3"), std::invalid_argument);
    EXPECT_THROW(ParseFaultSpec("drop"), std::invalid_argument);
    EXPECT_THROW(ParseFaultSpec("drop@x"), std::invalid_argument);
    EXPECT_THROW(ParseFaultSpec("drop@-1"), std::invalid_argument);
    EXPECT_THROW(ParseFaultSpec("drop@3+0"), std::invalid_argument);
    EXPECT_THROW(ParseFaultSpec("drop@3:frobs=1"),
                 std::invalid_argument);
    EXPECT_THROW(ParseFaultSpec("caploss@3:mag=1.5"),
                 std::invalid_argument);
    EXPECT_THROW(ParseFaultSpec("caploss@3:mag=0"),
                 std::invalid_argument);
    EXPECT_THROW(ParseFaultSpec("chaos:no-such-scenario"),
                 std::invalid_argument);
    EXPECT_THROW(ParseFaultSpec("drop@3;;drop@4"),
                 std::invalid_argument);
    // An empty parameter is a typo the same way an empty event is.
    ExpectSpecError("stall@1:tier=1,,mag=2", "empty parameter");
    ExpectSpecError("stall@1:tier=1,", "empty parameter");
    ExpectSpecError("stall@1:", "empty parameter");
    ExpectSpecError("stall@1+2: ", "empty parameter");
    ExpectSpecError("drop@3;stall@1:,tier=1", "empty parameter");
    // Numbers strtoll/strtod would saturate are rejected: a saturated
    // start would overflow start + duration in EndInterval().
    ExpectSpecError("stall@99999999999999999999+5:tier=2",
                    "integer '99999999999999999999' out of range");
    ExpectSpecError("stall@3+99999999999999999999", "out of range");
    ExpectSpecError("spike@3:mag=1e999", "number '1e999' out of range");
    // In range on their own, but the event's end overflows int64.
    ExpectSpecError("stall@9223372036854775807+5:tier=2",
                    "event ends beyond the int64 interval range");
    ExpectSpecError("stall@9223372036854775800+8",
                    "event ends beyond the int64 interval range");
    ExpectSpecError("stall@1+2:tiers=0-2,jitter=4611686018427387904",
                    "event ends beyond the int64 interval range");
    ExpectSpecError("stall@0+1:tiers=0-1,jitter=9223372036854775807",
                    "event ends beyond the int64 interval range");
    // A finite magnitude is required even where mag > 0 holds.
    ExpectSpecError("flash@1+2:mag=inf", "mag must be finite");
    ExpectSpecError("spike@1+2:mag=inf", "mag must be finite");
    ExpectSpecError("stall@1+2:mag=nan", "mag must be finite");
    // Kinds without a magnitude reject mag= rather than ignore it; the
    // message names the kind and the event.
    ExpectSpecError("stall@1:mag=2",
                    "mag does not apply to 'stall' in 'stall@1:mag=2'");
    ExpectSpecError("drop@3+2:tier=1,mag=0.5",
                    "mag does not apply to 'drop'");
    ExpectSpecError("delay@4:mag=1", "mag does not apply to 'delay'");
    ExpectSpecError("nan@2+3:mag=0.25", "mag does not apply to 'nan'");
    // The largest representable event still parses.
    const FaultSchedule edge =
        ParseFaultSpec("stall@9223372036854775800+7:tiers=0-1,jitter=0");
    EXPECT_EQ(edge.EndInterval(), 9223372036854775807LL);
    const FaultSchedule group =
        ParseFaultSpec("stall@0+1:tiers=0-2,jitter=4611686018427387903");
    EXPECT_EQ(group.EndInterval(), 9223372036854775807LL);
}

TEST(FaultSpecTest, EveryNumericFieldRejectsTheSameBadTokens)
{
    // start, duration, tier, both ends of tiers, jitter and mag share
    // the one number contract (common/parse.h); each rejection names
    // the event holding the offending token. " 5" is not in the list:
    // the grammar trims blanks around every token by design.
    const std::vector<std::string> bad = {"nan", "+5",    "5x",
                                          "inf", "-inf",  "1e999", ""};
    for (const char* tmpl :
         {"stall@#", "stall@1+#", "stall@1:tier=#", "stall@1:tiers=#-3",
          "stall@1:tiers=1-#", "stall@1:tiers=1-3,jitter=#",
          "spike@1:mag=#"}) {
        for (const std::string& token : bad) {
            std::string spec = tmpl;
            spec.replace(spec.find('#'), 1, token);
            SCOPED_TRACE(spec);
            ExpectSpecError(spec, token);
        }
    }
    // Trimmed blanks still parse.
    EXPECT_EQ(ParseFaultSpec("stall@ 5 + 2").events[0].duration, 2);
}

TEST(FaultSpecTest, ValidateRejectsOutOfRangeTier)
{
    const FaultSchedule s = ParseFaultSpec("stall@3:tier=6");
    EXPECT_THROW(ValidateFaultSchedule(s, 4), std::invalid_argument);
    EXPECT_NO_THROW(ValidateFaultSchedule(s, 7));
    EXPECT_NO_THROW(
        ValidateFaultSchedule(ParseFaultSpec("stall@3"), 1));
}

TEST(FaultSpecTest, CatalogHasAtLeastSixParseableScenarios)
{
    const std::vector<ChaosScenario>& catalog = ChaosScenarios();
    EXPECT_GE(catalog.size(), 6u);
    for (const ChaosScenario& sc : catalog) {
        SCOPED_TRACE(sc.name);
        EXPECT_FALSE(sc.description.empty());
        const FaultSchedule direct = ParseFaultSpec(sc.spec);
        EXPECT_FALSE(direct.Empty());
        // chaos:NAME indirection resolves to the same schedule.
        const FaultSchedule named =
            ParseFaultSpec("chaos:" + sc.name);
        ASSERT_EQ(named.events.size(), direct.events.size());
        ASSERT_NE(FindChaosScenario(sc.name), nullptr);
        EXPECT_EQ(FindChaosScenario(sc.name)->spec, sc.spec);
    }
    EXPECT_EQ(FindChaosScenario("no-such"), nullptr);
}

bool
SameEvent(const FaultEvent& a, const FaultEvent& b)
{
    return a.kind == b.kind && a.start == b.start &&
           a.duration == b.duration && a.tier == b.tier &&
           a.tier_hi == b.tier_hi && a.jitter == b.jitter &&
           a.magnitude == b.magnitude;
}

TEST(FaultSpecTest, ParsesCorrelatedGroupsAndFlashCrowds)
{
    const FaultSchedule s = ParseFaultSpec(
        "caploss@8+6:tiers=1-3,jitter=2,mag=0.5;flash@10+5:mag=2");
    ASSERT_EQ(s.events.size(), 2u);
    const FaultEvent& grp = s.events[0];
    EXPECT_EQ(grp.tier, 1);
    EXPECT_EQ(grp.tier_hi, 3);
    EXPECT_EQ(grp.jitter, 2);
    // The group staggers: tier 1 active [8, 14), tier 2 [10, 16),
    // tier 3 [12, 18); the event as a whole spans [8, 18).
    EXPECT_EQ(grp.GroupSpan(), 4);
    EXPECT_TRUE(grp.ActiveForTier(1, 8));
    EXPECT_FALSE(grp.ActiveForTier(2, 8));
    EXPECT_TRUE(grp.ActiveForTier(2, 10));
    EXPECT_TRUE(grp.ActiveForTier(3, 17));
    EXPECT_FALSE(grp.ActiveForTier(1, 14));
    EXPECT_FALSE(grp.ActiveForTier(0, 10));
    EXPECT_FALSE(grp.ActiveForTier(4, 10));
    EXPECT_TRUE(grp.ActiveAt(17));
    EXPECT_FALSE(grp.ActiveAt(18));
    EXPECT_EQ(s.events[1].kind, FaultKind::kFlashCrowd);
    EXPECT_DOUBLE_EQ(s.events[1].magnitude, 2.0);
    EXPECT_EQ(s.EndInterval(), 18);

    // A group is validated against its highest member.
    EXPECT_THROW(ValidateFaultSchedule(s, 3), std::invalid_argument);
    EXPECT_NO_THROW(ValidateFaultSchedule(s, 4));

    // Round-trips through the formatter.
    EXPECT_EQ(FormatFaultSpec(s),
              "caploss@8+6:tiers=1-3,jitter=2;flash@10+5");

    ExpectSpecError("stall@3:tiers=3-1",
                    "tiers range must satisfy 0 <= lo <= hi");
    ExpectSpecError("stall@3:tiers=x", "tiers needs a 'lo-hi' range");
    ExpectSpecError("stall@3:jitter=2",
                    "jitter requires a tiers= group");
    ExpectSpecError("stall@3:tiers=1-2,jitter=-1",
                    "jitter must be >= 0");
    ExpectSpecError("flash@3:mag=0", "mag must be > 0");
}

bool
SameSchedule(const FaultSchedule& a, const FaultSchedule& b)
{
    if (a.events.size() != b.events.size())
        return false;
    for (size_t i = 0; i < a.events.size(); ++i)
        if (!SameEvent(a.events[i], b.events[i]))
            return false;
    return true;
}

/** One random valid event in the spec grammar (seeded, no std::rand). */
std::string
RandomEventSpec(Rng& rng)
{
    static const char* kKinds[] = {"stall", "caploss", "spike", "steal",
                                   "drop",  "delay",   "nan",   "flash"};
    const std::string kind = kKinds[rng.UniformInt(8u)];
    std::string spec =
        kind + "@" + std::to_string(rng.UniformInt(int64_t{0}, 40));
    if (rng.Bernoulli(0.6))
        spec += "+" + std::to_string(rng.UniformInt(int64_t{1}, 12));
    std::vector<std::string> params;
    if (rng.Bernoulli(0.5)) {
        if (rng.Bernoulli(0.4)) {
            // Correlated group, optionally jittered (jitter is only
            // legal with a tiers= range).
            const int64_t lo = rng.UniformInt(int64_t{0}, 5);
            const int64_t hi = rng.UniformInt(lo, int64_t{9});
            params.push_back("tiers=" + std::to_string(lo) + "-" +
                             std::to_string(hi));
            if (rng.Bernoulli(0.6))
                params.push_back(
                    "jitter=" +
                    std::to_string(rng.UniformInt(int64_t{0}, 3)));
        } else {
            params.push_back(
                "tier=" +
                std::to_string(rng.UniformInt(int64_t{-1}, 9)));
        }
    }
    if (rng.Bernoulli(0.5)) {
        // Magnitudes valid for every kind that takes one: caploss/steal
        // need (0, 1], spike/flash need > 0; awkward decimals exercise
        // the formatter's shortest-round-trip path. The draw happens
        // for every kind so the corpus's RNG stream does not depend on
        // which kinds accept mag=.
        const double mag = rng.Uniform(0.05, kind == "spike" ? 900.0
                                                             : 1.0);
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.12g", mag);
        if (kind == "caploss" || kind == "steal" || kind == "spike" ||
            kind == "flash")
            params.push_back(std::string("mag=") + buf);
    }
    for (size_t i = 0; i < params.size(); ++i)
        spec += (i == 0 ? ":" : ",") + params[i];
    return spec;
}

TEST(FaultSpecTest, FormatParsesBackIdenticallyOverSeededCorpus)
{
    Rng rng(20260808);
    for (int round = 0; round < 200; ++round) {
        const int events = static_cast<int>(rng.UniformInt(1u, 5u));
        std::string spec;
        for (int e = 0; e < events; ++e)
            spec += (e ? ";" : "") + RandomEventSpec(rng);
        SCOPED_TRACE(spec);
        const FaultSchedule parsed = ParseFaultSpec(spec);
        const std::string formatted = FormatFaultSpec(parsed);
        const FaultSchedule reparsed = ParseFaultSpec(formatted);
        EXPECT_TRUE(SameSchedule(parsed, reparsed))
            << "round-trip changed the schedule: '" << formatted << "'";
        // format is a fixed point: format(parse(format(x))) == format(x)
        EXPECT_EQ(formatted, FormatFaultSpec(reparsed));
    }
}

TEST(FaultSpecTest, FormatEmitsOnlyNonDefaultFields)
{
    EXPECT_EQ(FormatFaultSpec(ParseFaultSpec("drop@10")), "drop@10");
    EXPECT_EQ(FormatFaultSpec(ParseFaultSpec(
                  "stall@5+3:tier=2;caploss@8+2:tier=0,mag=0.5;"
                  "spike@4:mag=250")),
              "stall@5+3:tier=2;caploss@8+2:tier=0;spike@4:mag=250");
    // caploss mag=0.5 and spike default 500 are kind defaults — elided.
    EXPECT_EQ(FormatFaultSpec(ParseFaultSpec("spike@4:mag=500")),
              "spike@4");
    EXPECT_EQ(FormatFaultSpec(FaultSchedule{}), "");
    // Named scenarios format to their expanded, reparseable spec.
    for (const ChaosScenario& sc : ChaosScenarios()) {
        SCOPED_TRACE(sc.name);
        const FaultSchedule direct = ParseFaultSpec(sc.spec);
        EXPECT_TRUE(SameSchedule(
            direct, ParseFaultSpec(FormatFaultSpec(direct))));
    }
}

TEST(FaultSpecTest, MalformedSpecsNameTheOffendingText)
{
    ExpectSpecError("bogus@3", "unknown fault kind 'bogus'");
    ExpectSpecError("drop", "missing '@start'");
    ExpectSpecError("drop@x", "bad integer 'x'");
    ExpectSpecError("drop@-1", "start must be >= 0");
    ExpectSpecError("drop@3+0", "duration must be >= 1");
    ExpectSpecError("drop@3:frobs=1", "unknown parameter 'frobs'");
    ExpectSpecError("drop@3:tier", "needs key=value");
    ExpectSpecError("caploss@3:mag=1.5", "mag must be in (0, 1]");
    ExpectSpecError("spike@3:mag=-2", "mag must be > 0");
    ExpectSpecError("stall@2:tier=9999999999999", "tier out of range");
    ExpectSpecError("chaos:no-such-scenario", "unknown chaos scenario");
    ExpectSpecError("drop@3;;drop@4", "empty event");
    ExpectSpecError("", "empty spec");
}

// ---- cluster fault hooks ---------------------------------------------

TEST(ClusterFaultHookTest, RejectsBadTierIndices)
{
    const Application app = BuildSocialNetwork();
    Cluster cluster(app, ClusterConfig{}, 1);
    const int n = static_cast<int>(app.tiers.size());
    EXPECT_THROW(cluster.SetCapacityFactor(-1, 0.5), std::out_of_range);
    EXPECT_THROW(cluster.SetCapacityFactor(n, 0.5), std::out_of_range);
    EXPECT_THROW(cluster.InjectStall(n, 1.0), std::out_of_range);
    EXPECT_NO_THROW(cluster.SetCapacityFactor(0, 0.5));
    EXPECT_NO_THROW(cluster.InjectStall(0, 1.0));
}

// ---- recovery accounting ---------------------------------------------

TEST(RecoveryTest, CountsIntervalsUntilQosIsMetAgain)
{
    RunResult r;
    auto add = [&](double t, double p99) {
        IntervalRecord rec;
        rec.time_s = t;
        rec.p99_ms = p99;
        r.timeline.push_back(rec);
    };
    add(1, 100), add(2, 900), add(3, 800), add(4, 700), add(5, 100);
    EXPECT_EQ(RecoveryIntervals(r, 2.0, 500.0), 2);  // 3,4 bad; 5 ok
    EXPECT_EQ(RecoveryIntervals(r, 4.0, 500.0), 0);  // 5 immediately ok
    EXPECT_EQ(RecoveryIntervals(r, 0.0, 500.0), 0);  // 1 already ok
    EXPECT_EQ(RecoveryIntervals(r, 2.0, 50.0), -1);  // never recovers
    EXPECT_EQ(RecoveryIntervals(r, 9.0, 500.0), -1); // nothing after
}

// ---- end-to-end chaos runs -------------------------------------------

/** Fixture with one small Sinan model trained on the real app — shared
 *  across every chaos scenario run. */
class ChaosFixture : public ::testing::Test {
  protected:
    static void
    SetUpTestSuite()
    {
        app_ = new Application(BuildSocialNetwork());
        PipelineConfig pcfg;
        pcfg.collect_s = 120.0;
        pcfg.hybrid = DefaultHybridConfig();
        pcfg.hybrid.train.epochs = 2;
        pcfg.hybrid.bt.n_trees = 20;
        trained_ = new TrainedSinan(TrainSinanForApp(*app_, pcfg));
    }

    static void
    TearDownTestSuite()
    {
        delete trained_;
        delete app_;
        trained_ = nullptr;
        app_ = nullptr;
    }

    static RunConfig
    FaultRunConfig(const FaultSchedule& faults)
    {
        RunConfig cfg;
        cfg.duration_s = 26.0;
        cfg.warmup_s = 4.0;
        cfg.faults = faults;
        return cfg;
    }

    /** One managed Sinan run under @p faults at @p threads. */
    static RunResult
    RunScenario(const FaultSchedule& faults, int threads,
                const SchedulerConfig& scfg = SchedulerConfig{})
    {
        SetNumThreads(threads);
        SinanScheduler sched(*trained_->model, scfg);
        ConstantLoad load(100.0);
        const RunResult r =
            RunManaged(*app_, sched, load, FaultRunConfig(faults));
        SetNumThreads(0);
        return r;
    }

    static SchedulerConfig
    UncertaintyOn()
    {
        SchedulerConfig cfg;
        cfg.uncertainty.enabled = true;
        return cfg;
    }

    static Application* app_;
    static TrainedSinan* trained_;
};

Application* ChaosFixture::app_ = nullptr;
TrainedSinan* ChaosFixture::trained_ = nullptr;

TEST_F(ChaosFixture, EveryScenarioRunsByteIdenticalAcrossThreadCounts)
{
    // The acceptance bar: same seed + same spec must yield bit-identical
    // decisions and byte-identical metrics whether the model evaluates
    // on 1 thread or 8. The decision digest folds every trace field bit
    // for bit, so it is stricter than the 4-decimal trace CSV.
    for (const ChaosScenario& sc : ChaosScenarios()) {
        SCOPED_TRACE(sc.name);
        const FaultSchedule faults = ParseFaultSpec(sc.spec);
        RunResult serial, parallel;
        ASSERT_NO_THROW(serial = RunScenario(faults, 1));
        ASSERT_NO_THROW(parallel = RunScenario(faults, 8));
        EXPECT_NE(serial.decision_digest, kEmptyDecisionDigest);
        EXPECT_EQ(serial.decision_digest, parallel.decision_digest);
        EXPECT_EQ(serial.metrics.ToCsv(), parallel.metrics.ToCsv());

        // The manager decided every interval and stayed in bounds.
        ASSERT_EQ(serial.decision_trace.intervals.size(),
                  serial.timeline.size());
        for (const IntervalRecord& rec : serial.timeline) {
            ASSERT_EQ(rec.alloc.size(), app_->tiers.size());
            for (size_t i = 0; i < rec.alloc.size(); ++i) {
                EXPECT_GE(rec.alloc[i], app_->tiers[i].min_cpu - 1e-9);
                EXPECT_LE(rec.alloc[i], app_->tiers[i].max_cpu + 1e-9);
            }
        }
        EXPECT_GT(serial.metrics.Counter("sinan.faults.active_intervals"),
                  0u);
    }
}

TEST_F(ChaosFixture, TelemetryBlackoutEngagesWatchdogAndRecovers)
{
    const FaultSchedule faults =
        ParseFaultSpec("chaos:telemetry-blackout");
    const RunResult r = RunScenario(faults, 1);
    const TelemetrySummary tel = SummarizeTelemetry(r.metrics);
    // 6 dropped intervals: the degraded path engages and, after the
    // silence outlasts the threshold, the watchdog fires.
    EXPECT_GE(tel.degraded, 6u);
    EXPECT_GE(tel.watchdog_upscales, 1u);
    EXPECT_GE(r.metrics.Counter("sinan.scheduler.telemetry.absent"),
              6u);
    // Recovery is measurable and happened within the run.
    const double fault_end_s =
        static_cast<double>(faults.EndInterval());
    EXPECT_GE(RecoveryIntervals(r, fault_end_s, app_->qos_ms), 0);
}

TEST_F(ChaosFixture, NanTelemetryIsClassifiedNotPropagated)
{
    const RunResult r =
        RunScenario(ParseFaultSpec("chaos:telemetry-nan"), 1);
    EXPECT_GE(r.metrics.Counter("sinan.scheduler.telemetry.non_finite"),
              4u);
    // The poisoned observations never reach the QoS accounting or the
    // run log: every recorded p99 is the true (finite) one.
    for (const IntervalRecord& rec : r.timeline)
        EXPECT_TRUE(std::isfinite(rec.p99_ms));
}

TEST_F(ChaosFixture, StaleTelemetryIsDetected)
{
    const RunResult r =
        RunScenario(ParseFaultSpec("chaos:stale-telemetry"), 1);
    EXPECT_GE(r.metrics.Counter("sinan.scheduler.telemetry.stale"), 5u);
}

TEST_F(ChaosFixture, BaselineHoldsThroughTelemetryFaults)
{
    // The rule-based baselines must survive the same telemetry chaos:
    // degraded intervals hold the previous allocation.
    AutoScaler cons = MakeAutoScaleCons();
    ConstantLoad load(100.0);
    RunResult r;
    ASSERT_NO_THROW(
        r = RunManaged(*app_, cons, load,
                       FaultRunConfig(ParseFaultSpec(
                           "drop@6+3;nan@12+2;delay@16+2"))));
    ASSERT_EQ(r.timeline.size(), 26u);
    // Dropped intervals 6..8: allocation frozen at the pre-fault value
    // (the decision for interval k lands in interval k+1's record).
    for (int k = 7; k <= 9; ++k)
        EXPECT_EQ(r.timeline[k].alloc, r.timeline[6].alloc)
            << "interval " << k;
}

TEST_F(ChaosFixture, CorrelatedOutagePoisonsOnlyTargetedTiers)
{
    // correlated-outage NaNs the usage of tiers 1-3 (staggered) while
    // their capacity rolls away; the latency channel stays real, so
    // the observations are partially — not wholly — untrustworthy.
    const RunResult r =
        RunScenario(ParseFaultSpec("chaos:correlated-outage"), 1);
    EXPECT_GE(r.metrics.Counter("sinan.scheduler.telemetry.non_finite"),
              6u);
    for (const IntervalRecord& rec : r.timeline)
        EXPECT_TRUE(std::isfinite(rec.p99_ms));
}

TEST_F(ChaosFixture, FlashCrowdMultipliesTheArrivalRate)
{
    // flash@10+5:mag=2 — the recorded rps during the spike must sit
    // well above the pre-spike level (records land one interval after
    // the arrivals they measure).
    const RunResult r =
        RunScenario(ParseFaultSpec("chaos:flash-crowd"), 1);
    double before = 0.0, during = 0.0;
    int n_before = 0, n_during = 0;
    for (const IntervalRecord& rec : r.timeline) {
        if (rec.time_s > 4.0 && rec.time_s <= 10.0) {
            before += rec.rps;
            ++n_before;
        } else if (rec.time_s > 10.0 && rec.time_s <= 15.0) {
            during += rec.rps;
            ++n_during;
        }
    }
    ASSERT_GT(n_before, 0);
    ASSERT_GT(n_during, 0);
    EXPECT_GT(during / n_during, 1.5 * (before / n_before));
}

TEST_F(ChaosFixture, UncertaintyRunsByteIdenticalAcrossThreadCounts)
{
    // The determinism bar holds with the graded policy enabled, on the
    // scenarios that exercise it hardest.
    for (const char* name :
         {"correlated-outage", "flash-crowd", "stale-telemetry"}) {
        SCOPED_TRACE(name);
        const FaultSchedule faults =
            ParseFaultSpec(std::string("chaos:") + name);
        RunResult serial, parallel;
        ASSERT_NO_THROW(
            serial = RunScenario(faults, 1, UncertaintyOn()));
        ASSERT_NO_THROW(
            parallel = RunScenario(faults, 8, UncertaintyOn()));
        EXPECT_NE(serial.decision_digest, kEmptyDecisionDigest);
        EXPECT_EQ(serial.decision_digest, parallel.decision_digest);
        EXPECT_EQ(serial.metrics.ToCsv(), parallel.metrics.ToCsv());
    }
}

TEST_F(ChaosFixture, UncertaintyTakesGradedPathUnderCorrelatedOutage)
{
    const RunResult r = RunScenario(
        ParseFaultSpec("chaos:correlated-outage"), 1, UncertaintyOn());
    // Partial NaN frames ride the graded path instead of the ladder.
    EXPECT_GE(r.metrics.Counter("sinan.scheduler.uncertain"), 1u);
    // The trace carries the confidence column: graded strictly between
    // 0 and 1 on the uncertain intervals.
    bool saw_graded = false;
    for (const DecisionTraceEntry& e : r.decision_trace.intervals) {
        if (e.kind == DecisionKind::kUncertainModel ||
            e.kind == DecisionKind::kFallback) {
            if (e.confidence > 0.0 && e.confidence < 1.0)
                saw_graded = true;
        }
    }
    EXPECT_TRUE(saw_graded);
}

TEST_F(ChaosFixture, UncertaintyRecoversNoSlowerThanLadder)
{
    // The graded policy keeps using the real latency channel while the
    // ladder freezes on whole-observation NaN — it must not recover
    // more slowly from the correlated outage.
    const FaultSchedule faults =
        ParseFaultSpec("chaos:correlated-outage");
    const RunResult off = RunScenario(faults, 1);
    const RunResult on = RunScenario(faults, 1, UncertaintyOn());
    const double fault_end_s =
        static_cast<double>(faults.EndInterval());
    const int rec_off =
        RecoveryIntervals(off, fault_end_s, app_->qos_ms);
    const int rec_on = RecoveryIntervals(on, fault_end_s, app_->qos_ms);
    const int never = static_cast<int>(off.timeline.size());
    EXPECT_LE(rec_on < 0 ? never : rec_on,
              rec_off < 0 ? never : rec_off);
}

TEST_F(ChaosFixture, CapacityLossDrivesSafetyUpscale)
{
    // An invisible cluster-wide 80% capacity loss must surface as real
    // latency violations and drive the manager to add CPU while the
    // fault is active — the models never see the loss, only its
    // latency consequences.
    const FaultSchedule faults = ParseFaultSpec("caploss@10+6:mag=0.8");
    const RunResult r = RunScenario(faults, 1);
    double before = 0.0, during = 0.0;
    for (const IntervalRecord& rec : r.timeline) {
        if (rec.time_s == 10.0)
            before = rec.total_cpu;
        if (rec.time_s > 10.0 && rec.time_s <= 18.0)
            during = std::max(during, rec.total_cpu);
    }
    ASSERT_GT(before, 0.0);
    EXPECT_GT(during, before);
    const TelemetrySummary tel = SummarizeTelemetry(r.metrics);
    EXPECT_GE(tel.fallbacks, 1u);
}

} // namespace
} // namespace sinan
