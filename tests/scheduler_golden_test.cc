/**
 * @file
 * Pins SinanScheduler's decisions from one commit to the next.
 *
 * Each scenario drives the scheduler with a bundled bench_cache model
 * (no training) — either through RunManaged at a fixed seed, with and
 * without chaos and the graded-confidence policy, or as a scripted
 * Decide sequence that reaches the corners the runs leave untouched.
 * Its golden file tests/golden/scheduler_<name>.txt holds FNV-1a-64
 * digests of the full decision trace CSV, run log CSV and metrics CSV,
 * then one summary line per decision: kind, telemetry class,
 * confidence, latency margin, chosen action, the returned allocation's
 * total CPU and the count of each candidate outcome. The full
 * per-candidate CSVs would be megabytes for the 28-tier social app.
 *
 * The union of scenarios must reach every DecisionKind and every
 * CandidateOutcome, so a change to any decision path shows up here.
 * Regenerate with SINAN_REGEN_GOLDEN=1 only for an intentional change.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "app/apps.h"
#include "bundled_model.h"
#include "core/scheduler.h"
#include "golden_util.h"
#include "harness/harness.h"
#include "harness/runlog.h"
#include "harness/telemetry_log.h"
#include "sim/fault_injector.h"
#include "test_util.h"

namespace sinan {
namespace {

using testutil::LoadBundledModel;

/** Forwards to a SinanScheduler and records the total CPU of every
 *  allocation it returns. */
class RecordingManager : public ResourceManager {
  public:
    explicit RecordingManager(SinanScheduler& inner) : inner_(inner) {}

    std::vector<double>
    Decide(const IntervalObservation& obs,
           const std::vector<double>& alloc,
           const Application& app) override
    {
        std::vector<double> out = inner_.Decide(obs, alloc, app);
        totals.push_back(std::accumulate(out.begin(), out.end(), 0.0));
        return out;
    }

    const char* Name() const override { return inner_.Name(); }
    void Reset() override { inner_.Reset(); }
    double LastPredictedP99() const override
    {
        return inner_.LastPredictedP99();
    }
    double LastViolationProb() const override
    {
        return inner_.LastViolationProb();
    }
    void
    AttachTelemetry(DecisionTrace* trace,
                    MetricsRegistry* metrics) override
    {
        inner_.AttachTelemetry(trace, metrics);
    }

    std::vector<double> totals;

  private:
    SinanScheduler& inner_;
};

constexpr CandidateOutcome kOutcomes[] = {
    CandidateOutcome::kChosen,
    CandidateOutcome::kRejectedHysteresis,
    CandidateOutcome::kRejectedPostDownSaturation,
    CandidateOutcome::kRejectedLatencyMargin,
    CandidateOutcome::kRejectedViolationProb,
    CandidateOutcome::kRejectedDegradedTelemetry,
    CandidateOutcome::kRejectedUncertaintyStep,
    CandidateOutcome::kNotCheapest,
};

constexpr DecisionKind kKinds[] = {
    DecisionKind::kWarmup,          DecisionKind::kFallback,
    DecisionKind::kEscalatedFallback, DecisionKind::kModel,
    DecisionKind::kNoFeasibleUpscale, DecisionKind::kDegradedModel,
    DecisionKind::kDegradedHeuristic, DecisionKind::kDegradedHold,
    DecisionKind::kWatchdogUpscale, DecisionKind::kUncertainModel,
};

std::string
Hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** What one scenario produced: the bytes it is pinned by. */
struct ScenarioBytes {
    DecisionTrace trace;
    std::vector<double> totals;
    /** RunLogToCsv for managed runs; for scripted sequences, every
     *  returned allocation and LastPredictedP99/LastViolationProb. */
    std::string log_label;
    std::string log_csv;
    std::string metrics_csv;
};

/** The golden rendering of one scenario (see file comment). */
std::string
Render(const ScenarioBytes& b)
{
    std::string out;
    out += "trace_fnv1a64 " + Hex(testutil::Fnv1a64(
                                  DecisionTraceToCsv(b.trace))) + "\n";
    out += b.log_label + "_fnv1a64 " + Hex(testutil::Fnv1a64(b.log_csv)) +
           "\n";
    out += "metrics_fnv1a64 " + Hex(testutil::Fnv1a64(b.metrics_csv)) +
           "\n";
    out += "# interval kind telemetry confidence margin_ms chosen "
           "total_cpu outcomes\n";
    EXPECT_EQ(b.trace.intervals.size(), b.totals.size());
    for (size_t i = 0; i < b.trace.intervals.size(); ++i) {
        const DecisionTraceEntry& e = b.trace.intervals[i];
        char buf[256];
        std::snprintf(
            buf, sizeof(buf), "%d %s %s %.17g %.17g %s %.17g", e.interval,
            ToString(e.kind), ToString(e.telemetry), e.confidence,
            e.margin_ms,
            e.chosen >= 0 ? ToString(e.candidates[e.chosen].kind) : "-",
            i < b.totals.size() ? b.totals[i] : -1.0);
        out += buf;
        for (CandidateOutcome o : kOutcomes) {
            int n = 0;
            for (const CandidateTrace& c : e.candidates)
                n += c.outcome == o ? 1 : 0;
            if (n > 0)
                out += std::string(" ") + ToString(o) + ":" +
                       std::to_string(n);
        }
        out += "\n";
    }
    return out;
}

/** A managed run of a bundled model at a fixed seed. */
struct RunSpec {
    const char* name;
    const char* app; // "hotel" or "social"
    const char* faults;
    bool uncertainty;
    uint64_t seed;
    double users;
};

const RunSpec kRuns[] = {
    {"clean_social", "social", "", false, 7, 250.0},
    {"clean_hotel", "hotel", "", false, 11, 2000.0},
    {"blackout_off", "social", "chaos:telemetry-blackout", false, 7,
     250.0},
    {"stale_off", "hotel", "chaos:stale-telemetry", false, 11, 2000.0},
    {"nan_off", "social", "chaos:telemetry-nan", false, 13, 250.0},
    {"correlated_on", "social", "chaos:correlated-outage", true, 7,
     250.0},
    {"stale_on", "hotel", "chaos:stale-telemetry", true, 11, 2000.0},
    {"nan_on", "social", "chaos:telemetry-nan", true, 13, 250.0},
    // Telemetry fails before the window fills: degraded hold (nothing
    // seen yet), then the degraded heuristic on the last good frame.
    {"early_fault", "hotel", "drop@0;nan@2+2;delay@5", false, 5,
     2000.0},
};

/** A scripted Decide sequence on the bundled hotel model. */
struct ScriptSpec {
    const char* name;
    bool uncertainty;
    /** One letter per decision (the frame kinds are in Script). */
    const char* frames;
};

const ScriptSpec kScripts[] = {
    // Saturated but not yet violating: no candidate passes, fresh and
    // then blind (the saturated frame redelivered).
    {"script_no_feasible", false, "hhhhhhhSrr"},
    // Graded violations (one NaN tier, real latency) between fresh
    // ones: they upscale but never escalate.
    {"script_graded_violation", true, "hhhhhhVVnVhhh"},
    // Wide partial outages at several confidence levels.
    {"script_graded_outage", true, "lllllllllwllwlllwll"},
};

class SchedulerGolden : public ::testing::Test {
  protected:
    static void
    SetUpTestSuite()
    {
        hotel_app_ = new Application(BuildHotelReservation());
        social_app_ = new Application(BuildSocialNetwork());
        hotel_model_ = LoadBundledModel(*hotel_app_, "hotel").release();
        social_model_ =
            LoadBundledModel(*social_app_, "social").release();
        results_ = new std::map<std::string, ScenarioBytes>();
    }

    static void
    TearDownTestSuite()
    {
        delete results_;
        delete hotel_model_;
        delete social_model_;
        delete hotel_app_;
        delete social_app_;
        results_ = nullptr;
        hotel_model_ = social_model_ = nullptr;
        hotel_app_ = social_app_ = nullptr;
    }

    static bool
    HaveModels()
    {
        return hotel_model_ != nullptr && social_model_ != nullptr;
    }

    /** Runs @p spec once per process; later calls reuse the bytes. */
    static const ScenarioBytes&
    Run(const RunSpec& spec)
    {
        auto it = results_->find(spec.name);
        if (it != results_->end())
            return it->second;
        const bool hotel = std::string(spec.app) == "hotel";
        const Application& app = hotel ? *hotel_app_ : *social_app_;
        SchedulerConfig scfg;
        scfg.uncertainty.enabled = spec.uncertainty;
        SinanScheduler sched(hotel ? *hotel_model_ : *social_model_,
                             scfg);
        RecordingManager rec(sched);
        RunConfig rc;
        rc.duration_s = 40.0;
        rc.warmup_s = 5.0;
        rc.seed = spec.seed;
        if (spec.faults[0] != '\0')
            rc.faults = ParseFaultSpec(spec.faults);
        const ConstantLoad load(spec.users);
        RunResult r = RunManaged(app, rec, load, rc);
        ScenarioBytes b;
        b.log_label = "runlog";
        b.log_csv = RunLogToCsv(r, app);
        b.metrics_csv = r.metrics.ToCsv();
        b.trace = std::move(r.decision_trace);
        b.totals = std::move(rec.totals);
        return results_->emplace(spec.name, std::move(b)).first->second;
    }

    /** Runs @p spec once per process; later calls reuse the bytes. */
    static const ScenarioBytes&
    Script(const ScriptSpec& spec)
    {
        auto it = results_->find(spec.name);
        if (it != results_->end())
            return it->second;
        const Application& app = *hotel_app_;
        const FeatureConfig& f = hotel_model_->Features();
        const double qos = app.qos_ms;
        SchedulerConfig scfg;
        scfg.uncertainty.enabled = spec.uncertainty;
        SinanScheduler sched(*hotel_model_, scfg);
        ScenarioBytes b;
        MetricsRegistry metrics;
        sched.AttachTelemetry(&b.trace, &metrics);
        std::vector<double> alloc;
        for (const TierSpec& t : app.tiers)
            alloc.push_back(t.init_cpu);
        const double nan = std::numeric_limits<double>::quiet_NaN();
        IntervalObservation prev;
        char buf[64];
        for (int t = 0; spec.frames[t] != '\0'; ++t) {
            IntervalObservation obs;
            switch (spec.frames[t]) {
            case 'h': // healthy
                obs = testutil::MakeObs(f, t, 300, 2.0, 0.4, 0.4 * qos);
                break;
            case 'l': // lightly loaded
                obs = testutil::MakeObs(f, t, 300, 2.0, 0.2, 0.3 * qos);
                break;
            case 'S': // saturated, just under QoS
                obs = testutil::MakeObs(f, t, 900, 2.0, 0.97, 0.97 * qos);
                break;
            case 'V': // observed violation
                obs = testutil::MakeObs(f, t, 900, 2.0, 0.95, 1.5 * qos);
                break;
            case 'n': // one NaN tier, violating latency delivered
                obs = testutil::MakeObs(f, t, 900, 2.0, 0.95, 1.5 * qos);
                obs.tiers[3].cpu_used = nan;
                break;
            case 'w': // half the tiers NaN, light load, real latency
                obs = testutil::MakeObs(f, t, 300, 2.0, 0.2, 0.3 * qos);
                for (size_t i = 0; i < obs.tiers.size(); i += 2)
                    obs.tiers[i].cpu_used = nan;
                break;
            case 'r': // the previous frame redelivered (stale)
                obs = prev;
                break;
            }
            prev = obs;
            alloc = sched.Decide(obs, alloc, app);
            b.totals.push_back(
                std::accumulate(alloc.begin(), alloc.end(), 0.0));
            std::snprintf(buf, sizeof(buf), "%.17g,%.17g",
                          sched.LastPredictedP99(),
                          sched.LastViolationProb());
            b.log_csv += buf;
            for (double a : alloc) {
                std::snprintf(buf, sizeof(buf), ",%.17g", a);
                b.log_csv += buf;
            }
            b.log_csv += "\n";
        }
        sched.AttachTelemetry(nullptr, nullptr);
        b.log_label = "decide";
        b.metrics_csv = metrics.ToCsv();
        return results_->emplace(spec.name, std::move(b)).first->second;
    }

    static Application* hotel_app_;
    static Application* social_app_;
    static HybridModel* hotel_model_;
    static HybridModel* social_model_;
    static std::map<std::string, ScenarioBytes>* results_;
};

Application* SchedulerGolden::hotel_app_ = nullptr;
Application* SchedulerGolden::social_app_ = nullptr;
HybridModel* SchedulerGolden::hotel_model_ = nullptr;
HybridModel* SchedulerGolden::social_model_ = nullptr;
std::map<std::string, ScenarioBytes>* SchedulerGolden::results_ =
    nullptr;

TEST_F(SchedulerGolden, ManagedRunsMatchGolden)
{
    if (!HaveModels())
        GTEST_SKIP() << "bundled bench_cache models not present";
    for (const RunSpec& spec : kRuns) {
        SCOPED_TRACE(spec.name);
        testutil::CheckGolden(std::string("scheduler_") + spec.name +
                                  ".txt",
                              Render(Run(spec)));
    }
}

TEST_F(SchedulerGolden, ScriptedSequencesMatchGolden)
{
    if (!HaveModels())
        GTEST_SKIP() << "bundled bench_cache models not present";
    for (const ScriptSpec& spec : kScripts) {
        SCOPED_TRACE(spec.name);
        testutil::CheckGolden(std::string("scheduler_") + spec.name +
                                  ".txt",
                              Render(Script(spec)));
    }
}

TEST_F(SchedulerGolden, ScenariosReachEveryKindAndOutcome)
{
    if (!HaveModels())
        GTEST_SKIP() << "bundled bench_cache models not present";
    std::set<DecisionKind> kinds;
    std::set<CandidateOutcome> outcomes;
    auto collect = [&](const ScenarioBytes& b) {
        for (const DecisionTraceEntry& e : b.trace.intervals) {
            kinds.insert(e.kind);
            for (const CandidateTrace& c : e.candidates)
                outcomes.insert(c.outcome);
        }
    };
    for (const RunSpec& spec : kRuns)
        collect(Run(spec));
    for (const ScriptSpec& spec : kScripts)
        collect(Script(spec));
    for (DecisionKind k : kKinds)
        EXPECT_EQ(kinds.count(k), 1u) << "unreached kind " << ToString(k);
    for (CandidateOutcome o : kOutcomes)
        EXPECT_EQ(outcomes.count(o), 1u)
            << "unreached outcome " << ToString(o);
}

} // namespace
} // namespace sinan
