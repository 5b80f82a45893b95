/**
 * @file
 * Tests for the decision-telemetry subsystem: the scheduler's decision
 * trace (candidate outcomes, safety-path events, trust transitions),
 * the `sinan.scheduler.*` metric registry, serialization, the 64-bit
 * decision digest, and bit-identical 1-vs-N-thread parity of the full
 * telemetry output.
 */
#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "app/apps.h"
#include "common/thread_pool.h"
#include "core/scheduler.h"
#include "harness/harness.h"
#include "harness/telemetry_log.h"
#include "test_util.h"

namespace sinan {
namespace {

using testutil::MakeObs;
using testutil::SmallFeatures;
using testutil::SyntheticDataset;

/** Fixture with a tiny hybrid model trained on the synthetic law. */
class TelemetryFixture : public ::testing::Test {
  protected:
    static void
    SetUpTestSuite()
    {
        features_ = new FeatureConfig(SmallFeatures(4, 3));
        const Dataset all = SyntheticDataset(*features_, 500, 171);
        Rng rng(173);
        const auto [train, valid] = all.Split(0.9, rng);
        HybridConfig cfg;
        cfg.train.epochs = 15;
        cfg.bt.n_trees = 60;
        model_ = new HybridModel(*features_, cfg, 177);
        model_->Train(train, valid);

        app_ = new Application();
        app_->name = "toy";
        app_->qos_ms = features_->qos_ms;
        for (int i = 0; i < features_->n_tiers; ++i) {
            TierSpec t;
            t.name = "tier" + std::to_string(i);
            t.min_cpu = 0.2;
            t.max_cpu = 8.0;
            t.init_cpu = 2.0;
            app_->tiers.push_back(t);
        }
        RequestType rt;
        rt.name = "r";
        rt.root.tier = 0;
        app_->request_types.push_back(rt);
    }

    static void
    TearDownTestSuite()
    {
        delete model_;
        delete features_;
        delete app_;
        model_ = nullptr;
        features_ = nullptr;
        app_ = nullptr;
    }

    /** Drives warm-up intervals until the window is one observation
     *  short of ready, so the next Decide() is the first model path. */
    static std::vector<double>
    Warmup(SinanScheduler& sched, std::vector<double> alloc,
           double p99 = 100.0)
    {
        for (int t = 0; t + 1 < features_->history; ++t) {
            alloc = sched.Decide(
                MakeObs(*features_, t, 100, alloc[0], 0.5, p99), alloc,
                *app_);
        }
        return alloc;
    }

    static FeatureConfig* features_;
    static HybridModel* model_;
    static Application* app_;
};

FeatureConfig* TelemetryFixture::features_ = nullptr;
HybridModel* TelemetryFixture::model_ = nullptr;
Application* TelemetryFixture::app_ = nullptr;

TEST_F(TelemetryFixture, WarmupIntervalsAreTraced)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    DecisionTrace trace;
    MetricsRegistry metrics;
    sched.AttachTelemetry(&trace, &metrics);

    const std::vector<double> alloc(app_->tiers.size(), 2.0);
    sched.Decide(MakeObs(*features_, 0, 100, 2.0, 0.2, 100), alloc,
                 *app_);
    ASSERT_EQ(trace.intervals.size(), 1u);
    EXPECT_EQ(trace.intervals[0].kind, DecisionKind::kWarmup);
    EXPECT_TRUE(trace.intervals[0].candidates.empty());
    EXPECT_EQ(metrics.Counter("sinan.scheduler.warmup"), 1u);
    EXPECT_EQ(metrics.Counter("sinan.scheduler.decisions"), 1u);
}

TEST_F(TelemetryFixture, ForcedViolationProducesFallbackEvent)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    DecisionTrace trace;
    MetricsRegistry metrics;
    sched.AttachTelemetry(&trace, &metrics);

    std::vector<double> alloc(app_->tiers.size(), 2.0);
    alloc = Warmup(sched, alloc);

    // Forced QoS violation: the safety path must fire and be traced.
    alloc = sched.Decide(MakeObs(*features_, features_->history, 100,
                                 alloc[0], 0.95,
                                 app_->qos_ms + 100.0),
                         alloc, *app_);
    const DecisionTraceEntry& e = trace.intervals.back();
    EXPECT_EQ(e.kind, DecisionKind::kFallback);
    EXPECT_TRUE(e.violated);
    EXPECT_TRUE(e.candidates.empty());
    EXPECT_EQ(metrics.Counter("sinan.scheduler.fallbacks"), 1u);
    EXPECT_EQ(metrics.Counter("sinan.scheduler.escalations"), 0u);
}

TEST_F(TelemetryFixture, EscalatedFallbackIsDistinguished)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    DecisionTrace trace;
    MetricsRegistry metrics;
    sched.AttachTelemetry(&trace, &metrics);

    std::vector<double> alloc(app_->tiers.size(), 2.0);
    alloc = Warmup(sched, alloc);
    int t = features_->history;
    for (int v = 0; v < SinanScheduler::kMaxFallbackAfter; ++v) {
        alloc = sched.Decide(MakeObs(*features_, t++, 100, alloc[0],
                                     0.95, app_->qos_ms + 200.0),
                             alloc, *app_);
    }
    EXPECT_EQ(trace.intervals.back().kind,
              DecisionKind::kEscalatedFallback);
    EXPECT_TRUE(trace.intervals.back().trust_lost);
    EXPECT_TRUE(trace.intervals.back().trust_reduced);
    EXPECT_EQ(metrics.Counter("sinan.scheduler.escalations"), 1u);
    EXPECT_EQ(metrics.Counter("sinan.scheduler.trust_lost"), 1u);
}

TEST(CandidateTrace, RowWritesKeepTheFieldsInItsTailPadding)
{
    // kind and outcome live in the PercentileRow's tail padding
    // ([[no_unique_address]]); assigning the row must not clobber them.
    CandidateTrace ct;
    ct.kind = ActionKind::kScaleUpVictims;
    ct.outcome = CandidateOutcome::kRejectedUncertaintyStep;
    ct.total_cpu = 12.5;
    ct.p_violation = 0.25;
    Prediction p;
    p.latency_ms = {1.0, 2.0, 3.0, 4.0, 5.0};
    ct.latency_ms = p.latency_ms;
    ct.latency_ms.resize(PercentileRow::kCapacity);
    EXPECT_EQ(ct.kind, ActionKind::kScaleUpVictims);
    EXPECT_EQ(ct.outcome, CandidateOutcome::kRejectedUncertaintyStep);
    EXPECT_EQ(ct.total_cpu, 12.5);
    EXPECT_EQ(ct.p_violation, 0.25);
    EXPECT_EQ(ct.P99(), 5.0);
    const CandidateTrace copy = ct;
    EXPECT_EQ(copy.kind, ActionKind::kScaleUpVictims);
    EXPECT_EQ(copy.outcome, CandidateOutcome::kRejectedUncertaintyStep);
    EXPECT_EQ(copy.latency_ms, p.latency_ms);
}

TEST_F(TelemetryFixture, ModelDecisionTracesEveryCandidateWithOutcome)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    DecisionTrace trace;
    MetricsRegistry metrics;
    sched.AttachTelemetry(&trace, &metrics);

    std::vector<double> alloc(app_->tiers.size(), 4.0);
    alloc = Warmup(sched, alloc);
    sched.Decide(
        MakeObs(*features_, features_->history, 100, alloc[0], 0.4, 90),
        alloc, *app_);

    const DecisionTraceEntry& e = trace.intervals.back();
    ASSERT_TRUE(e.kind == DecisionKind::kModel ||
                e.kind == DecisionKind::kNoFeasibleUpscale);
    ASSERT_FALSE(e.candidates.empty());
    EXPECT_GT(e.margin_ms, 0.0);
    int chosen_count = 0;
    for (const CandidateTrace& ct : e.candidates) {
        // Every model-path candidate carries its predictions.
        EXPECT_EQ(ct.latency_ms.size(), 5u);
        EXPECT_GE(ct.p_violation, 0.0);
        EXPECT_LE(ct.p_violation, 1.0);
        chosen_count += ct.outcome == CandidateOutcome::kChosen;
    }
    if (e.kind == DecisionKind::kModel) {
        EXPECT_EQ(chosen_count, 1);
        ASSERT_GE(e.chosen, 0);
        EXPECT_EQ(e.candidates[e.chosen].outcome,
                  CandidateOutcome::kChosen);
    } else {
        EXPECT_EQ(chosen_count, 0);
        EXPECT_EQ(e.chosen, -1);
    }
    EXPECT_EQ(metrics.Counter("sinan.scheduler.candidates"),
              e.candidates.size());
}

TEST_F(TelemetryFixture, RejectedDownCandidateCarriesHysteresisReason)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    DecisionTrace trace;
    sched.AttachTelemetry(&trace, nullptr);

    std::vector<double> alloc(app_->tiers.size(), 4.0);
    // Warm up at a p99 that meets QoS but is NOT comfortably healthy
    // (above kHealthyFrac * QoS = 400), so the healthy streak stays 0
    // and hysteresis forbids reclaiming.
    alloc = Warmup(sched, alloc, 450.0);
    sched.Decide(MakeObs(*features_, features_->history, 100, alloc[0],
                         0.4, 450.0),
                 alloc, *app_);

    const DecisionTraceEntry& e = trace.intervals.back();
    EXPECT_FALSE(e.may_reclaim);
    int down_candidates = 0;
    for (const CandidateTrace& ct : e.candidates) {
        if (ct.kind != ActionKind::kScaleDown &&
            ct.kind != ActionKind::kScaleDownBatch)
            continue;
        ++down_candidates;
        EXPECT_EQ(ct.outcome, CandidateOutcome::kRejectedHysteresis);
    }
    EXPECT_GT(down_candidates, 0);
}

TEST_F(TelemetryFixture, PhantomNoOpDownCandidatesAreNotEmitted)
{
    // Regression: when every one of the k least-utilized tiers is above
    // kUtilCap, the batch-down loop used to emit a candidate identical
    // to Hold but flagged as a down action.
    SinanScheduler sched(*model_, SchedulerConfig{});
    DecisionTrace trace;
    sched.AttachTelemetry(&trace, nullptr);

    std::vector<double> alloc(app_->tiers.size(), 2.0);
    alloc = Warmup(sched, alloc);
    // All tiers above kUtilCap (0.90) but latency healthy: no tier may
    // be scaled down, so no down candidate of any kind may appear.
    sched.Decide(
        MakeObs(*features_, features_->history, 100, alloc[0], 0.95, 90),
        alloc, *app_);

    const DecisionTraceEntry& e = trace.intervals.back();
    ASSERT_FALSE(e.candidates.empty());
    const double hold_cpu =
        std::accumulate(alloc.begin(), alloc.end(), 0.0);
    for (const CandidateTrace& ct : e.candidates) {
        const bool down = ct.kind == ActionKind::kScaleDown ||
                          ct.kind == ActionKind::kScaleDownBatch;
        EXPECT_FALSE(down) << "phantom down candidate with total_cpu "
                           << ct.total_cpu << " (hold " << hold_cpu
                           << ")";
    }
}

TEST_F(TelemetryFixture, TrustRestorationIsTraced)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    DecisionTrace trace;
    MetricsRegistry metrics;
    sched.AttachTelemetry(&trace, &metrics);

    std::vector<double> alloc(app_->tiers.size(), 2.0);
    alloc = Warmup(sched, alloc);
    int t = features_->history;
    for (int v = 0; v < SinanScheduler::kMaxFallbackAfter; ++v) {
        alloc = sched.Decide(MakeObs(*features_, t++, 100, alloc[0],
                                     0.95, app_->qos_ms + 200.0),
                             alloc, *app_);
    }
    ASSERT_TRUE(sched.TrustReduced());
    bool restored_seen = false;
    for (int k = 0; k < SinanScheduler::kTrustRestoreHealthy; ++k) {
        alloc = sched.Decide(
            MakeObs(*features_, t++, 100, alloc[0], 0.4, 90), alloc,
            *app_);
        restored_seen |= trace.intervals.back().trust_restored;
    }
    EXPECT_FALSE(sched.TrustReduced());
    EXPECT_TRUE(restored_seen);
    EXPECT_EQ(metrics.Counter("sinan.scheduler.trust_restored"), 1u);
}

TEST_F(TelemetryFixture, TraceSerializesToCsvAndJson)
{
    SinanScheduler sched(*model_, SchedulerConfig{});
    DecisionTrace trace;
    sched.AttachTelemetry(&trace, nullptr);

    std::vector<double> alloc(app_->tiers.size(), 2.0);
    alloc = Warmup(sched, alloc);
    alloc = sched.Decide(
        MakeObs(*features_, features_->history, 100, alloc[0], 0.4, 90),
        alloc, *app_);

    const std::string csv = DecisionTraceToCsv(trace);
    EXPECT_NE(csv.find("time_s,interval,decision"), std::string::npos);
    EXPECT_NE(csv.find("warmup"), std::string::npos);
    // One header + one row per warmup interval + one per candidate.
    size_t rows = 0;
    for (char ch : csv)
        rows += ch == '\n';
    EXPECT_EQ(rows, 1u + static_cast<size_t>(features_->history - 1) +
                        trace.intervals.back().candidates.size());

    const std::string json = DecisionTraceToJson(trace);
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"decision\": \"warmup\""), std::string::npos);
    EXPECT_NE(json.find("\"candidates\": ["), std::string::npos);
}

TEST_F(TelemetryFixture, TelemetryBitIdenticalAcrossThreadCounts)
{
    // The same decision sequence driven at 1 and at 8 threads must
    // serialize to byte-identical telemetry (HybridModel::Evaluate is
    // the parallel hot path under the scheduler).
    auto run = [&](int threads) {
        SetNumThreads(threads);
        SinanScheduler sched(*model_, SchedulerConfig{});
        DecisionTrace trace;
        MetricsRegistry metrics;
        sched.AttachTelemetry(&trace, &metrics);
        std::vector<double> alloc(app_->tiers.size(), 4.0);
        Rng rng(191);
        for (int t = 0; t < 20; ++t) {
            const IntervalObservation obs =
                MakeObs(*features_, t, rng.Uniform(50, 400), alloc[0],
                        rng.Uniform(0.2, 0.9), rng.Uniform(50, 600));
            alloc = sched.Decide(obs, alloc, *app_);
        }
        return DecisionTraceToCsv(trace) + "\n===\n" + metrics.ToCsv();
    };
    const std::string serial = run(1);
    const std::string parallel = run(8);
    SetNumThreads(0);
    EXPECT_EQ(serial, parallel);
}

/** A model-path entry with every field set off its default. */
DecisionTraceEntry
SampleEntry(double time_s, int interval)
{
    DecisionTraceEntry e;
    e.time_s = time_s;
    e.interval = interval;
    e.kind = DecisionKind::kUncertainModel;
    e.observed_p99_ms = 187.25;
    e.telemetry = TelemetryHealth::kStale;
    e.silent_intervals = 2;
    e.mispredictions = 1;
    e.healthy_streak = 4;
    e.consecutive_violations = 1;
    e.margin_ms = 12.5;
    e.may_reclaim = true;
    e.confidence = 0.75;
    e.uncertainty_margin_ms = 6.25;
    e.tier_confidence = {1.0, 0.5, 0.75};
    e.chosen = 1;
    for (int i = 0; i < 3; ++i) {
        CandidateTrace& c = e.candidates.emplace_back();
        c.latency_ms = {150.0 + i, 160.0 + i, 170.0 + i, 180.0 + i,
                        190.0 + i};
        c.kind = ActionKind::kScaleDown;
        c.outcome = i == 1 ? CandidateOutcome::kChosen
                           : CandidateOutcome::kNotCheapest;
        c.total_cpu = 20.0 - i;
        c.p_violation = 0.01 * (i + 1);
    }
    return e;
}

TEST(DecisionDigestTest, EveryFieldAndTheOrderEnterTheDigest)
{
    DecisionTrace base;
    base.intervals = {SampleEntry(7.0, 6), SampleEntry(8.0, 7)};
    const uint64_t digest = DecisionTraceDigest(base);
    EXPECT_NE(digest, kEmptyDecisionDigest);
    EXPECT_EQ(DecisionTraceDigest(DecisionTrace{}), kEmptyDecisionDigest);

    using Mutation = void (*)(DecisionTraceEntry&);
    const std::vector<std::pair<const char*, Mutation>> mutations = {
        {"time_s", [](DecisionTraceEntry& e) { e.time_s += 1.0; }},
        {"interval", [](DecisionTraceEntry& e) { ++e.interval; }},
        {"kind",
         [](DecisionTraceEntry& e) { e.kind = DecisionKind::kModel; }},
        {"observed_p99_ms",
         [](DecisionTraceEntry& e) { e.observed_p99_ms = -1.0; }},
        {"violated", [](DecisionTraceEntry& e) { e.violated = true; }},
        {"telemetry",
         [](DecisionTraceEntry& e) {
             e.telemetry = TelemetryHealth::kAbsent;
         }},
        {"silent_intervals",
         [](DecisionTraceEntry& e) { ++e.silent_intervals; }},
        {"trust_reduced",
         [](DecisionTraceEntry& e) { e.trust_reduced = true; }},
        {"mispredictions",
         [](DecisionTraceEntry& e) { ++e.mispredictions; }},
        {"healthy_streak",
         [](DecisionTraceEntry& e) { ++e.healthy_streak; }},
        {"consecutive_violations",
         [](DecisionTraceEntry& e) { ++e.consecutive_violations; }},
        {"trust_lost", [](DecisionTraceEntry& e) { e.trust_lost = true; }},
        {"trust_restored",
         [](DecisionTraceEntry& e) { e.trust_restored = true; }},
        {"margin_ms", [](DecisionTraceEntry& e) { e.margin_ms = -12.5; }},
        {"may_reclaim",
         [](DecisionTraceEntry& e) { e.may_reclaim = false; }},
        {"confidence", [](DecisionTraceEntry& e) { e.confidence = 0.5; }},
        {"uncertainty_margin_ms",
         [](DecisionTraceEntry& e) { e.uncertainty_margin_ms = 0.0; }},
        {"tier_confidence element",
         [](DecisionTraceEntry& e) { e.tier_confidence[1] = 0.25; }},
        {"tier_confidence length",
         [](DecisionTraceEntry& e) { e.tier_confidence.pop_back(); }},
        {"chosen", [](DecisionTraceEntry& e) { e.chosen = -1; }},
        {"candidates length",
         [](DecisionTraceEntry& e) { e.candidates.pop_back(); }},
        {"candidate row count",
         [](DecisionTraceEntry& e) { e.candidates[1].latency_ms.resize(4); }},
        {"candidate row value",
         [](DecisionTraceEntry& e) { e.candidates[1].latency_ms[2] += 0.5; }},
        {"candidate kind",
         [](DecisionTraceEntry& e) {
             e.candidates[1].kind = ActionKind::kScaleUp;
         }},
        {"candidate outcome",
         [](DecisionTraceEntry& e) {
             e.candidates[1].outcome =
                 CandidateOutcome::kRejectedLatencyMargin;
         }},
        {"candidate total_cpu",
         [](DecisionTraceEntry& e) { e.candidates[1].total_cpu = 0.0; }},
        {"candidate p_violation",
         [](DecisionTraceEntry& e) { e.candidates[1].p_violation = 0.9; }},
    };
    for (const auto& [field, mutate] : mutations) {
        SCOPED_TRACE(field);
        for (size_t k = 0; k < base.intervals.size(); ++k) {
            DecisionTrace changed = base;
            mutate(changed.intervals[k]);
            EXPECT_NE(DecisionTraceDigest(changed), digest);
        }
    }

    // Order matters: swapping two entries changes the digest.
    DecisionTrace swapped = base;
    std::swap(swapped.intervals[0], swapped.intervals[1]);
    EXPECT_NE(DecisionTraceDigest(swapped), digest);

    // The digest folds entry by entry.
    EXPECT_EQ(FoldDecision(FoldDecision(kEmptyDecisionDigest,
                                        base.intervals[0]),
                           base.intervals[1]),
              digest);
}

TEST_F(TelemetryFixture, HarnessStampsTimesAndExportsTelemetry)
{
    // End-to-end: a managed run fills RunResult::decision_trace with
    // harness-stamped interval times and a populated registry.
    const Application app = BuildSocialNetwork();
    PipelineConfig pcfg;
    pcfg.collect_s = 120.0;
    pcfg.hybrid = DefaultHybridConfig();
    pcfg.hybrid.train.epochs = 2;
    pcfg.hybrid.bt.n_trees = 20;
    const TrainedSinan trained = TrainSinanForApp(app, pcfg);
    SinanScheduler sched(*trained.model, SchedulerConfig{});
    ConstantLoad load(100.0);
    RunConfig cfg;
    cfg.duration_s = 12.0;
    const RunResult r = RunManaged(app, sched, load, cfg);

    ASSERT_EQ(r.decision_trace.intervals.size(), r.timeline.size());
    for (size_t i = 0; i < r.timeline.size(); ++i) {
        EXPECT_DOUBLE_EQ(r.decision_trace.intervals[i].time_s,
                         r.timeline[i].time_s);
        EXPECT_EQ(r.decision_trace.intervals[i].interval,
                  static_cast<int>(i));
    }
    // The run's digest is the fold of exactly the entries it kept.
    EXPECT_EQ(DecisionTraceDigest(r.decision_trace), r.decision_digest);
    EXPECT_NE(r.decision_digest, kEmptyDecisionDigest);
    EXPECT_EQ(r.metrics.Counter("sinan.scheduler.decisions"),
              r.timeline.size());
    const TelemetrySummary tel = SummarizeTelemetry(r.metrics);
    EXPECT_EQ(tel.decisions, r.timeline.size());
    EXPECT_GE(tel.PredictionAccuracy(), 0.0);
    EXPECT_LE(tel.PredictionAccuracy(), 1.0);
}

} // namespace
} // namespace sinan
