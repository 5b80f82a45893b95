#include "harness/harness.h"

#include <algorithm>

#include "collect/bandit.h"
#include "common/check.h"

namespace sinan {

ManagedRun::ManagedRun(const Application& app, ResourceManager& manager,
                       const LoadShape& load, const RunConfig& cfg)
    : app_(app), manager_(manager), cfg_(cfg),
      cluster_(app, cfg.cluster, cfg.seed),
      gen_(cluster_, load, cfg.seed ^ 0xfeed, 1.0, cfg.bursts),
      sim_(cfg.sim, gen_, cluster_),
      total_intervals_(sim_.IntervalsIn(cfg.duration_s))
{
    manager_.Reset();
    manager_.AttachTelemetry(&last_decisions_, &result_.metrics);

    // Deterministic fault injection (see sim/fault_injector.h). The
    // injector perturbs the cluster before each interval starts and
    // corrupts only the manager's copy of the harvested observation;
    // IntervalRecord and the QoS accounting always see the truth.
    if (!cfg.faults.Empty()) {
        ValidateFaultSchedule(cfg.faults,
                              static_cast<int>(app.tiers.size()));
        injector_ = std::make_unique<FaultInjector>(
            cfg.faults, cfg.sim.interval_s);
        injector_->AttachMetrics(&result_.metrics);
        injector_->ApplyClusterFaults(0, 0.0, cluster_);
        gen_.SetRateMultiplier(injector_->RateMultiplierAt(0));
    }
}

void
ManagedRun::AdvanceInterval()
{
    SINAN_CHECK_MSG(!pending_, "ManagedRun: AdvanceInterval called "
                                "twice without DecideAndApply");
    SINAN_CHECK_MSG(!Done() && !finished_,
                    "ManagedRun: AdvanceInterval on a finished run");
    // The allocation the interval runs under, read before it runs.
    pending_rec_ = IntervalRecord{};
    pending_rec_.alloc = cluster_.Allocation();
    const IntervalObservation obs = sim_.RunInterval();
    const double now = sim_.Now();
    const int64_t interval = intervals_done_;

    pending_rec_.time_s = now;
    pending_rec_.rps = obs.rps;
    pending_rec_.p99_ms = obs.P99();
    pending_rec_.total_cpu = obs.TotalCpuLimit();

    pending_managed_ = obs;
    if (injector_) {
        switch (injector_->FilterTelemetry(interval, pending_managed_)) {
        case TelemetryFate::kDeliver:
            last_delivered_ = pending_managed_;
            have_delivered_ = true;
            break;
        case TelemetryFate::kDrop:
            // Blank observation: no tiers, no percentiles — the
            // scheduler's guard classifies it as absent.
            pending_managed_ = IntervalObservation{};
            pending_managed_.time_s = now;
            break;
        case TelemetryFate::kDelay:
            // The pipeline redelivers the newest already-delivered
            // observation (stale), or nothing at all if the outage
            // started before anything got through.
            if (have_delivered_) {
                pending_managed_ = last_delivered_;
            } else {
                pending_managed_ = IntervalObservation{};
                pending_managed_.time_s = now;
            }
            break;
        }
    }
    pending_now_ = now;
    pending_ = true;
}

void
ManagedRun::DecideAndApply()
{
    SINAN_CHECK_MSG(pending_,
                    "ManagedRun: DecideAndApply without "
                    "AdvanceInterval");
    const double now = pending_now_;
    const int64_t interval = intervals_done_;

    last_decisions_.Clear();
    const std::vector<double> next =
        manager_.Decide(pending_managed_, pending_rec_.alloc, app_);
    cluster_.SetAllocation(next);
    if (injector_) {
        injector_->ApplyClusterFaults(interval + 1, now, cluster_);
        // Flash-crowd events multiply the arrival rate for the coming
        // interval (the cluster-side counterpart is applied above).
        gen_.SetRateMultiplier(
            injector_->RateMultiplierAt(interval + 1));
    }
    // Stamp the simulation time onto whatever the manager traced
    // for this decision (the scheduler has no notion of time), then
    // fold it into the run's digest.
    for (DecisionTraceEntry& e : last_decisions_.intervals) {
        e.time_s = now;
        result_.decision_digest =
            FoldDecision(result_.decision_digest, e);
    }
    pending_rec_.predicted_p99_ms = manager_.LastPredictedP99();
    pending_rec_.predicted_violation = manager_.LastViolationProb();
    result_.timeline.push_back(std::move(pending_rec_));
    pending_ = false;
    ++intervals_done_;
}

const IntervalRecord&
ManagedRun::LastRecord() const
{
    SINAN_CHECK_MSG(!result_.timeline.empty(),
                    "ManagedRun: LastRecord before the first interval");
    return result_.timeline.back();
}

RunResult
ManagedRun::Finish()
{
    SINAN_CHECK_MSG(!finished_, "ManagedRun: Finish called twice");
    finished_ = true;
    intervals_done_ = total_intervals_;
    // The sinks move with the result; detach before returning.
    manager_.AttachTelemetry(nullptr, nullptr);

    // Aggregate post-warmup metrics.
    RunResult result = std::move(result_);
    size_t met = 0, measured = 0;
    double cpu_acc = 0.0, p99_acc = 0.0;
    for (const IntervalRecord& rec : result.timeline) {
        if (rec.time_s <= cfg_.warmup_s)
            continue;
        ++measured;
        if (rec.p99_ms <= app_.qos_ms)
            ++met;
        cpu_acc += rec.total_cpu;
        p99_acc += rec.p99_ms;
        result.max_cpu = std::max(result.max_cpu, rec.total_cpu);
    }
    if (measured) {
        result.qos_meet_prob =
            static_cast<double>(met) / static_cast<double>(measured);
        result.mean_cpu = cpu_acc / static_cast<double>(measured);
        result.mean_p99_ms = p99_acc / static_cast<double>(measured);
    }
    return result;
}

RunResult
RunManaged(const Application& app, ResourceManager& manager,
           const LoadShape& load, const RunConfig& cfg)
{
    ManagedRun run(app, manager, load, cfg);
    DecisionTrace trace;
    while (!run.Done()) {
        run.AdvanceInterval();
        run.DecideAndApply();
        const std::vector<DecisionTraceEntry>& last =
            run.LastDecisions().intervals;
        trace.intervals.insert(trace.intervals.end(), last.begin(),
                               last.end());
    }
    RunResult result = run.Finish();
    result.decision_trace = std::move(trace);
    return result;
}

int
RecoveryIntervals(const RunResult& result, double fault_end_s,
                  double qos_ms)
{
    int waited = 0;
    for (const IntervalRecord& rec : result.timeline) {
        if (rec.time_s <= fault_end_s)
            continue;
        if (rec.p99_ms <= qos_ms)
            return waited;
        ++waited;
    }
    return -1;
}

HybridConfig
DefaultHybridConfig()
{
    HybridConfig cfg;
    cfg.cnn = SinanCnnConfig{};
    cfg.bt.n_trees = 250;
    cfg.bt.max_depth = 4;
    cfg.bt.learning_rate = 0.12;
    cfg.bt.early_stop_rounds = 12;
    cfg.train.epochs = 18;
    cfg.train.lr = 0.02;
    cfg.train.lr_decay = 0.93;
    cfg.train.scaled_loss = true;
    return cfg;
}

FeatureConfig
AppFeatures(const Application& app, const PipelineConfig& cfg)
{
    FeatureConfig f;
    f.n_tiers = static_cast<int>(app.tiers.size());
    f.history = cfg.history;
    f.violation_lookahead = cfg.violation_lookahead;
    f.qos_ms = app.qos_ms;
    return f;
}

std::unique_ptr<HybridModel>
LoadSinanModel(const Application& app, std::istream& in)
{
    // The seed is never drawn from: Load replaces every weight.
    auto model = std::make_unique<HybridModel>(
        AppFeatures(app, PipelineConfig{}), DefaultHybridConfig(), 1);
    model->Load(in);
    return model;
}

TrainedSinan
TrainSinanForApp(const Application& app, const PipelineConfig& cfg)
{
    TrainedSinan out;
    out.features = AppFeatures(app, cfg);

    CollectionConfig col;
    col.duration_s = cfg.collect_s;
    col.users_min = cfg.users_min;
    col.users_max = cfg.users_max;
    col.features = out.features;
    col.cluster = cfg.cluster;
    col.seed = cfg.seed;

    BanditConfig bandit_cfg;
    bandit_cfg.qos_ms = app.qos_ms;
    bandit_cfg.seed = cfg.seed ^ 0xbad17;
    BanditExplorer bandit(bandit_cfg);

    const Dataset all = Collect(app, bandit, col);
    Rng rng(cfg.seed ^ 0x5eed);
    auto [train, valid] = all.Split(0.9, rng);
    out.train = std::move(train);
    out.valid = std::move(valid);

    out.model = std::make_unique<HybridModel>(out.features, cfg.hybrid,
                                              cfg.seed ^ 0xcafe);
    out.report = out.model->Train(out.train, out.valid);
    // Calibrate unconditionally (a few ms on the training set) so
    // every Save carries the calibration record bench_e2e checks for.
    out.model->CalibrateInt8(out.train);
    return out;
}

} // namespace sinan
