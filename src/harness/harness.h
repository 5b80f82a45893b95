/**
 * @file
 * Experiment harness: runs a resource manager against a simulated
 * application under a load shape and accounts the paper's evaluation
 * metrics (probability of meeting QoS, mean/max aggregate CPU
 * allocation, and full timelines for the figure benches). Also bundles
 * the end-to-end "collect with the bandit, train the hybrid model"
 * pipeline that every Sinan experiment starts from.
 */
#ifndef SINAN_HARNESS_HARNESS_H
#define SINAN_HARNESS_HARNESS_H

#include <iosfwd>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "collect/collector.h"
#include "core/manager.h"
#include "models/hybrid.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace sinan {

/** One managed run's parameters. */
struct RunConfig {
    double duration_s = 120.0;
    /** Intervals excluded from the aggregate metrics. */
    double warmup_s = 15.0;
    SimConfig sim;
    ClusterConfig cluster;
    /** Traffic micro-bursts (enabled: managers must keep headroom). */
    BurstOptions bursts = DefaultBursts();
    /** Deterministic fault schedule (empty: no faults). Cluster faults
     *  perturb the ground truth; telemetry faults corrupt only the
     *  manager's copy of each observation — QoS accounting always uses
     *  the true observation. See sim/fault_injector.h. */
    FaultSchedule faults;
    uint64_t seed = 1;

    static BurstOptions
    DefaultBursts()
    {
        BurstOptions b;
        b.enabled = true;
        return b;
    }
};

/** Timeline entry captured each interval. */
struct IntervalRecord {
    double time_s = 0.0;
    double rps = 0.0;
    double p99_ms = 0.0;
    double total_cpu = 0.0;
    double predicted_p99_ms = -1.0;
    double predicted_violation = -1.0;
    std::vector<double> alloc;
};

/** Aggregated result of one run. */
struct RunResult {
    /** Fraction of measured intervals with p99 <= QoS. */
    double qos_meet_prob = 0.0;
    /** Mean / max aggregate CPU allocation (cores, post-warmup). */
    double mean_cpu = 0.0;
    double max_cpu = 0.0;
    /** Mean p99 over measured intervals, ms. */
    double mean_p99_ms = 0.0;
    /** Full timeline (includes warmup). */
    std::vector<IntervalRecord> timeline;
    /**
     * Per-decision telemetry, filled by managers that implement the
     * AttachTelemetry() hook (SinanScheduler); empty for managers
     * without telemetry. Serializers live in harness/telemetry_log.h.
     *
     * decision_trace holds every entry, with interval times stamped
     * by the harness, only for a run driven by RunManaged(). A
     * ManagedRun stepped by other callers (a fleet shard) keeps no
     * entries: decision_digest, every entry folded in order by
     * FoldDecision() (core/decision_trace.h), is all that remains of
     * them there. When decision_trace is filled,
     * DecisionTraceDigest(decision_trace) == decision_digest.
     */
    DecisionTrace decision_trace;
    uint64_t decision_digest = kEmptyDecisionDigest;
    /** The `sinan.scheduler.*` (and fault) metric registry. */
    MetricsRegistry metrics;
};

/** Runs @p manager on @p app under @p load, keeping the full decision
 *  trace (see RunResult::decision_trace). */
RunResult RunManaged(const Application& app, ResourceManager& manager,
                     const LoadShape& load, const RunConfig& cfg);

/**
 * One managed run decomposed into externally driven interval steps.
 *
 * Each decision interval splits into two phases:
 *   A. AdvanceInterval() — tick the simulation to the next interval
 *      boundary and harvest (and fault-filter) the observation;
 *   B. DecideAndApply()  — run the manager on the pending observation
 *      and apply the returned allocation (plus next-interval cluster
 *      faults).
 *
 * RunManaged() drives one instance to completion; the fleet harness
 * (src/fleet) advances many instances concurrently in phase A and
 * batches phase B under the centralized FleetManager. The per-interval
 * operation sequence on the run's own state is exactly RunManaged's,
 * so a cluster stepped inside a fleet produces byte-identical
 * telemetry to the same configuration run solo (its decisions as the
 * same RunResult::decision_digest; only RunManaged keeps the entries).
 *
 * Instances are pinned to their construction address (the simulator
 * holds references to the run's generator and cluster): neither
 * copyable nor movable. The application, manager, and load must outlive the run.
 */
class ManagedRun {
  public:
    ManagedRun(const Application& app, ResourceManager& manager,
               const LoadShape& load, const RunConfig& cfg);

    ManagedRun(const ManagedRun&) = delete;
    ManagedRun& operator=(const ManagedRun&) = delete;

    /** Decision intervals the configured duration spans. */
    int64_t TotalIntervals() const { return total_intervals_; }

    /** Intervals fully processed (both phases). */
    int64_t IntervalsDone() const { return intervals_done_; }

    bool Done() const { return intervals_done_ >= total_intervals_; }

    /** Phase A (see class comment). Call only while !Done(), and
     *  never twice without a DecideAndApply() in between. */
    void AdvanceInterval();

    /** Phase B (see class comment). Must follow AdvanceInterval(). */
    void DecideAndApply();

    const Application& App() const { return app_; }
    ResourceManager& Manager() { return manager_; }
    const RunConfig& Config() const { return cfg_; }

    /** Newest timeline record (valid once an interval completed). */
    const IntervalRecord& LastRecord() const;

    /** The decision-trace entries of the newest DecideAndApply(),
     *  time-stamped; replaced by the next one. The run folds them into
     *  RunResult::decision_digest and keeps no other copy. */
    const DecisionTrace& LastDecisions() const { return last_decisions_; }

    /**
     * Detaches the telemetry sinks, aggregates the post-warmup
     * metrics, and surrenders the result. The run is spent afterwards
     * (Done() is forced true); call exactly once.
     */
    RunResult Finish();

  private:
    const Application& app_;
    ResourceManager& manager_;
    RunConfig cfg_;
    Cluster cluster_;
    WorkloadGenerator gen_;
    Simulator sim_;
    std::unique_ptr<FaultInjector> injector_;

    RunResult result_;
    /** The manager's trace sink: one interval's entries at a time. */
    DecisionTrace last_decisions_;
    int64_t total_intervals_ = 0;
    int64_t intervals_done_ = 0;
    bool pending_ = false;
    bool finished_ = false;

    /** Phase-A products consumed by phase B. */
    double pending_now_ = 0.0;
    IntervalRecord pending_rec_;
    IntervalObservation pending_managed_;

    /** Telemetry-delay redelivery state (see sim/fault_injector.h). */
    IntervalObservation last_delivered_;
    bool have_delivered_ = false;
};

/**
 * Recovery time after a fault run: intervals past @p fault_end_s until
 * the first measured interval with p99 <= @p qos_ms. 0 means the first
 * post-fault interval already met QoS; -1 means the run never recovered
 * (or ended before the faults did).
 */
int RecoveryIntervals(const RunResult& result, double fault_end_s,
                      double qos_ms);

/** Everything needed to evaluate Sinan on one application. */
struct TrainedSinan {
    FeatureConfig features;
    std::unique_ptr<HybridModel> model;
    Dataset train;
    Dataset valid;
    HybridReport report;
};

/** Data-collection + training knobs of the end-to-end pipeline. */
struct PipelineConfig {
    /** Simulated collection time (≈ samples before windowing). */
    double collect_s = 2200.0;
    double users_min = 50.0;
    double users_max = 450.0;
    int history = 5;
    int violation_lookahead = 5;
    HybridConfig hybrid;
    ClusterConfig cluster;
    uint64_t seed = 42;
};

/** The model's feature layout for @p app under @p cfg: one tier per
 *  service, the pipeline's history and violation lookahead, and the
 *  app's QoS target. */
FeatureConfig AppFeatures(const Application& app, const PipelineConfig& cfg);

/** A saved Sinan model for @p app, read from @p in: the model that
 *  AppFeatures of a default PipelineConfig and DefaultHybridConfig
 *  build (the bundled models' recipe), then HybridModel::Load. Throws
 *  what Load throws on a stream that does not load for @p app. */
std::unique_ptr<HybridModel> LoadSinanModel(const Application& app,
                                            std::istream& in);

/**
 * Collects a dataset with the bandit explorer and trains the hybrid
 * model — the offline phase preceding every deployment experiment.
 */
TrainedSinan TrainSinanForApp(const Application& app,
                              const PipelineConfig& cfg);

/** Default hybrid/train hyper-parameters used across the benches. */
HybridConfig DefaultHybridConfig();

} // namespace sinan

#endif // SINAN_HARNESS_HARNESS_H
