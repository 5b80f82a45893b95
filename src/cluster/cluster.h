/**
 * @file
 * Runtime queueing-network model of a microservice deployment.
 *
 * Each tier is a processor-sharing queue with a cgroup-style fractional
 * CPU limit and a finite number of concurrency slots (threads). A request
 * executes a call tree (cluster/spec.h): a stage does its local CPU work,
 * then invokes its children in parallel and blocks — still holding its
 * slot — until synchronous children complete. Holding slots across
 * downstream RPCs is what produces the cascading back-pressure and delayed
 * queueing effects that Sinan targets (paper Sec. 2.3).
 *
 * Time advances in fixed ticks. Within a tick, each tier distributes its
 * CPU capacity over runnable stages in rounds (so short stages do not
 * quantize throughput to one completion per slot per tick), capped at one
 * core per stage (single-threaded request handling).
 */
#ifndef SINAN_CLUSTER_CLUSTER_H
#define SINAN_CLUSTER_CLUSTER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/telemetry.h"
#include "cluster/tracing.h"
#include "cluster/spec.h"
#include "common/rng.h"
#include "common/stats.h"

namespace sinan {

/** Environment knobs that model platform changes (Sec. 5.4 scenarios). */
struct ClusterConfig {
    /** CPU speed relative to the training platform (GCE migration). */
    double speed_factor = 1.0;
    /** Multiplies every tier's replica count (scale-out scenario). */
    int replica_scale = 1;
    /** Relative telemetry noise applied at interval harvest. */
    double metric_noise = 0.01;
    /** Fraction of requests traced (Jaeger stand-in; 0 disables). */
    double trace_sample = 0.0;
};

/** Runtime state of one tier (exposed for tests and white-box benches). */
struct TierState {
    /** The tier's spec inside the cluster's application, which the
     *  cluster references and does not copy. */
    const TierSpec* spec = nullptr;
    /** Current CPU limit in cores. */
    double cpu_limit = 0.0;
    /** Total concurrency slots. */
    int slots = 0;
    /** Occupied slots (running + blocked on children). */
    int active = 0;
    /** Admission queue: a FIFO of stage handles linked through the
     *  stage arena (oldest at queue_head, newest at queue_tail; both -1
     *  when empty), so a drained queue keeps no memory. */
    int32_t queue_head = -1;
    int32_t queue_tail = -1;
    int64_t queue_len = 0;
    /** Stages admitted and still owing local CPU work, in admission
     *  order (the order CPU is handed out in). Inside Tick a finished
     *  entry is marked -1 and dropped before the tier-tick ends. */
    std::vector<int32_t> running;

    /** Stages waiting for a slot. */
    size_t QueueLen() const { return static_cast<size_t>(queue_len); }

    /** A slot is free and a stage is waiting for it. */
    bool CanAdmit() const { return active < slots && queue_head >= 0; }

    /** Externally imposed capacity multiplier in [0, 1] (fault
     *  injection: capacity loss / noisy neighbor). Invisible to the
     *  telemetry, which keeps reporting the configured cpu_limit. */
    double capacity_factor = 1.0;

    // Log-sync stall model.
    double stall_until = -1.0;
    double next_sync_at = 0.0;
    double written_mb = 0.0;
    double cache_mb = 0.0;

    // Interval accumulators. The occupancy sums are exact integers.
    double cpu_used_acc = 0.0;
    int64_t queue_len_acc = 0;
    int64_t active_acc = 0;
    double rx_pkts = 0.0;
    double tx_pkts = 0.0;
    double wait_acc = 0.0;
    int64_t wait_count = 0;
};

/**
 * The simulated cluster: owns tier runtimes and in-flight request stages,
 * advances them per tick, and rolls telemetry up per decision interval.
 */
class Cluster {
  public:
    /** @p app is referenced, not copied: it must outlive the cluster
     *  and stay unmodified while the cluster is alive. */
    Cluster(const Application& app, const ClusterConfig& cfg, uint64_t seed);
    /** A temporary application would dangle. */
    Cluster(Application&&, const ClusterConfig&, uint64_t) = delete;

    /** Injects one request of the given type at time @p now. */
    void Inject(int request_type, double now);

    /** Advances all tiers by one tick of length @p dt starting at @p now.
     *  Throws std::overflow_error instead of running tick 2^31 (stage
     *  ready ticks are 32 bits wide). */
    void Tick(double now, double dt);

    /**
     * Rolls up and resets the current interval's telemetry.
     * @param now end-of-interval timestamp.
     * @param interval_s interval length used for rate normalization.
     */
    IntervalObservation Harvest(double now, double interval_s);

    /** Sets one tier's CPU limit, clamped to the spec's [min,max]. */
    void SetCpuLimit(int tier, double cores);

    /** Applies a full allocation vector (one entry per tier). */
    void SetAllocation(const std::vector<double>& cores);

    /** Current allocation vector. */
    std::vector<double> Allocation() const;

    /**
     * Fault hook: multiplies one tier's effective CPU capacity by
     * @p factor (clamped to [0, 1]) until changed again. Telemetry
     * still reports the configured limit — this models capacity the
     * manager cannot see (failed replica, noisy neighbor).
     */
    void SetCapacityFactor(int tier, double factor);

    /**
     * Fault hook: the tier serves nothing until simulated time
     * @p until_s (extends, never shortens, a stall in progress).
     * Reuses the log-sync stall machinery.
     */
    void InjectStall(int tier, double until_s);

    int NumTiers() const { return static_cast<int>(tiers_.size()); }
    const Application& App() const { return app_; }
    const TierState& TierAt(int i) const { return tiers_[i]; }

    /** Requests injected but not yet completed (all types). */
    int64_t InFlight() const { return in_flight_; }

    /**
     * Completed-request latency digest of the current interval,
     * sealed here so callers can query it directly (the digest's
     * sealed-before-query contract).
     */
    const PercentileDigest&
    Latencies()
    {
        latency_.Seal();
        return latency_;
    }

    /** Removes and returns the traces completed since the last call. */
    std::vector<Trace> TakeTraces();

  private:
    /** One node of a flattened call tree. */
    struct FlatNode {
        int tier;
        /** Tier of the stage that waits on this one: the parent's for a
         *  sync child, -1 for a root or an async child. */
        int caller_tier;
        /** Local CPU demand distribution, precomputed from the node's
         *  demand_s and demand_cv. */
        LogNormalParams demand;
        double hit_prob;
        bool async;
        /** A request type's root: the only node whose stage records
         *  the request's latency (a root is never spawned as a child). */
        bool root;
        /** Index of the first child (the node right after this one; -1
         *  for a leaf). */
        int32_t child_begin;
        /** Index of the parent's next child (-1 for the last). */
        int32_t next_sibling;
    };

    /** In-flight execution of one call-tree node; half a cache line.
     *  A request's latency is its root's end time minus the root's
     *  enqueue time, which Inject sets to the injection time. */
    struct alignas(32) Stage {
        /** Sync parent waiting on this stage (-1: none). */
        int32_t parent = -1;
        uint16_t node = 0;
        int8_t state = 0; // 0 free, 1 queued, 2 running, 3 blocked
        uint8_t pending_children = 0;
        /** Queued: the next stage in its tier's admission queue. Free:
         *  the next free slot. -1 ends either list; unused otherwise. */
        int32_t next = -1;
        /** First tick in which this stage may consume CPU. Children
         *  spawned mid-tick wait one tick, so a serial RPC chain cannot
         *  compress multiple hops of work into a single tick. */
        int32_t ready_tick = 0;
        double remaining_s = 0.0;
        double enqueue_time = 0.0;
    };
    static_assert(sizeof(Stage) == 32, "Stage must fill half a cache line");

    /** Limits of the narrow Stage fields: FlattenTree checks the node
     *  and child counts, Tick the tick count (about 248 simulated days
     *  at 10 ms ticks). */
    static constexpr size_t kMaxNodes = 65535;
    static constexpr int kMaxSyncChildren = 255;
    static constexpr int64_t kMaxTicks = INT32_MAX;

    /** Tracing handles of one stage (-1: untraced). */
    struct StageSpan {
        int32_t trace_idx = -1;
        int32_t span_idx = -1;
    };

    /** One entry of a tier-tick's runnable set: the stage's position in
     *  the tier's running list and the CPU it received this tick. */
    struct Runnable {
        int32_t pos;
        double consumed;
    };

    int32_t AllocStage();
    void FreeStage(int32_t handle);

    /** Opens a span on an active trace for a freshly spawned stage. */
    void AttachSpan(int32_t handle, int32_t trace_idx, int parent_span,
                    bool async, double now);

    /** Closes a stage's span (a root's also ends the trace);
     *  finalizes the trace when drained. */
    void CloseSpan(const StageSpan& ss, bool root, double end_time);
    /** Appends @p node's subtree to nodes_; returns the node's index. */
    int32_t FlattenTree(const CallNode& node, int caller_tier);

    /** Creates a stage for @p node and enqueues it at its tier. */
    int32_t SpawnStage(int32_t node, int32_t parent, double now);

    /** Moves queued stages into running while slots are free. */
    void AdmitFromQueue(TierState& tier, double now);

    /** Local work finished: fan out to children or complete. */
    void FinishLocalWork(int32_t handle, double end_time);

    /** Stage (and its sync subtree) fully done; completes each blocked
     *  ancestor whose last sync child this was. */
    void CompleteStage(int32_t handle, double end_time);

    const Application& app_;
    ClusterConfig cfg_;
    Rng rng_;

    std::vector<TierState> tiers_;
    /** Every request type's call tree, flattened into one table. */
    std::vector<FlatNode> nodes_;
    /** Root node index of each request type. */
    std::vector<int32_t> roots_;

    std::vector<Stage> stages_;
    /** Most recently freed stage slot (-1: none); the free slots form a
     *  LIFO list linked through Stage::next. */
    int32_t free_head_ = -1;
    /** Tracing handles, indexed like stages_; empty unless
     *  trace_sample > 0. */
    std::vector<StageSpan> stage_spans_;

    // Tracing state: active traces (arena + free list), open-span
    // counts, and the completed traces awaiting TakeTraces().
    std::vector<Trace> active_traces_;
    std::vector<int32_t> trace_free_;
    std::vector<int32_t> trace_open_spans_;
    std::vector<Trace> completed_traces_;
    int64_t trace_counter_ = 0;

    int64_t tick_id_ = 0;
    /** Ticks since the last Harvest (every tier is sampled each tick). */
    int64_t tick_samples_ = 0;
    /** True while Tick() is running (stages spawned then wait a tick). */
    bool in_tick_ = false;
    int64_t injected_ = 0;  // this interval
    int64_t completed_ = 0; // this interval
    int64_t in_flight_ = 0;
    // Cumulative over all harvested intervals (conservation check).
    int64_t injected_total_ = 0;
    int64_t completed_total_ = 0;
    PercentileDigest latency_;

    /** Scratch reused across ticks: the current round's runnable
     *  stages of one tier. */
    std::vector<Runnable> runnable_;
};

} // namespace sinan

#endif // SINAN_CLUSTER_CLUSTER_H
