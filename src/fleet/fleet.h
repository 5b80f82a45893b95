/**
 * @file
 * Fleet-scale sharded simulation: one centralized manager, ~100
 * clusters (the paper's largest evaluation runs Sinan against ~100 GCE
 * instances; the extended report, arXiv:2105.13424, frames this as
 * cluster-level management).
 *
 * A fleet is N independent shards — each a full ManagedRun (cluster +
 * workload generator + fault injector + per-shard resource-manager
 * state) with its own RNG seed — stepped in lockstep decision
 * intervals. Every interval runs in two phases on the shared thread
 * pool:
 *
 *   A. all shards advance one interval concurrently (ticks + harvest);
 *   B. the FleetManager makes batched per-cluster decisions in
 *      min(shards, threads) blocks that pull shards off one shared
 *      cursor: Sinan shards evaluate candidates through the
 *      cached-trunk single-pass Evaluate, each bound to its block's
 *      own HybridModel clone (clones are weight-identical, so which
 *      clone serves a shard never changes the decision).
 *
 * Determinism contract: shards never share mutable state, every
 * reduction (fleet timeline, aggregates, serialized traces) iterates
 * shards in fixed index order on the calling thread, and per-shard
 * stepping is exactly RunManaged's operation sequence — so the fleet
 * trace is byte-identical at any thread count and under any shard
 * scheduling order, and each cluster's telemetry is byte-identical to
 * the same configuration run solo. A shard keeps its decision trace
 * only as RunResult::decision_digest, not entry by entry. Wall-clock
 * measurements (decision latency, throughput) are collected alongside
 * but never enter the deterministic serializations (see
 * fleet/fleet_log.h).
 */
#ifndef SINAN_FLEET_FLEET_H
#define SINAN_FLEET_FLEET_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "harness/harness.h"

namespace sinan {

/** Fully resolved parameters of one fleet shard (cluster). */
struct ShardSpec {
    /** Position in the fleet (also the deterministic reduction order). */
    int index = 0;
    /** Application: "hotel" or "social". */
    std::string app = "social";
    /** Manager: "sinan", "opt", "cons", "powerchief", or "hold". */
    std::string manager = "sinan";
    /** Emulated users (constant load). */
    double users = 0.0;
    /** Per-shard RNG seed (workload arrivals, cluster noise). */
    uint64_t seed = 1;
    /** Fault spec for this shard ("" = none; see ParseFaultSpec). */
    std::string faults;
};

/** A sparse per-shard override (`--fleet-shard K:key=val,...`). */
struct ShardOverride {
    int index = -1;
    /** Empty = inherit the fleet default. */
    std::string app;
    std::string manager;
    /** 0 = inherit. */
    double users = 0.0;
    uint64_t seed = 0;
    bool faults_set = false;
    std::string faults;
};

/**
 * Parses a shard override: `K:key=val[,key=val...]` with keys `app`,
 * `manager`, `users`, `seed`, and `faults`. Because fault specs embed
 * `,` and `;`, a `faults=` entry consumes the remainder of the string
 * and must therefore come last. Throws std::invalid_argument naming
 * the offending text on malformed input.
 */
ShardOverride ParseShardOverride(const std::string& text);

/** A full fleet's configuration. */
struct FleetConfig {
    /** Number of clusters (shards). */
    int n_clusters = 1;
    /**
     * Default app for every shard; "" alternates social/hotel by shard
     * index (the mixed-workload fleet of the paper's GCE evaluation).
     */
    std::string default_app;
    std::string default_manager = "sinan";
    /** Default emulated users; 0 picks a per-app default staggered
     *  ±20% across shards so the fleet is not N identical clusters. */
    double default_users = 0.0;
    /** Sparse per-shard overrides (validated by ResolveFleetShards). */
    std::vector<ShardOverride> overrides;

    double duration_s = 60.0;
    double warmup_s = 10.0;
    SimConfig sim;
    ClusterConfig cluster;
    BurstOptions bursts = RunConfig::DefaultBursts();
    /** Fleet seed; per-shard seeds are derived from it and the shard
     *  index unless overridden. */
    uint64_t seed = 1;
    SchedulerConfig scheduler;
};

/**
 * The concrete applications a fleet's shards run, injected by the
 * caller (the CLI, tests, benches) so the fleet layer never reaches up
 * into app/ to build them itself. A kind may be null when no shard of
 * that app exists; a shard whose application is missing is a contract
 * violation. Shards and their clusters reference these applications
 * without copying them, so they must outlive the fleet.
 */
struct FleetApps {
    const Application* hotel = nullptr;
    const Application* social = nullptr;
};

/**
 * Expands a FleetConfig into one resolved ShardSpec per cluster and
 * validates everything that can fail (cluster count, app/manager
 * names, user counts, override indices and duplicates, fault specs
 * against the target app's tier count — which is why @p apps is
 * needed). Throws std::invalid_argument on any bad value; callers
 * (the --fleet CLI) surface the message through the strict
 * usage-and-exit-2 path.
 */
std::vector<ShardSpec> ResolveFleetShards(const FleetConfig& cfg,
                                          const FleetApps& apps);

/**
 * Trained models for the fleet's Sinan-managed shards, keyed by app.
 * A kind may be null when no sinan shard of that app exists. Models
 * are cloned per decision block, never evaluated directly — the
 * originals' workspaces are untouched.
 */
struct FleetModels {
    const HybridModel* hotel = nullptr;
    const HybridModel* social = nullptr;
};

/** One cluster's outcome inside a fleet run. */
struct FleetClusterResult {
    ShardSpec spec;
    /** Display name of the application and its QoS target. */
    std::string app_name;
    double qos_ms = 0.0;
    /** Identical to a solo RunManaged of the same configuration,
     *  except that decision_trace is empty (decision_digest stands
     *  for it). */
    RunResult result;
    /** RecoveryIntervals() after the shard's last fault; meaningful
     *  only when the shard has faults (-2 = no faults scheduled). */
    int recovery_intervals = -2;
};

/** One fleet-wide interval of the deterministic fleet timeline. */
struct FleetIntervalRecord {
    int64_t interval = 0;
    double time_s = 0.0;
    /** Clusters whose true p99 violated their QoS this interval. */
    int violations = 0;
    /** max over clusters of p99 / qos (tail pressure indicator). */
    double worst_p99_frac = 0.0;
    /** Aggregate allocated CPU (cores) across the fleet. */
    double total_cpu = 0.0;
    /** Aggregate served load (requests/s) across the fleet. */
    double total_rps = 0.0;
};

/** Wall-clock percentiles of the per-interval batched decision phase
 *  (nondeterministic; excluded from the deterministic trace). */
struct FleetDecideStats {
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
};

/** Aggregate outcome of one fleet run. */
struct FleetResult {
    /** Per-cluster outcomes, in shard-index order. */
    std::vector<FleetClusterResult> clusters;
    /** Deterministic per-interval fleet rollup. */
    std::vector<FleetIntervalRecord> timeline;

    // Post-warmup fleet aggregates (deterministic).
    /** Fraction of measured cluster-intervals meeting their QoS. */
    double qos_meet_prob = 0.0;
    uint64_t measured_cluster_intervals = 0;
    uint64_t violation_cluster_intervals = 0;
    /** Mean / max over post-warmup intervals of fleet-wide CPU. */
    double mean_total_cpu = 0.0;
    double max_total_cpu = 0.0;

    // Wall-clock measurements (nondeterministic; reporting only).
    /** Per-interval decision-phase latency, ms, in interval order. */
    std::vector<double> decide_ms;
    FleetDecideStats decide;
    double wall_s = 0.0;
    /** Shard-intervals per wall-clock second (N clusters stepping one
     *  interval each counts N). */
    double shard_intervals_per_s = 0.0;
    /** Thread-pool parallelism the run executed with. */
    int threads = 1;
    /** HybridModel clones instantiated: per app kind with Sinan
     *  shards, one per decision block that decided such a shard, so at
     *  most min(clusters, threads) per kind. */
    int model_clones = 0;
};

/** "sinan" or a MakeBaselineManager name. */
bool KnownManager(const std::string& manager);

/**
 * Baseline manager factory shared by the fleet and the CLI:
 * "opt", "cons", "powerchief", or "hold". Throws std::invalid_argument
 * on anything else (including "sinan" — Sinan shards need a model and
 * are constructed by the fleet itself).
 */
std::unique_ptr<ResourceManager>
MakeBaselineManager(const std::string& name);

/**
 * The centralized fleet manager: owns every shard (ManagedRun +
 * per-shard resource-manager state), the per-block HybridModel clones,
 * and the lockstep interval loop described in the file comment.
 */
class FleetManager {
  public:
    /**
     * @param cfg fleet configuration (resolved and validated here).
     * @param models trained models for sinan shards; the referenced
     *        models must outlive the FleetManager.
     * @param apps the applications shards run (see FleetApps).
     */
    FleetManager(const FleetConfig& cfg, const FleetModels& models,
                 const FleetApps& apps);
    ~FleetManager();

    FleetManager(const FleetManager&) = delete;
    FleetManager& operator=(const FleetManager&) = delete;

    /** Runs the fleet to completion. Call exactly once. */
    FleetResult Run();

  private:
    struct Shard;

    FleetConfig cfg_;
    std::vector<ShardSpec> specs_;
    std::vector<std::unique_ptr<Shard>> shards_;
    /** Per app kind (0 = hotel, 1 = social): the trained model and
     *  its clones, slot b used only by phase-B block b. */
    std::array<const HybridModel*, 2> sources_;
    std::array<std::vector<std::unique_ptr<HybridModel>>, 2> clones_;
    bool ran_ = false;
};

/** Convenience wrapper: construct a FleetManager and run it. */
FleetResult RunFleet(const FleetConfig& cfg, const FleetModels& models,
                     const FleetApps& apps);

} // namespace sinan

#endif // SINAN_FLEET_FLEET_H
