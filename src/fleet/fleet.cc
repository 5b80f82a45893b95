#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "baselines/autoscale.h"
#include "baselines/powerchief.h"
#include "common/check.h"
#include "common/parse.h"
#include "common/thread_pool.h"
#include "core/scheduler.h"

namespace sinan {
namespace {

/** Keep-current-allocation manager (the "hold" baseline). */
class HoldManager : public ResourceManager {
  public:
    std::vector<double>
    Decide(const IntervalObservation&, const std::vector<double>& alloc,
           const Application&) override
    {
        return alloc;
    }
    const char* Name() const override { return "Hold"; }
};

/** splitmix64 finalizer: decorrelates per-shard seeds derived from the
 *  fleet seed so neighbouring shards do not share arrival streams. */
uint64_t
MixSeed(uint64_t fleet_seed, int index)
{
    uint64_t z = fleet_seed ^
                 (0x9e3779b97f4a7c15ULL *
                  (static_cast<uint64_t>(index) + 1));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    return z == 0 ? 1 : z;
}

bool
KnownApp(const std::string& app)
{
    return app == "hotel" || app == "social";
}

/**
 * Per-app default load when the fleet config leaves users unset,
 * staggered ±20% by shard index so a default fleet exercises distinct
 * operating points rather than N copies of one cluster.
 */
double
DefaultUsers(const std::string& app, int index)
{
    const double base = app == "hotel" ? 2000.0 : 250.0;
    const double stagger[] = {1.0, 0.8, 1.2, 0.9, 1.1};
    return base * stagger[index % 5];
}

[[noreturn]] void
BadOverride(const std::string& what, const std::string& text)
{
    throw std::invalid_argument("ParseShardOverride: " + what + " in '" +
                                text + "'");
}

/** An integer override value through the strict parser
 *  (common/parse.h), named @p what in the error. */
template <typename T>
T
OverrideInteger(const std::string& value, const std::string& what,
                const std::string& text)
{
    T v{};
    const ParseStatus s = ParseNumber(value, &v);
    if (s == ParseStatus::kOutOfRange)
        BadOverride(what + " '" + value + "' out of range", text);
    if (s != ParseStatus::kOk)
        BadOverride("bad " + what + " '" + value + "'", text);
    return v;
}

/** Nearest-rank percentile of an unsorted sample (q in [0,1]). */
double
Percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = q * static_cast<double>(xs.size());
    int64_t idx = static_cast<int64_t>(std::ceil(rank)) - 1;
    idx = std::min<int64_t>(std::max<int64_t>(idx, 0),
                            static_cast<int64_t>(xs.size()) - 1);
    return xs[static_cast<size_t>(idx)];
}

/** The injected application for shard-app @p app. Null is a contract
 *  violation: the caller configured a shard it supplied no app for. */
const Application&
AppForKind(const FleetApps& apps, const std::string& app)
{
    const Application* a = app == "hotel" ? apps.hotel : apps.social;
    SINAN_CHECK_MSG(a != nullptr,
                    "fleet: FleetApps is missing the application for "
                    "a configured shard");
    return *a;
}

} // namespace

ShardOverride
ParseShardOverride(const std::string& text)
{
    ShardOverride ov;
    const size_t colon = text.find(':');
    if (colon == std::string::npos)
        BadOverride("expected 'INDEX:key=val[,...]'", text);
    const std::string idx = text.substr(0, colon);
    const uint64_t index =
        OverrideInteger<uint64_t>(idx, "shard index", text);
    if (index > static_cast<uint64_t>(std::numeric_limits<int>::max()))
        BadOverride("shard index '" + idx + "' out of range", text);
    ov.index = static_cast<int>(index);

    std::string rest = text.substr(colon + 1);
    if (rest.empty())
        BadOverride("expected at least one key=val", text);
    while (!rest.empty()) {
        const size_t eq = rest.find('=');
        if (eq == std::string::npos || eq == 0)
            BadOverride("expected key=val, got '" + rest + "'", text);
        const std::string key = rest.substr(0, eq);
        if (key == "faults") {
            // Fault specs embed ',' and ';', so faults= swallows the
            // rest of the override (documented: must come last).
            ov.faults = rest.substr(eq + 1);
            ov.faults_set = true;
            break;
        }
        const size_t comma = rest.find(',', eq + 1);
        const std::string value =
            comma == std::string::npos
                ? rest.substr(eq + 1)
                : rest.substr(eq + 1, comma - eq - 1);
        if (key == "app") {
            if (!KnownApp(value))
                BadOverride("unknown app '" + value + "'", text);
            ov.app = value;
        } else if (key == "manager") {
            if (!KnownManager(value))
                BadOverride("unknown manager '" + value + "'", text);
            ov.manager = value;
        } else if (key == "users") {
            if (ParseNumber(value, &ov.users) != ParseStatus::kOk)
                BadOverride("bad number '" + value + "'", text);
            if (ov.users <= 0.0)
                BadOverride("users must be > 0", text);
        } else if (key == "seed") {
            ov.seed = OverrideInteger<uint64_t>(value, "seed", text);
            if (ov.seed == 0)
                BadOverride("seed must be > 0", text);
        } else {
            BadOverride("unknown key '" + key + "'", text);
        }
        rest = comma == std::string::npos ? std::string()
                                          : rest.substr(comma + 1);
        if (comma != std::string::npos && rest.empty())
            BadOverride("trailing ','", text);
    }
    return ov;
}

std::vector<ShardSpec>
ResolveFleetShards(const FleetConfig& cfg, const FleetApps& apps)
{
    if (cfg.n_clusters < 1)
        throw std::invalid_argument(
            "ResolveFleetShards: --fleet must be >= 1");
    if (!cfg.default_app.empty() && !KnownApp(cfg.default_app))
        throw std::invalid_argument(
            "ResolveFleetShards: unknown app '" + cfg.default_app + "'");
    if (!KnownManager(cfg.default_manager))
        throw std::invalid_argument(
            "ResolveFleetShards: unknown manager '" +
            cfg.default_manager + "'");
    if (cfg.default_users < 0.0)
        throw std::invalid_argument(
            "ResolveFleetShards: users must be > 0");

    std::vector<const ShardOverride*> by_index(
        static_cast<size_t>(cfg.n_clusters), nullptr);
    std::set<int> seen;
    for (const ShardOverride& ov : cfg.overrides) {
        if (ov.index < 0 || ov.index >= cfg.n_clusters)
            throw std::invalid_argument(
                "ResolveFleetShards: --fleet-shard index " +
                std::to_string(ov.index) + " outside fleet of " +
                std::to_string(cfg.n_clusters));
        if (!seen.insert(ov.index).second)
            throw std::invalid_argument(
                "ResolveFleetShards: duplicate --fleet-shard index " +
                std::to_string(ov.index));
        by_index[static_cast<size_t>(ov.index)] = &ov;
    }

    std::vector<ShardSpec> specs;
    specs.reserve(static_cast<size_t>(cfg.n_clusters));
    for (int i = 0; i < cfg.n_clusters; ++i) {
        const ShardOverride* ov = by_index[static_cast<size_t>(i)];
        ShardSpec s;
        s.index = i;
        s.app = cfg.default_app.empty()
                    ? (i % 2 == 0 ? "social" : "hotel")
                    : cfg.default_app;
        if (ov && !ov->app.empty())
            s.app = ov->app;
        s.manager = cfg.default_manager;
        if (ov && !ov->manager.empty())
            s.manager = ov->manager;
        s.users = ov && ov->users > 0.0
                      ? ov->users
                      : (cfg.default_users > 0.0 ? cfg.default_users
                                                 : DefaultUsers(s.app, i));
        s.seed = ov && ov->seed != 0 ? ov->seed : MixSeed(cfg.seed, i);
        if (ov && ov->faults_set)
            s.faults = ov->faults;
        // Surface bad fault specs at resolve time, not mid-run: parse
        // and validate against the target app's tier count.
        if (!s.faults.empty()) {
            const FaultSchedule schedule = ParseFaultSpec(s.faults);
            ValidateFaultSchedule(
                schedule,
                static_cast<int>(AppForKind(apps, s.app).tiers.size()));
        }
        specs.push_back(std::move(s));
    }
    return specs;
}

bool
KnownManager(const std::string& manager)
{
    return manager == "sinan" || manager == "opt" || manager == "cons" ||
           manager == "powerchief" || manager == "hold";
}

std::unique_ptr<ResourceManager>
MakeBaselineManager(const std::string& name)
{
    if (name == "opt")
        return std::make_unique<AutoScaler>(MakeAutoScaleOpt());
    if (name == "cons")
        return std::make_unique<AutoScaler>(MakeAutoScaleCons());
    if (name == "powerchief")
        return std::make_unique<PowerChief>();
    if (name == "hold")
        return std::make_unique<HoldManager>();
    throw std::invalid_argument(
        "MakeBaselineManager: unknown manager '" + name + "'");
}

/** One cluster of the fleet: the full per-shard simulation state. */
struct FleetManager::Shard {
    /** The shard's application in the caller's FleetApps, which
     *  outlives the fleet; shards of one kind share it. */
    const Application* app = nullptr;
    std::unique_ptr<ConstantLoad> load;
    std::unique_ptr<ResourceManager> manager;
    /** Set iff the manager is a SinanScheduler (for model rebinding). */
    SinanScheduler* sinan = nullptr;
    /** 0 = hotel, 1 = social (index into clones_). */
    size_t kind = 0;
    FaultSchedule faults;
    std::unique_ptr<ManagedRun> run;
};

FleetManager::FleetManager(const FleetConfig& cfg,
                           const FleetModels& models,
                           const FleetApps& apps)
    : cfg_(cfg), specs_(ResolveFleetShards(cfg, apps)),
      sources_{models.hotel, models.social}
{
    // Slot 0 of each kind in use is cloned now: it anchors the
    // kind's schedulers until their first decision.
    for (const ShardSpec& spec : specs_) {
        const size_t kind = spec.app == "hotel" ? 0 : 1;
        if (spec.manager != "sinan" || !clones_[kind].empty())
            continue;
        SINAN_CHECK_MSG(sources_[kind] != nullptr,
                        "FleetManager: sinan-managed shard has no "
                        "trained model for its app");
        clones_[kind].push_back(sources_[kind]->Clone());
    }

    shards_.reserve(specs_.size());
    for (const ShardSpec& spec : specs_) {
        auto shard = std::make_unique<Shard>();
        shard->app = &AppForKind(apps, spec.app);
        shard->kind = spec.app == "hotel" ? 0 : 1;
        shard->load = std::make_unique<ConstantLoad>(spec.users);
        if (!spec.faults.empty())
            shard->faults = ParseFaultSpec(spec.faults);
        if (spec.manager == "sinan") {
            // Anchor binding only — every Decide() rebinds to its
            // block's clone (see Run), so no model is shared mid-call.
            auto sinan = std::make_unique<SinanScheduler>(
                *clones_[shard->kind].front(),
                cfg_.scheduler);
            shard->sinan = sinan.get();
            shard->manager = std::move(sinan);
        } else {
            shard->manager = MakeBaselineManager(spec.manager);
        }

        RunConfig rc;
        rc.duration_s = cfg_.duration_s;
        rc.warmup_s = cfg_.warmup_s;
        rc.sim = cfg_.sim;
        rc.cluster = cfg_.cluster;
        rc.bursts = cfg_.bursts;
        rc.faults = shard->faults;
        rc.seed = spec.seed;
        shard->run = std::make_unique<ManagedRun>(
            *shard->app, *shard->manager, *shard->load, rc);
        shards_.push_back(std::move(shard));
    }
}

FleetManager::~FleetManager() = default;

FleetResult
FleetManager::Run()
{
    SINAN_CHECK_MSG(!ran_, "FleetManager: Run called twice");
    ran_ = true;

    FleetResult out;
    out.threads = NumThreads();
    const int64_t n = static_cast<int64_t>(shards_.size());
    const int64_t total =
        shards_.empty() ? 0 : shards_.front()->run->TotalIntervals();
    for (const std::unique_ptr<Shard>& shard : shards_)
        SINAN_CHECK_MSG(shard->run->TotalIntervals() == total,
                        "FleetManager: shards disagree on interval "
                        "count");

    // Phase B runs one block per thread; block b owns clone slot b of
    // each kind, cloned on first use. Sized here, so nothing grows
    // while the blocks run.
    const int64_t blocks = std::min<int64_t>(n, NumThreads());
    for (std::vector<std::unique_ptr<HybridModel>>& slots : clones_)
        if (!slots.empty())
            slots.resize(static_cast<size_t>(blocks));

    const auto wall_start = std::chrono::steady_clock::now();
    out.decide_ms.reserve(static_cast<size_t>(total));
    out.timeline.reserve(static_cast<size_t>(total));
    for (int64_t interval = 0; interval < total; ++interval) {
        // Phase A: every shard advances one interval concurrently
        // (simulation ticks + harvest + telemetry fault filtering).
        ParallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {
            for (int64_t k = lo; k < hi; ++k)
                shards_[static_cast<size_t>(k)]->run->AdvanceInterval();
        });

        // Phase B: centralized batched decisions. Each block pulls
        // shards off one cursor and binds its Sinan shards to its own
        // clone: clones are weight-identical and Evaluate() depends
        // only on weights and inputs, so the assignment never changes
        // a decision.
        const auto decide_start = std::chrono::steady_clock::now();
        std::atomic<int64_t> next_shard{0};
        // Grain 1: each ParallelFor block is [block, block + 1). Keep
        // to two captures: they fit std::function's inline buffer,
        // while a third heap-allocates every interval and shifts the
        // simulator's heap layout (peak RSS +0.1 MB on chaos-32).
        ParallelFor(0, blocks, 1, [this, &next_shard](int64_t block,
                                                      int64_t) {
            const int64_t n_shards = static_cast<int64_t>(shards_.size());
            for (int64_t k = next_shard.fetch_add(1); k < n_shards;
                 k = next_shard.fetch_add(1)) {
                Shard& shard = *shards_[static_cast<size_t>(k)];
                if (shard.sinan != nullptr) {
                    std::unique_ptr<HybridModel>& clone =
                        clones_[shard.kind][static_cast<size_t>(block)];
                    if (!clone)
                        clone = sources_[shard.kind]->Clone();
                    shard.sinan->RebindModel(*clone);
                }
                shard.run->DecideAndApply();
            }
        });
        out.decide_ms.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - decide_start)
                .count());

        // Deterministic rollup: fixed shard order, calling thread.
        FleetIntervalRecord fir;
        fir.interval = interval;
        for (int64_t k = 0; k < n; ++k) {
            const Shard& shard = *shards_[static_cast<size_t>(k)];
            const IntervalRecord& rec = shard.run->LastRecord();
            fir.time_s = rec.time_s;
            if (rec.p99_ms > shard.app->qos_ms)
                ++fir.violations;
            fir.worst_p99_frac = std::max(
                fir.worst_p99_frac, rec.p99_ms / shard.app->qos_ms);
            fir.total_cpu += rec.total_cpu;
            fir.total_rps += rec.rps;
        }
        out.timeline.push_back(fir);
    }
    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
    if (out.wall_s > 0.0)
        out.shard_intervals_per_s =
            static_cast<double>(n * total) / out.wall_s;

    // Per-cluster results and fleet aggregates, fixed shard order.
    out.clusters.reserve(shards_.size());
    uint64_t met = 0;
    for (size_t k = 0; k < shards_.size(); ++k) {
        Shard& shard = *shards_[k];
        FleetClusterResult cluster;
        cluster.spec = specs_[k];
        cluster.app_name = shard.app->name;
        cluster.qos_ms = shard.app->qos_ms;
        cluster.result = shard.run->Finish();
        if (!shard.faults.Empty()) {
            const double fault_end_s =
                static_cast<double>(shard.faults.EndInterval()) *
                cfg_.sim.interval_s;
            cluster.recovery_intervals = RecoveryIntervals(
                cluster.result, fault_end_s, shard.app->qos_ms);
        }
        for (const IntervalRecord& rec : cluster.result.timeline) {
            if (rec.time_s <= cfg_.warmup_s)
                continue;
            ++out.measured_cluster_intervals;
            if (rec.p99_ms <= shard.app->qos_ms)
                ++met;
            else
                ++out.violation_cluster_intervals;
        }
        out.clusters.push_back(std::move(cluster));
    }
    if (out.measured_cluster_intervals > 0)
        out.qos_meet_prob =
            static_cast<double>(met) /
            static_cast<double>(out.measured_cluster_intervals);

    size_t measured_intervals = 0;
    for (const FleetIntervalRecord& fir : out.timeline) {
        if (fir.time_s <= cfg_.warmup_s)
            continue;
        ++measured_intervals;
        out.mean_total_cpu += fir.total_cpu;
        out.max_total_cpu = std::max(out.max_total_cpu, fir.total_cpu);
    }
    if (measured_intervals > 0)
        out.mean_total_cpu /= static_cast<double>(measured_intervals);

    if (!out.decide_ms.empty()) {
        double acc = 0.0;
        for (const double ms : out.decide_ms) {
            acc += ms;
            out.decide.max_ms = std::max(out.decide.max_ms, ms);
        }
        out.decide.mean_ms =
            acc / static_cast<double>(out.decide_ms.size());
        out.decide.p50_ms = Percentile(out.decide_ms, 0.50);
        out.decide.p95_ms = Percentile(out.decide_ms, 0.95);
        out.decide.p99_ms = Percentile(out.decide_ms, 0.99);
    }
    for (const std::vector<std::unique_ptr<HybridModel>>& slots : clones_)
        for (const std::unique_ptr<HybridModel>& clone : slots)
            out.model_clones += clone != nullptr;
    return out;
}

FleetResult
RunFleet(const FleetConfig& cfg, const FleetModels& models,
         const FleetApps& apps)
{
    FleetManager fleet(cfg, models, apps);
    return fleet.Run();
}

} // namespace sinan
