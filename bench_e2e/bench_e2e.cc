/**
 * @file
 * End-to-end benchmark: four named workloads, each a FleetConfig that
 * is generated from --seed and run through the public FleetManager, so
 * one code path serves 1 to 100 clusters.
 *
 *   bench_e2e --workload W [--seed S] [--seconds T] [--trace 0|1]
 *             [--trace-dir DIR] [--intervals N]
 *
 * Untraced (--trace 0): repeats set-up plus FleetManager::Run() on one
 * thread until --seconds have passed and reports the median of every
 * end-to-end metric over the repetitions. All repetitions must produce
 * the same fleet trace bytes. Times are in reference seconds: each
 * repetition is followed by a fixed calibration kernel, and its times
 * are scaled by how much slower or faster than the reference host that
 * kernel ran (see CalibrationSeconds).
 *
 * Traced (--trace 1): runs the fleet untraced at the workload's
 * reference thread count and on one thread, then steps the workload's
 * ManagedRuns itself on one thread, in the fleet's per-shard order,
 * timing calls into each layer's public functions from outside the
 * library: AdvanceInterval, DecideAndApply, ResourceManager::Decide (a
 * forwarding proxy) and HybridModel::Evaluate (a subclass that calls
 * EvaluateTimed). The traced per-cluster timelines must equal the
 * untraced fleet's exactly, which proves that the proxies change no
 * decision and that the fleet is thread-count invariant. Spans go to a
 * Chrome trace-event file.
 *
 * Host-time load model: a closed loop, since each decision interval
 * starts when the previous one finished. Inside the simulator, traffic
 * is open-loop Poisson (src/workload).
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics. attempted counts stepped
 * shard-intervals; failed counts those whose record is not a valid
 * outcome (non-finite latency, allocation outside the tier bounds).
 * Exit codes: 0 ok, 1 correctness gate failed, 2 bad usage or a
 * missing, corrupt or uncalibrated bundled model.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fleet/fleet.h"
#include "fleet/fleet_log.h"

namespace sinan {
namespace {

/** Thread-pool cap of the parallel workloads' reference fleet. */
constexpr int kMaxThreads = 4;
/** A chaos shard repeats its scenario with this period (intervals). */
constexpr int64_t kChaosPeriod = 30;
/** Untimed repetitions run for this long before measuring. */
constexpr double kWarmupSeconds = 1.0;

struct Workload {
    const char* name;
    /** Decision intervals per repetition: 1.5-3 s on one thread of a
     *  4-vCPU 2.1 GHz Xeon VM, so a run's median covers several
     *  repetitions. */
    int64_t intervals;
    /** The traced run's reference fleet uses min(kMaxThreads, nproc)
     *  threads when true, else one. Timed runs always use one thread:
     *  on a few vCPUs of a shared host, 4-thread throughput spread
     *  12-19 % from run to run against 2-7 % on one thread. */
    bool parallel;
};

// Why each workload exists is recorded in README.md; in short:
// social-solo is Decide-heavy with the fleet and pool bypassed,
// hotel-cons-32 is simulator-only (the model is never called),
// mixed-100 is the paper-scale fleet, and chaos-32 drives the
// uncertain, degraded and watchdog decision paths.
const Workload kWorkloads[] = {
    {"social-solo", 7200, false},
    {"hotel-cons-32", 40, false},
    {"mixed-100", 24, true},
    {"chaos-32", 90, true},
};

struct Options {
    const Workload* workload = nullptr;
    uint64_t seed = 7;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_dir = ".";
    /** 0 = the workload's own horizon. */
    int64_t intervals = 0;
};

class UsageError : public std::runtime_error {
    using std::runtime_error::runtime_error;
};

class ModelError : public std::runtime_error {
    using std::runtime_error::runtime_error;
};

// ------------------------------------------------------------- inputs

/** ShardOverride reads a zero seed as "inherit", so never draw one. */
uint64_t
NextSeed(Rng& rng)
{
    const uint64_t s = rng.NextU64();
    return s == 0 ? 1 : s;
}

template <typename T>
void
Shuffle(std::vector<T>& xs, Rng& rng)
{
    for (size_t i = xs.size(); i > 1; --i)
        std::swap(xs[i - 1],
                  xs[rng.UniformInt(static_cast<uint64_t>(i))]);
}

/** @p scenario shifted by @p phase and repeated every kChaosPeriod
 *  intervals, keeping the events that start before @p horizon. */
std::string
RepeatedChaos(const ChaosScenario& scenario, int64_t phase,
              int64_t horizon)
{
    const FaultSchedule once = ParseFaultSpec(scenario.spec);
    FaultSchedule out;
    for (int64_t shift = phase;; shift += kChaosPeriod) {
        bool any = false;
        for (FaultEvent e : once.events) {
            e.start += shift;
            if (e.start < horizon) {
                out.events.push_back(e);
                any = true;
            }
        }
        if (!any)
            break;
    }
    return FormatFaultSpec(out);
}

/**
 * The workload's fleet, with every per-shard input drawn from @p seed:
 * the shard seeds, the placement of the users and, on chaos-32, the
 * fault schedules. Users are the fleet's default ±20% stagger shuffled
 * among the shards of each app, and each app's chaos scenarios are
 * dealt from a fixed deck, so the offered load and the fault mix per
 * app are the same for every seed and only placement and arrivals
 * change. This keeps seed-to-seed spread of the metrics small.
 */
FleetConfig
MakeConfig(const Workload& w, uint64_t seed, int64_t intervals,
           const FleetApps& apps)
{
    const std::string name = w.name;
    FleetConfig cfg;
    cfg.duration_s = static_cast<double>(intervals) * cfg.sim.interval_s;
    cfg.seed = seed;
    if (name == "social-solo") {
        cfg.default_app = "social";
        cfg.default_users = 150.0;
    } else if (name == "hotel-cons-32") {
        cfg.n_clusters = 32;
        cfg.default_app = "hotel";
        cfg.default_manager = "cons";
    } else if (name == "mixed-100") {
        cfg.n_clusters = 100;
    } else {
        cfg.n_clusters = 32;
        cfg.scheduler.uncertainty.enabled = true;
    }

    Rng rng(seed);
    const std::vector<ShardSpec> defaults = ResolveFleetShards(cfg, apps);
    std::vector<ShardOverride> ovs(defaults.size());
    for (size_t i = 0; i < ovs.size(); ++i) {
        ovs[i].index = static_cast<int>(i);
        ovs[i].seed = NextSeed(rng);
    }
    const std::vector<ChaosScenario>& scenarios = ChaosScenarios();
    for (const char* app : {"hotel", "social"}) {
        std::vector<size_t> idx;
        std::vector<double> users;
        for (size_t i = 0; i < defaults.size(); ++i) {
            if (defaults[i].app == app) {
                idx.push_back(i);
                users.push_back(defaults[i].users);
            }
        }
        Shuffle(users, rng);
        for (size_t k = 0; k < idx.size(); ++k)
            ovs[idx[k]].users = users[k];
        if (name != "chaos-32")
            continue;
        std::vector<size_t> deck(idx.size());
        for (size_t k = 0; k < deck.size(); ++k)
            deck[k] = k % scenarios.size();
        Shuffle(deck, rng);
        for (size_t k = 0; k < idx.size(); ++k) {
            ShardOverride& ov = ovs[idx[k]];
            const int64_t phase = rng.UniformInt(int64_t{0}, int64_t{9});
            ov.faults = RepeatedChaos(scenarios[deck[k]], phase, intervals);
            ov.faults_set = !ov.faults.empty();
        }
    }
    if (name == "mixed-100") {
        // bench_fleet_scale's mix: one baseline and one faulted shard
        // in every 16.
        for (size_t k = 5; k < ovs.size(); k += 16)
            ovs[k].manager = "cons";
        for (size_t k = 12; k < ovs.size(); k += 16) {
            ovs[k].faults_set = true;
            ovs[k].faults = "stall@4+2:tier=1;drop@8";
        }
    }
    cfg.overrides = std::move(ovs);
    return cfg;
}

// ------------------------------------------------------------- models

uint64_t
Fnv1a(const std::string& bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
Hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
ModelPath(const std::string& key)
{
    return "bench_cache/" + key + ".model";
}

std::string
ReadModelFile(const std::string& key)
{
    const std::string path = ModelPath(key);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ModelError(path + " not found (run from the repository "
                                "root; bench_e2e never retrains, since "
                                "that would put minutes into setup_s)");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Loads a bundled model as bench::GetTrainedSinan does on a cache
 *  hit, but fails instead of retraining. */
std::unique_ptr<HybridModel>
LoadModel(const Application& app, const PipelineConfig& pcfg,
          const std::string& key)
{
    FeatureConfig features;
    features.n_tiers = static_cast<int>(app.tiers.size());
    features.history = pcfg.history;
    features.violation_lookahead = pcfg.violation_lookahead;
    features.qos_ms = app.qos_ms;
    auto model = std::make_unique<HybridModel>(features, pcfg.hybrid,
                                               pcfg.seed ^ 0xcafe);
    std::istringstream in(ReadModelFile(key));
    try {
        model->Load(in);
    } catch (const std::exception& e) {
        throw ModelError(ModelPath(key) + " is corrupt: " + e.what());
    }
    if (!model->Int8Calibrated())
        throw ModelError(ModelPath(key) + " lacks int8 calibration; "
                                          "regenerate it with a bench "
                                          "binary");
    return model;
}

/** The applications and bundled models: the benchmark's set-up. */
struct Deployment {
    Application hotel = BuildHotelReservation();
    Application social = BuildSocialNetwork();
    std::unique_ptr<HybridModel> hotel_model =
        LoadModel(hotel, bench::HotelPipeline(), "hotel");
    std::unique_ptr<HybridModel> social_model =
        LoadModel(social, bench::SocialPipeline(), "social");

    FleetApps Apps() const { return {&hotel, &social}; }
    FleetModels
    Models() const
    {
        return {hotel_model.get(), social_model.get()};
    }
};

// ------------------------------------------------------------- checks

bool
ValidRecord(const IntervalRecord& rec, const Application& app)
{
    if (!std::isfinite(rec.p99_ms) || rec.p99_ms < 0.0 ||
        !std::isfinite(rec.total_cpu) || rec.total_cpu <= 0.0 ||
        rec.alloc.size() != app.tiers.size())
        return false;
    for (size_t i = 0; i < rec.alloc.size(); ++i) {
        if (!(rec.alloc[i] >= app.tiers[i].min_cpu - 1e-9 &&
              rec.alloc[i] <= app.tiers[i].max_cpu + 1e-9))
            return false;
    }
    return true;
}

const Application&
AppOf(const FleetApps& apps, const ShardSpec& spec)
{
    return spec.app == "hotel" ? *apps.hotel : *apps.social;
}

uint64_t
InvalidRecords(const std::vector<IntervalRecord>& timeline,
               const Application& app)
{
    uint64_t bad = 0;
    for (const IntervalRecord& rec : timeline)
        bad += ValidRecord(rec, app) ? 0 : 1;
    return bad;
}

/** Shard-intervals of a fleet run whose record is not a valid outcome. */
uint64_t
InvalidRecords(const FleetResult& r, const FleetApps& apps)
{
    uint64_t bad = 0;
    for (const FleetClusterResult& c : r.clusters)
        bad += InvalidRecords(c.result.timeline, AppOf(apps, c.spec));
    return bad;
}

/** Bitwise equality, so that equal NaNs match. */
bool
Same(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
SameTimeline(const std::vector<IntervalRecord>& a,
             const std::vector<IntervalRecord>& b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const IntervalRecord& x = a[i];
        const IntervalRecord& y = b[i];
        if (!Same(x.time_s, y.time_s) || !Same(x.rps, y.rps) ||
            !Same(x.p99_ms, y.p99_ms) || !Same(x.total_cpu, y.total_cpu) ||
            !Same(x.predicted_p99_ms, y.predicted_p99_ms) ||
            !Same(x.predicted_violation, y.predicted_violation) ||
            x.alloc.size() != y.alloc.size())
            return false;
        for (size_t t = 0; t < x.alloc.size(); ++t)
            if (!Same(x.alloc[t], y.alloc[t]))
                return false;
    }
    return true;
}

// ------------------------------------------------------------- stats

double
Median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Nearest-rank percentile, as the fleet computes its own. */
double
Percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(q * static_cast<double>(xs.size()));
    const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
    return xs[std::min(idx, xs.size() - 1)];
}

double
Sum(const std::vector<double>& xs)
{
    double acc = 0.0;
    for (const double x : xs)
        acc += x;
    return acc;
}

double
Mean(const std::vector<double>& xs)
{
    return xs.empty() ? 0.0 : Sum(xs) / static_cast<double>(xs.size());
}

double
Ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
PeakRssMb()
{
    struct rusage ru {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        throw std::runtime_error("getrusage failed");
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------- output

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Prints the metric table and the final JSON line. */
void
Report(bool correct, uint64_t attempted, uint64_t failed,
       const std::vector<Metric>& metrics)
{
    for (const Metric& m : metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

// ---------------------------------------------------------- calibration

/** Median time of one CalibrationSeconds() pass (over 345 passes) on
 *  the 4-vCPU 2.1 GHz Xeon VM the committed baselines were recorded on:
 *  the reference host whose seconds the end-to-end times are given in. */
constexpr double kCalibrationRefS = 0.0425;

/** Keeps the calibration kernel's result alive. */
volatile uint64_t calibration_sink = 0;

/**
 * Times one pass of a fixed kernel shaped like the simulator's hot
 * loop: a binary heap of 20k pending events with exponential gaps, each
 * event reading and updating a random slot of a 4 MB table. Everything
 * it runs is compiled from this file (not even the library's Rng), so
 * no change to the library moves it; only the host's speed does.
 *
 * On a shared 4-vCPU 2.1 GHz Xeon VM, host speed drifted by up to 1.7x
 * over minutes, in CPU time as much as in wall time, and more slowly
 * than one run, so no run length or median removes it. Scaling each
 * repetition by the kernel timed right after it does: over 10 runs of
 * 20 s, it cut the spread of the one-thread throughput from 8.7 % to
 * 1.9 % on mixed-100 and from 8.2 % to 1.4 % on chaos-32.
 */
double
CalibrationSeconds()
{
    std::vector<uint64_t> table(size_t{1} << 19, 1);
    uint64_t x = 0x243f6a8885a308d3ULL;
    auto uniform = [&x] {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    };
    using Event = std::pair<double, uint32_t>;
    std::vector<Event> pending;
    pending.reserve(20000);
    for (uint32_t i = 0; i < 20000; ++i)
        pending.emplace_back(uniform(), i);
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events(
        std::greater<>(), std::move(pending));

    bench::Stopwatch watch;
    uint64_t acc = 0;
    for (uint64_t i = 0; i < 300000; ++i) {
        const Event e = events.top();
        events.pop();
        events.emplace(e.first - std::log(uniform() + 1e-12), e.second);
        uint64_t& slot = table[(e.second * 2654435761ULL + i) % table.size()];
        acc += slot;
        slot = acc + e.second;
    }
    const double seconds = watch.Seconds();
    calibration_sink = acc;
    return seconds;
}

// ------------------------------------------------------------- untraced

/** One set-up plus Run() of the fleet. */
struct FleetRep {
    double load_s = 0.0;
    double construct_s = 0.0;
    FleetResult result;
    uint64_t digest = 0;
};

FleetRep
RunFleetOnce(const FleetConfig& cfg)
{
    FleetRep rep;
    bench::Stopwatch watch;
    const Deployment dep;
    rep.load_s = watch.Seconds();
    watch.Restart();
    FleetManager fleet(cfg, dep.Models(), dep.Apps());
    rep.construct_s = watch.Seconds();
    rep.result = fleet.Run();
    rep.digest = Fnv1a(FleetTraceToCsv(rep.result));
    return rep;
}

int
RunUntraced(const Options& opt, const FleetConfig& cfg,
            const FleetApps& apps)
{
    std::vector<double> rate, setup;
    double qos = 0.0, cpu = 0.0;
    uint64_t digest = 0, attempted = 0, failed = 0;
    int64_t reps = 0;
    bool consistent = true;
    auto check = [&](const FleetRep& rep) {
        const FleetResult& r = rep.result;
        const double rep_cpu =
            r.mean_total_cpu / static_cast<double>(cfg.n_clusters);
        if (reps++ == 0) {
            qos = r.qos_meet_prob;
            cpu = rep_cpu;
            digest = rep.digest;
        } else {
            consistent = consistent && rep.digest == digest &&
                         Same(r.qos_meet_prob, qos) && Same(rep_cpu, cpu);
        }
        attempted += static_cast<uint64_t>(cfg.n_clusters) *
                     static_cast<uint64_t>(r.timeline.size());
        failed += InvalidRecords(r, apps);
    };

    // Repetitions in the first kWarmupSeconds are checked, not timed: on
    // an idle machine they measure the host ramping up, not the program.
    bench::Stopwatch budget;
    while (budget.Seconds() < kWarmupSeconds)
        check(RunFleetOnce(cfg));
    // Taken before the first calibration pass, whose 4 MB table the
    // allocator may keep and which is not the program's memory.
    const double peak_rss_mb = PeakRssMb();
    budget.Restart();
    do {
        const FleetRep rep = RunFleetOnce(cfg);
        const FleetResult& r = rep.result;
        check(rep);
        // Above 1 when the host runs slower than the reference host.
        const double slowdown = CalibrationSeconds() / kCalibrationRefS;
        const double rep_setup = rep.load_s + rep.construct_s;
        rate.push_back(r.shard_intervals_per_s * slowdown);
        setup.push_back(rep_setup / slowdown);
        std::printf("rep %zu: %.1f shard-intervals/s, setup %.4f s, host "
                    "slowdown %.3f -> %.1f shard-intervals/ref-s, setup "
                    "%.4f ref-s; decide p50 %.4f ms, sim_digest %s\n",
                    rate.size(), r.shard_intervals_per_s, rep_setup,
                    slowdown, rate.back(), setup.back(), r.decide.p50_ms,
                    Hex(rep.digest).c_str());
    } while (budget.Seconds() < opt.seconds);

    std::printf("sim_digest %s\n", Hex(digest).c_str());
    if (!consistent)
        std::printf("FAIL: repetitions of one seed disagree\n");
    // Decision latency is a per-layer metric (fleet.phase_b_ms_p50): on
    // hotel-cons-32 it is a ~30 us memory-bound batch whose run-to-run
    // spread on a shared host (12-28 %) exceeds any usable bound.
    Report(consistent, attempted, failed,
           {{"shard_intervals_per_ref_s", Median(rate), "1/s"},
            {"qos_meet_prob", qos, "fraction"},
            {"mean_cpu_cores", cpu, "cores"},
            {"setup_s", Median(setup), "s"},
            {"peak_rss_mb", peak_rss_mb, "MB"}});
    return consistent ? 0 : 1;
}

// ------------------------------------------------------------- traced

/** A timed call into a layer; times in µs since the log started. */
struct Span {
    const char* name = "";
    /** Enclosing span's index, or -1. */
    int parent = -1;
    /** Shard index, or -1 for the fleet-wide interval span. */
    int shard = -1;
    /** Shard-interval id (interval * shards + shard), or the interval
     *  for the fleet-wide span. */
    int64_t id = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
};

/** In-memory span log; spans nest under the innermost open span. */
class SpanLog {
  public:
    double NowUs() const { return clock_.Seconds() * 1e6; }

    void
    SetContext(int shard, int64_t id)
    {
        shard_ = shard;
        id_ = id;
    }

    int
    Open(const char* name)
    {
        const int idx = static_cast<int>(spans_.size());
        spans_.push_back(
            {name, open_.empty() ? -1 : open_.back(), shard_, id_,
             NowUs(), 0.0});
        open_.push_back(idx);
        return idx;
    }

    void
    Close(int idx)
    {
        Span& s = spans_[static_cast<size_t>(idx)];
        s.dur_us = NowUs() - s.start_us;
        open_.pop_back();
    }

    /** Adds an already-measured child of @p parent. */
    void
    AddClosed(const char* name, int parent, double start_us, double dur_us)
    {
        spans_.push_back({name, parent, shard_, id_, start_us, dur_us});
    }

    const std::vector<Span>& Spans() const { return spans_; }

  private:
    bench::Stopwatch clock_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    int shard_ = -1;
    int64_t id_ = 0;
};

class ScopedSpan {
  public:
    ScopedSpan(SpanLog& log, const char* name)
        : log_(log), idx_(log.Open(name))
    {
    }
    ~ScopedSpan() { log_.Close(idx_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int Index() const { return idx_; }

  private:
    SpanLog& log_;
    int idx_;
};

/** Forwarding proxy that records every Decide() as a span. */
class TimedManager : public ResourceManager {
  public:
    TimedManager(std::unique_ptr<ResourceManager> inner, SpanLog& log,
                 const char* span)
        : inner_(std::move(inner)), log_(log), span_(span)
    {
    }

    std::vector<double>
    Decide(const IntervalObservation& obs, const std::vector<double>& alloc,
           const Application& app) override
    {
        const ScopedSpan span(log_, span_);
        return inner_->Decide(obs, alloc, app);
    }

    const char* Name() const override { return inner_->Name(); }
    void Reset() override { inner_->Reset(); }
    double LastPredictedP99() const override
    {
        return inner_->LastPredictedP99();
    }
    double LastViolationProb() const override
    {
        return inner_->LastViolationProb();
    }
    void
    AttachTelemetry(DecisionTrace* trace, MetricsRegistry* metrics) override
    {
        inner_->AttachTelemetry(trace, metrics);
    }

  private:
    std::unique_ptr<ResourceManager> inner_;
    SpanLog& log_;
    const char* span_;
};

/**
 * A copy of a bundled model whose Evaluate goes through the public
 * EvaluateTimed, so decisions are byte-identical. Each call leaves a
 * models.evaluate span whose four stage spans are laid end to end from
 * the call's start: EvaluateTimed reports stage durations only, and
 * runs the stages back to back.
 */
class TimedModel : public HybridModel {
  public:
    TimedModel(const HybridModel& source, SpanLog& log)
        : HybridModel(source), log_(log)
    {
    }
    TimedModel(const TimedModel&) = delete;

    std::vector<Prediction>
    Evaluate(const MetricWindow& window,
             const std::vector<std::vector<double>>& allocations) override
    {
        EvalStageTimes st;
        std::vector<Prediction> out;
        int idx = -1;
        {
            const ScopedSpan span(log_, "models.evaluate");
            out = EvaluateTimed(window, allocations, &st);
            idx = span.Index();
        }
        double at = log_.Spans()[static_cast<size_t>(idx)].start_us;
        const std::pair<const char*, double> stages[] = {
            {"models.feature", st.feature_build_s},
            {"models.trunk", st.trunk_s},
            {"models.head", st.head_s},
            {"models.bt", st.bt_s}};
        for (const auto& [name, s] : stages) {
            log_.AddClosed(name, idx, at, s * 1e6);
            at += s * 1e6;
        }
        ++calls_;
        candidates_ += allocations.size();
        kernel_id_ = st.kernel_id;
        return out;
    }

    uint64_t Calls() const { return calls_; }
    uint64_t Candidates() const { return candidates_; }
    const std::string& KernelId() const { return kernel_id_; }

  private:
    SpanLog& log_;
    uint64_t calls_ = 0;
    uint64_t candidates_ = 0;
    std::string kernel_id_;
};

/** Everything one traced pass leaves behind. */
struct TracedRep {
    SpanLog log;
    double wall_us = 0.0;
    std::vector<RunResult> runs;
    uint64_t evaluate_calls = 0;
    uint64_t candidates = 0;
    std::string kernel_id;
};

/**
 * Steps the fleet's shards serially in FleetManager's order (phase A
 * for every shard, then phase B for every shard), with each shard built
 * as the fleet builds it: ResolveFleetShards, then MakeBaselineManager
 * or a SinanScheduler. Sinan shards of one app share a TimedModel; the
 * fleet's clones are weight-identical, so this changes no decision.
 */
void
RunTraced(const FleetConfig& cfg, const Deployment& dep, TracedRep& out)
{
    SpanLog& log = out.log;
    TimedModel hotel_model(*dep.hotel_model, log);
    TimedModel social_model(*dep.social_model, log);

    struct Shard {
        std::unique_ptr<ConstantLoad> load;
        std::unique_ptr<ResourceManager> manager;
        std::unique_ptr<ManagedRun> run;
    };
    std::vector<Shard> shards;
    for (const ShardSpec& spec : ResolveFleetShards(cfg, dep.Apps())) {
        const bool hotel = spec.app == "hotel";
        Shard s;
        s.load = std::make_unique<ConstantLoad>(spec.users);
        if (spec.manager == "sinan") {
            s.manager = std::make_unique<TimedManager>(
                std::make_unique<SinanScheduler>(
                    hotel ? hotel_model : social_model, cfg.scheduler),
                log, "core.decide");
        } else {
            s.manager = std::make_unique<TimedManager>(
                MakeBaselineManager(spec.manager), log,
                "baselines.decide");
        }
        RunConfig rc;
        rc.duration_s = cfg.duration_s;
        rc.warmup_s = cfg.warmup_s;
        rc.sim = cfg.sim;
        rc.cluster = cfg.cluster;
        rc.bursts = cfg.bursts;
        if (!spec.faults.empty())
            rc.faults = ParseFaultSpec(spec.faults);
        rc.seed = spec.seed;
        s.run = std::make_unique<ManagedRun>(
            hotel ? dep.hotel : dep.social, *s.manager, *s.load, rc);
        shards.push_back(std::move(s));
    }

    const int64_t n = static_cast<int64_t>(shards.size());
    const int64_t total = shards.front().run->TotalIntervals();
    const double start = log.NowUs();
    for (int64_t interval = 0; interval < total; ++interval) {
        log.SetContext(-1, interval);
        const ScopedSpan span(log, "interval");
        for (int64_t k = 0; k < n; ++k) {
            log.SetContext(static_cast<int>(k), interval * n + k);
            const ScopedSpan advance(log, "sim.advance");
            shards[static_cast<size_t>(k)].run->AdvanceInterval();
        }
        for (int64_t k = 0; k < n; ++k) {
            log.SetContext(static_cast<int>(k), interval * n + k);
            const ScopedSpan decide(log, "harness.decide_apply");
            shards[static_cast<size_t>(k)].run->DecideAndApply();
        }
    }
    out.wall_us = log.NowUs() - start;
    for (Shard& s : shards)
        out.runs.push_back(s.run->Finish());
    out.evaluate_calls = hotel_model.Calls() + social_model.Calls();
    out.candidates = hotel_model.Candidates() + social_model.Candidates();
    out.kernel_id = !social_model.KernelId().empty()
                        ? social_model.KernelId()
                        : hotel_model.KernelId();
}

/** Module a span belongs to: its name up to the first '.', with the
 *  fleet-wide interval span standing for the lockstep loop. */
std::string
LayerOf(const std::string& span)
{
    return span == "interval" ? "fleet" : span.substr(0, span.find('.'));
}

/** Per-span self time (duration minus that of direct children), µs. */
std::vector<double>
SelfTimes(const std::vector<Span>& spans)
{
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].dur_us;
    for (const Span& s : spans)
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.dur_us;
    return self;
}

/**
 * The per-layer metrics of one traced pass, in report order. The fleet
 * metrics come from @p fleet, the untraced run at the workload's
 * reference thread count; parallel efficiency and tracing overhead
 * compare against @p serial, an untraced one-thread run made just
 * before, which is also what the end-to-end throughput times, unscaled.
 * @p calibration_s is a CalibrationSeconds() pass made after it.
 */
std::vector<Metric>
LayerMetrics(const TracedRep& rep, const FleetConfig& cfg,
             const FleetRep& fleet, const FleetRep& serial, int threads,
             double calibration_s)
{
    const double serial_wall_s = serial.result.wall_s;
    const std::vector<Span>& spans = rep.log.Spans();
    const std::vector<double> self = SelfTimes(spans);
    std::map<std::string, std::vector<double>> dur_ms, self_ms;
    std::map<std::string, double> layer_self_us;
    double self_total_us = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
        dur_ms[spans[i].name].push_back(spans[i].dur_us * 1e-3);
        self_ms[spans[i].name].push_back(self[i] * 1e-3);
        layer_self_us[LayerOf(spans[i].name)] += self[i];
        self_total_us += self[i];
    }
    const double wall_ms = rep.wall_us * 1e-3;

    double requests = 0.0;
    MetricsRegistry counters;
    for (const RunResult& r : rep.runs) {
        for (const IntervalRecord& rec : r.timeline)
            requests += rec.rps * cfg.sim.interval_s;
        for (const auto& [name, v] : r.metrics.Counters())
            counters.Inc(name, v);
    }
    auto count = [&](const char* what) {
        return static_cast<double>(
            counters.Counter(std::string("sinan.scheduler.") + what));
    };
    const double decisions = count("decisions");
    const double model_decisions = count("model_decisions");
    const double calls = static_cast<double>(rep.evaluate_calls);
    const double cands = static_cast<double>(rep.candidates);
    const FleetResult& fr = fleet.result;
    const double phase_b_ms = Sum(fr.decide_ms);

    return {
        {"sim.advance_ms_mean", Mean(dur_ms["sim.advance"]), "ms"},
        {"sim.advance_ms_p95", Percentile(dur_ms["sim.advance"], 0.95),
         "ms"},
        {"sim.share", Ratio(layer_self_us["sim"] * 1e-3, wall_ms),
         "fraction"},
        {"sim.requests", requests, "count"},
        {"sim.ns_per_request",
         Ratio(Sum(dur_ms["sim.advance"]) * 1e6, requests), "ns"},
        {"harness.apply_ms_mean", Mean(self_ms["harness.decide_apply"]),
         "ms"},
        {"harness.share", Ratio(layer_self_us["harness"] * 1e-3, wall_ms),
         "fraction"},
        {"core.decide_ms_mean", Mean(dur_ms["core.decide"]), "ms"},
        {"core.decide_ms_p95", Percentile(dur_ms["core.decide"], 0.95),
         "ms"},
        {"core.self_ms_mean", Mean(self_ms["core.decide"]), "ms"},
        {"core.share", Ratio(layer_self_us["core"] * 1e-3, wall_ms),
         "fraction"},
        {"core.candidates_per_decision",
         Ratio(count("candidates"), decisions), "count"},
        {"core.decisions", decisions, "count"},
        {"core.model_decisions", model_decisions, "count"},
        {"core.uncertain", count("uncertain"), "count"},
        {"core.degraded", count("degraded"), "count"},
        {"core.watchdog", count("watchdog"), "count"},
        {"core.fallbacks", count("fallbacks"), "count"},
        {"core.no_feasible", count("no_feasible"), "count"},
        {"core.model_path_ratio", Ratio(model_decisions, decisions),
         "fraction"},
        {"baselines.decide_ms_mean", Mean(dur_ms["baselines.decide"]),
         "ms"},
        {"models.evaluate_ms_mean", Mean(dur_ms["models.evaluate"]), "ms"},
        {"models.feature_ms_mean", Mean(dur_ms["models.feature"]), "ms"},
        {"models.trunk_ms_mean", Mean(dur_ms["models.trunk"]), "ms"},
        {"models.head_ms_mean", Mean(dur_ms["models.head"]), "ms"},
        {"models.bt_ms_mean", Mean(dur_ms["models.bt"]), "ms"},
        {"models.share", Ratio(layer_self_us["models"] * 1e-3, wall_ms),
         "fraction"},
        {"models.candidates_per_call", Ratio(cands, calls), "count"},
        {"models.head_bt_us_per_candidate",
         Ratio((Sum(dur_ms["models.head"]) + Sum(dur_ms["models.bt"])) *
                   1e3,
               cands),
         "us"},
        {"fleet.phase_b_ms_p50", fr.decide.p50_ms, "ms"},
        {"fleet.phase_b_ms_p95", fr.decide.p95_ms, "ms"},
        {"fleet.phase_a_ms_mean",
         Ratio(fr.wall_s * 1e3 - phase_b_ms,
               static_cast<double>(fr.timeline.size())),
         "ms"},
        {"fleet.parallel_efficiency",
         Ratio(serial_wall_s, fr.wall_s * static_cast<double>(threads)),
         "fraction"},
        {"fleet.model_clones", static_cast<double>(fr.model_clones),
         "count"},
        {"fleet.serial_shard_intervals_per_s",
         serial.result.shard_intervals_per_s, "1/s"},
        {"host.calibration_ms", calibration_s * 1e3, "ms"},
        {"setup.model_load_s", fleet.load_s, "s"},
        {"setup.fleet_construct_s", fleet.construct_s, "s"},
        {"trace.self_coverage", Ratio(self_total_us, rep.wall_us),
         "fraction"},
        {"trace.overhead", Ratio(rep.wall_us * 1e-6, serial_wall_s),
         "ratio"},
    };
}

/** Chrome trace-event JSON, with the per-layer self-time summary under
 *  otherData. */
void
WriteChromeTrace(const std::string& path, const TracedRep& rep,
                 const std::string& workload, uint64_t seed)
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    const std::vector<Span>& spans = rep.log.Spans();
    const std::vector<double> self = SelfTimes(spans);
    std::map<std::string, double> layer_self_ms;
    for (size_t i = 0; i < spans.size(); ++i)
        layer_self_ms[LayerOf(spans[i].name)] += self[i] * 1e-3;

    char buf[256];
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                      "\"tid\": %d, \"args\": {\"id\": %lld, "
                      "\"parent\": %d}}%s\n",
                      s.name, LayerOf(s.name).c_str(), s.start_us,
                      s.dur_us, s.shard + 1, static_cast<long long>(s.id),
                      s.parent, i + 1 < spans.size() ? "," : "");
        out << buf;
    }
    out << "],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {"
        << "\"workload\": \"" << workload << "\", \"seed\": "
        << seed << ", \"wall_ms\": " << rep.wall_us * 1e-3
        << ", \"self_ms\": {";
    bool first = true;
    for (const auto& [layer, ms] : layer_self_ms) {
        out << (first ? "" : ", ") << "\"" << layer << "\": " << ms;
        first = false;
    }
    out << "}}}\n";
}

int
RunTracedMode(const Options& opt, const FleetConfig& cfg,
              const FleetApps& apps, int threads)
{
    const size_t n = static_cast<size_t>(cfg.n_clusters);
    bench::Stopwatch budget;

    // The untraced reference at the workload's reference thread count,
    // after the untraced mode's warm-up.
    SetNumThreads(threads);
    while (budget.Seconds() < kWarmupSeconds)
        RunFleetOnce(cfg);
    const FleetRep ref = RunFleetOnce(cfg);
    std::printf("sim_digest %s\n", Hex(ref.digest).c_str());
    uint64_t attempted = n * ref.result.timeline.size();
    uint64_t failed = InvalidRecords(ref.result, apps);
    bool correct = true;

    // Each pass pairs an untraced one-thread run (thread-count
    // invariance, and the base of parallel efficiency and tracing
    // overhead) with the traced run, whose cluster timelines must equal
    // the reference's.
    SetNumThreads(1);
    const Deployment dep;
    std::vector<std::vector<Metric>> passes;
    std::unique_ptr<TracedRep> last;
    do {
        const FleetRep serial = RunFleetOnce(cfg);
        const double calibration_s = CalibrationSeconds();
        attempted += n * serial.result.timeline.size();
        failed += InvalidRecords(serial.result, apps);
        auto rep = std::make_unique<TracedRep>();
        RunTraced(cfg, dep, *rep);
        size_t mismatched = 0;
        for (size_t k = 0; k < n; ++k) {
            const FleetClusterResult& want = ref.result.clusters[k];
            attempted += rep->runs[k].timeline.size();
            failed += InvalidRecords(rep->runs[k].timeline,
                                     AppOf(apps, want.spec));
            if (!SameTimeline(rep->runs[k].timeline, want.result.timeline))
                ++mismatched;
        }
        correct = correct && serial.digest == ref.digest && mismatched == 0;
        passes.push_back(LayerMetrics(*rep, cfg, ref, serial, threads,
                                      calibration_s));
        std::printf("pass %zu: untraced 1-thread %.3f s, sim_digest %s; "
                    "traced %.3f s, %zu of %zu cluster timelines differ\n",
                    passes.size(), serial.result.wall_s,
                    Hex(serial.digest).c_str(), rep->wall_us * 1e-6,
                    mismatched, n);
        last = std::move(rep);
    } while (budget.Seconds() < opt.seconds);
    std::printf("%s: traced and 1-thread timelines %s the untraced "
                "%d-thread fleet's\n",
                correct ? "PASS" : "FAIL", correct ? "equal" : "differ from",
                threads);

    const std::string path = opt.trace_dir + "/" + opt.workload->name +
                             "-seed" + std::to_string(opt.seed) + ".json";
    WriteChromeTrace(path, *last, opt.workload->name, opt.seed);
    std::printf("trace %s, kernel_id %s\n", path.c_str(),
                last->kernel_id.empty() ? "none" : last->kernel_id.c_str());

    std::vector<Metric> metrics = passes.front();
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::vector<double> xs;
        for (const std::vector<Metric>& pass : passes)
            xs.push_back(pass[i].value);
        metrics[i].value = Median(xs);
    }
    Report(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

// ------------------------------------------------------------- main

[[noreturn]] void
Usage(const std::string& why)
{
    throw UsageError(
        why + "\nusage: bench_e2e --workload "
              "social-solo|hotel-cons-32|mixed-100|chaos-32 [--seed S] "
              "[--seconds T] [--trace 0|1] [--trace-dir DIR] "
              "[--intervals N]");
}

uint64_t
ParseUint(const std::string& flag, const std::string& v)
{
    if (v.empty() || v.size() > 18 ||
        v.find_first_not_of("0123456789") != std::string::npos)
        Usage(flag + " wants a whole number, got '" + v + "'");
    return std::stoull(v);
}

Options
ParseArgs(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            Usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") {
            for (const Workload& w : kWorkloads)
                if (v == w.name)
                    opt.workload = &w;
            if (opt.workload == nullptr)
                Usage("unknown workload '" + v + "'");
        } else if (flag == "--seed") {
            opt.seed = ParseUint(flag, v);
        } else if (flag == "--seconds") {
            opt.seconds = static_cast<double>(ParseUint(flag, v));
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                Usage("--trace wants 0 or 1");
            opt.trace = v == "1";
        } else if (flag == "--trace-dir") {
            opt.trace_dir = v;
        } else if (flag == "--intervals") {
            opt.intervals = static_cast<int64_t>(ParseUint(flag, v));
            if (opt.intervals < 11)
                Usage("--intervals must exceed the 10-interval warm-up");
        } else {
            Usage("unknown flag " + flag);
        }
    }
    if (opt.workload == nullptr)
        Usage("--workload is required");
    return opt;
}

int
Main(int argc, char** argv)
{
    const Options opt = ParseArgs(argc, argv);
    const Workload& w = *opt.workload;
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const int threads =
        w.parallel ? std::min(kMaxThreads, static_cast<int>(nproc)) : 1;
    std::printf("bench_e2e workload=%s seed=%llu trace=%d threads=1 "
                "reference_threads=%d nproc=%u degraded_env=%s\n",
                w.name, static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, threads, nproc,
                nproc < static_cast<unsigned>(kMaxThreads) ? "true"
                                                           : "false");
    for (const char* key : {"hotel", "social"}) {
        const std::string bytes = ReadModelFile(key);
        std::printf("model %s bytes=%zu fnv1a=%s\n", ModelPath(key).c_str(),
                    bytes.size(), Hex(Fnv1a(bytes)).c_str());
    }
    // Fails fast (exit 2) on a missing, corrupt or uncalibrated model.
    const Deployment inputs;
    const FleetConfig cfg =
        MakeConfig(w, opt.seed, opt.intervals > 0 ? opt.intervals
                                                  : w.intervals,
                   inputs.Apps());
    SetNumThreads(1);
    return opt.trace ? RunTracedMode(opt, cfg, inputs.Apps(), threads)
                     : RunUntraced(opt, cfg, inputs.Apps());
}

} // namespace
} // namespace sinan

int
main(int argc, char** argv)
{
    try {
        return sinan::Main(argc, argv);
    } catch (const sinan::UsageError& e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 2;
    } catch (const sinan::ModelError& e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 1;
    }
}
