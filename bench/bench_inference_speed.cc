/**
 * @file
 * Google-benchmark microbenchmarks backing the paper's performance
 * claims: model inference is far below the 1 s decision interval
 * (Sec. 5.2: CNN inference within 1% of the interval), boosted-trees
 * prediction is microseconds, a full scheduler decision (candidate
 * enumeration + hybrid evaluation) fits comfortably in the interval, and
 * the simulator substrate itself is fast enough for the experiment
 * sweeps.
 *
 * The *Threads benchmarks sweep the shared thread pool across
 * 1/2/4/8 threads to report serial-vs-parallel throughput for the hot
 * paths wired into ParallelFor (matmul, GBT training, hybrid candidate
 * evaluation). They use real time — wall clock is what the 1 s decision
 * interval budget cares about.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "app/apps.h"
#include "bench_util.h"
#include "cluster/cluster.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "models/baseline_nets.h"
#include "models/hybrid.h"
#include "models/sinan_cnn.h"
#include "workload/workload.h"

namespace sinan {
namespace {

FeatureConfig
SocialFeatures()
{
    FeatureConfig f;
    f.n_tiers = 28;
    f.qos_ms = 500.0;
    return f;
}

/** A full synthetic metric window matching @p f (deterministic). */
MetricWindow
MakeWindow(const FeatureConfig& f)
{
    MetricWindow window(f);
    for (int t = 0; t < f.history; ++t) {
        IntervalObservation obs;
        obs.time_s = t;
        obs.rps = 200;
        obs.tiers.assign(static_cast<size_t>(f.n_tiers), TierMetrics{});
        for (TierMetrics& m : obs.tiers) {
            m.cpu_limit = 2.0;
            m.cpu_used = 1.0;
            m.rss_mb = 100;
            m.cache_mb = 50;
            m.rx_pps = 800;
            m.tx_pps = 800;
        }
        obs.latency_ms = {80, 90, 100, 110, 120};
        window.Push(obs);
    }
    return window;
}

/** A deterministic candidate allocation list of size @p n with some
 *  per-candidate variation (so rows are not all identical). */
std::vector<std::vector<double>>
MakeCandidates(const FeatureConfig& f, int n)
{
    std::vector<std::vector<double>> cands(
        static_cast<size_t>(n),
        std::vector<double>(static_cast<size_t>(f.n_tiers), 2.0));
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < f.n_tiers; ++j)
            cands[static_cast<size_t>(i)][static_cast<size_t>(j)] =
                1.0 + 0.1 * ((i + j) % 12);
    return cands;
}

/**
 * The model behind the legacy-vs-cached sweep and the JSON dump: the
 * cached trained Social Network model when the bundled weights are
 * present (run from the repo root), otherwise a freshly-initialized
 * model of the same architecture. Lives for the whole process.
 */
HybridModel&
SweepModel(std::string* name_out = nullptr)
{
    static std::string name;
    static std::unique_ptr<HybridModel> owned = [] {
        if (std::filesystem::exists("bench_cache/social.model")) {
            TrainedSinan trained = bench::GetTrainedSinan(
                BuildSocialNetwork(), bench::SocialPipeline(), "social");
            name = "social-trained";
            return std::move(trained.model);
        }
        name = "social-untrained";
        HybridConfig cfg;
        cfg.train.epochs = 1;
        return std::make_unique<HybridModel>(SocialFeatures(), cfg, 3);
    }();
    if (name_out != nullptr)
        *name_out = name;
    return *owned;
}

/** A random but deterministic batch of model inputs. */
Batch
MakeBatch(const FeatureConfig& f, int n)
{
    Rng rng(11);
    Batch b;
    b.xrh = Tensor::Randn({n, FeatureConfig::kChannels, f.n_tiers,
                           f.history},
                          rng, 0.2f);
    b.xlh = Tensor::Randn({n, f.LatFeatures()}, rng, 0.2f);
    b.xrc = Tensor::Randn({n, f.n_tiers}, rng, 0.2f);
    return b;
}

void
BM_CnnInference(benchmark::State& state)
{
    const FeatureConfig f = SocialFeatures();
    SinanCnn cnn(f, SinanCnnConfig{}, 3);
    const Batch batch = MakeBatch(f, static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(cnn.Forward(batch));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CnnInference)->Arg(1)->Arg(32)->Arg(128);

void
BM_MlpInference(benchmark::State& state)
{
    const FeatureConfig f = SocialFeatures();
    MlpPredictor mlp(f, 160, 64, 3);
    const Batch batch = MakeBatch(f, static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(mlp.Forward(batch));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MlpInference)->Arg(32)->Arg(128);

void
BM_LstmInference(benchmark::State& state)
{
    const FeatureConfig f = SocialFeatures();
    LstmPredictor lstm(f, 48, 3);
    const Batch batch = MakeBatch(f, static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(lstm.Forward(batch));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LstmInference)->Arg(32)->Arg(128);

void
BM_BoostedTreesPredict(benchmark::State& state)
{
    Rng rng(5);
    GbtDataset train;
    for (int i = 0; i < 2000; ++i) {
        std::vector<float> row(64);
        for (float& v : row)
            v = static_cast<float>(rng.Uniform());
        train.AddRow(row, row[0] > 0.5f ? 1.0f : 0.0f);
    }
    BoostedTrees bt;
    bt.Train(train);
    std::vector<float> row(64, 0.4f);
    for (auto _ : state)
        benchmark::DoNotOptimize(bt.Predict(row.data()));
}
BENCHMARK(BM_BoostedTreesPredict);

void
BM_ClusterTickSocial(benchmark::State& state)
{
    const Application app = BuildSocialNetwork();
    Cluster cluster(app, ClusterConfig{}, 3);
    ConstantLoad load(static_cast<double>(state.range(0)));
    WorkloadGenerator gen(cluster, load, 7);
    double now = 0.0;
    for (auto _ : state) {
        gen.Tick(now, 0.01);
        cluster.Tick(now, 0.01);
        now += 0.01;
    }
    state.SetLabel("simulated_seconds_per_second");
    state.counters["sim_speedup"] = benchmark::Counter(
        0.01 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClusterTickSocial)->Arg(100)->Arg(450);

void
BM_ClusterTickHotel(benchmark::State& state)
{
    const Application app = BuildHotelReservation();
    Cluster cluster(app, ClusterConfig{}, 3);
    ConstantLoad load(static_cast<double>(state.range(0)));
    WorkloadGenerator gen(cluster, load, 7);
    double now = 0.0;
    for (auto _ : state) {
        gen.Tick(now, 0.01);
        cluster.Tick(now, 0.01);
        now += 0.01;
    }
    state.counters["sim_speedup"] = benchmark::Counter(
        0.01 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClusterTickHotel)->Arg(1000)->Arg(3700);

void
BM_HybridEvaluateCandidates(benchmark::State& state)
{
    // A full scheduler-style evaluation: ~120 candidate allocations
    // against one window (the per-interval cost of Sinan's decision).
    const FeatureConfig f = SocialFeatures();
    HybridConfig cfg;
    cfg.train.epochs = 1;
    HybridModel model(f, cfg, 3);

    MetricWindow window = MakeWindow(f);
    std::vector<std::vector<double>> cands(
        static_cast<size_t>(state.range(0)),
        std::vector<double>(f.n_tiers, 2.0));
    for (auto _ : state)
        benchmark::DoNotOptimize(model.Evaluate(window, cands));
}
BENCHMARK(BM_HybridEvaluateCandidates)->Arg(120);

void
BM_HybridEvaluateLegacy(benchmark::State& state)
{
    // Reference full-batch path (pre-optimization behaviour): the trunk
    // is recomputed once per candidate inside a batched Forward.
    HybridModel& model = SweepModel();
    const FeatureConfig& f = model.Features();
    const MetricWindow window = MakeWindow(f);
    const auto cands = MakeCandidates(f, static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(model.EvaluateFullBatch(window, cands));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HybridEvaluateLegacy)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void
BM_HybridEvaluateCached(benchmark::State& state)
{
    // Cached-trunk fast path: one trunk pass per window, broadcast to
    // every candidate head, reusing the model-owned workspace.
    HybridModel& model = SweepModel();
    const FeatureConfig& f = model.Features();
    const MetricWindow window = MakeWindow(f);
    const auto cands = MakeCandidates(f, static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(model.Evaluate(window, cands));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HybridEvaluateCached)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void
BM_HybridEvaluateStages(benchmark::State& state)
{
    // Per-stage wall-clock breakdown of the fast path (feature build /
    // trunk / head / boosted trees), reported as per-call counters.
    HybridModel& model = SweepModel();
    const FeatureConfig& f = model.Features();
    const MetricWindow window = MakeWindow(f);
    const auto cands = MakeCandidates(f, static_cast<int>(state.range(0)));
    EvalStageTimes acc{};
    int64_t calls = 0;
    for (auto _ : state) {
        EvalStageTimes stages{};
        benchmark::DoNotOptimize(
            model.EvaluateTimed(window, cands, &stages));
        acc.feature_build_s += stages.feature_build_s;
        acc.trunk_s += stages.trunk_s;
        acc.head_s += stages.head_s;
        acc.bt_s += stages.bt_s;
        ++calls;
    }
    const double per_call = calls > 0 ? 1.0 / static_cast<double>(calls)
                                      : 0.0;
    state.counters["feature_build_us"] =
        acc.feature_build_s * 1e6 * per_call;
    state.counters["trunk_us"] = acc.trunk_s * 1e6 * per_call;
    state.counters["head_us"] = acc.head_s * 1e6 * per_call;
    state.counters["bt_us"] = acc.bt_s * 1e6 * per_call;
}
BENCHMARK(BM_HybridEvaluateStages)->Arg(8)->Arg(128);

/** Restores the entry thread count when a thread-sweep benchmark ends. */
class ThreadGuard {
  public:
    ThreadGuard(int n) : saved_(NumThreads()) { SetNumThreads(n); }
    ~ThreadGuard() { SetNumThreads(saved_); }

  private:
    int saved_;
};

void
BM_MatMulThreads(benchmark::State& state)
{
    ThreadGuard guard(static_cast<int>(state.range(0)));
    Rng rng(17);
    const Tensor a = Tensor::Randn({256, 192}, rng, 0.3f);
    const Tensor b = Tensor::Randn({192, 224}, rng, 0.3f);
    Tensor c({256, 224});
    for (auto _ : state) {
        MatMul(a, b, c);
        benchmark::DoNotOptimize(c.Data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatMulThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void
BM_GbtTrainThreads(benchmark::State& state)
{
    ThreadGuard guard(static_cast<int>(state.range(0)));
    Rng rng(5);
    GbtDataset train;
    for (int i = 0; i < 2000; ++i) {
        std::vector<float> row(64);
        for (float& v : row)
            v = static_cast<float>(rng.Uniform());
        train.AddRow(row, row[0] > 0.5f ? 1.0f : 0.0f);
    }
    GbtConfig cfg;
    cfg.n_trees = 40;
    cfg.early_stop_rounds = 0;
    for (auto _ : state) {
        BoostedTrees bt(cfg);
        bt.Train(train);
        benchmark::DoNotOptimize(bt.NumTrees());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GbtTrainThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void
BM_HybridEvaluateThreads(benchmark::State& state)
{
    ThreadGuard guard(static_cast<int>(state.range(0)));
    const FeatureConfig f = SocialFeatures();
    HybridConfig cfg;
    cfg.train.epochs = 1;
    HybridModel model(f, cfg, 3);

    MetricWindow window = MakeWindow(f);
    std::vector<std::vector<double>> cands(
        120, std::vector<double>(f.n_tiers, 2.0));
    for (auto _ : state)
        benchmark::DoNotOptimize(model.Evaluate(window, cands));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(cands.size()));
}
BENCHMARK(BM_HybridEvaluateThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/**
 * Explicit legacy-vs-cached timing sweep across candidate counts,
 * written to BENCH_inference.json. Each point is the best-of-@p reps
 * mean over a small inner loop (minimum is robust against scheduler
 * noise on shared CI runners). Returns the measured rows.
 */
std::vector<bench::InferenceBenchRow>
RunInferenceSweep(const std::string& json_path)
{
    std::string model_name;
    HybridModel& model = SweepModel(&model_name);
    const FeatureConfig& f = model.Features();
    const MetricWindow window = MakeWindow(f);

    const int kInner = 5;
    const int kReps = 12;
    std::vector<bench::InferenceBenchRow> rows;
    std::printf("\nLegacy vs cached-trunk Evaluate (%s, %d tiers, "
                "kernel %s)\n",
                model_name.c_str(), f.n_tiers, ActiveKernelId());
    std::printf("%10s %12s %12s %9s %10s %13s\n", "cands", "legacy_ms",
                "cached_ms", "speedup", "trunk_us", "scalar_trunk");
    for (const int n : {1, 8, 32, 128}) {
        const auto cands = MakeCandidates(f, n);
        bench::InferenceBenchRow row;
        row.candidates = n;

        // Warm up both paths (first calls grow workspace buffers).
        (void)model.EvaluateFullBatch(window, cands);
        (void)model.Evaluate(window, cands);

        double best_legacy = 0.0;
        double best_cached = 0.0;
        EvalStageTimes best_stages{};
        for (int rep = 0; rep < kReps; ++rep) {
            bench::Stopwatch watch;
            for (int k = 0; k < kInner; ++k)
                benchmark::DoNotOptimize(
                    model.EvaluateFullBatch(window, cands));
            const double legacy_ms = watch.Millis() / kInner;
            watch.Restart();
            EvalStageTimes acc{};
            for (int k = 0; k < kInner; ++k) {
                EvalStageTimes stages{};
                benchmark::DoNotOptimize(
                    model.EvaluateTimed(window, cands, &stages));
                acc.feature_build_s += stages.feature_build_s;
                acc.trunk_s += stages.trunk_s;
                acc.head_s += stages.head_s;
                acc.bt_s += stages.bt_s;
            }
            const double cached_ms = watch.Millis() / kInner;
            if (rep == 0 || legacy_ms < best_legacy)
                best_legacy = legacy_ms;
            if (rep == 0 || cached_ms < best_cached) {
                best_cached = cached_ms;
                best_stages = acc;
            }
        }
        row.legacy_ms = best_legacy;
        row.cached_ms = best_cached;
        row.feature_ms = best_stages.feature_build_s * 1e3 / kInner;
        row.trunk_ms = best_stages.trunk_s * 1e3 / kInner;
        row.head_ms = best_stages.head_s * 1e3 / kInner;
        row.bt_ms = best_stages.bt_s * 1e3 / kInner;

        // Re-measure the trunk stage under forced-scalar dispatch so
        // the dump always carries the scalar-vs-SIMD comparison (the
        // README perf table reads it straight from the JSON).
        if (SimdActive()) {
            const SimdMode saved = CurrentSimdMode();
            SetSimdMode(SimdMode::kOff);
            (void)model.Evaluate(window, cands);
            double best_scalar = 0.0;
            for (int rep = 0; rep < kReps; ++rep) {
                EvalStageTimes acc{};
                for (int k = 0; k < kInner; ++k) {
                    EvalStageTimes stages{};
                    benchmark::DoNotOptimize(
                        model.EvaluateTimed(window, cands, &stages));
                    acc.trunk_s += stages.trunk_s;
                }
                const double trunk_ms = acc.trunk_s * 1e3 / kInner;
                if (rep == 0 || trunk_ms < best_scalar)
                    best_scalar = trunk_ms;
            }
            SetSimdMode(saved);
            row.scalar_trunk_ms = best_scalar;
        } else {
            row.scalar_trunk_ms = row.trunk_ms;
        }

        std::printf("%10d %12.4f %12.4f %8.2fx %10.1f %12.1fus\n", n,
                    row.legacy_ms, row.cached_ms,
                    row.cached_ms > 0.0 ? row.legacy_ms / row.cached_ms
                                        : 0.0,
                    row.trunk_ms * 1e3, row.scalar_trunk_ms * 1e3);
        rows.push_back(row);
    }
    bench::WriteInferenceJson(json_path, model_name, ActiveKernelId(),
                              1000.0, rows);
    std::printf("\nWrote %s\n", json_path.c_str());
    return rows;
}

/**
 * CI gate (SINAN_BENCH_CHECK=1): the cached-trunk path must be
 * measurably faster than the legacy full-batch path at every candidate
 * count >= 8. The local acceptance bar is >= 3x; CI uses a conservative
 * 1.5x so shared-runner noise cannot flake the job. With the AVX2
 * kernels active the trunk stage must additionally stay under 80 us
 * (local acceptance bar: 50 us on an AVX2 host; the measured number is
 * ~47 us scalar-free, so the CI margin is ~1.7x).
 */
bool
CheckSweep(const std::vector<bench::InferenceBenchRow>& rows)
{
    constexpr double kMinSpeedup = 1.5;
    constexpr double kMaxSimdTrunkMs = 0.080;
    bool ok = true;
    for (const bench::InferenceBenchRow& row : rows) {
        if (row.candidates < 8)
            continue;
        const double speedup =
            row.cached_ms > 0.0 ? row.legacy_ms / row.cached_ms : 0.0;
        if (speedup < kMinSpeedup) {
            std::printf("FAIL: %d candidates: cached path %.2fx vs legacy "
                        "(need >= %.1fx)\n",
                        row.candidates, speedup, kMinSpeedup);
            ok = false;
        }
        if (SimdActive() && row.trunk_ms > kMaxSimdTrunkMs) {
            std::printf("FAIL: %d candidates: trunk %.1f us with the "
                        "%s kernel (need <= %.0f us)\n",
                        row.candidates, row.trunk_ms * 1e3,
                        ActiveKernelId(), kMaxSimdTrunkMs * 1e3);
            ok = false;
        }
    }
    if (ok) {
        std::printf("PASS: cached path >= %.1fx at every count >= 8\n",
                    kMinSpeedup);
        if (SimdActive())
            std::printf("PASS: %s trunk <= %.0f us at every count >= "
                        "8\n",
                        ActiveKernelId(), kMaxSimdTrunkMs * 1e3);
    }
    return ok;
}

} // namespace
} // namespace sinan

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const auto rows = sinan::RunInferenceSweep("BENCH_inference.json");
    const char* check = std::getenv("SINAN_BENCH_CHECK");
    if (check != nullptr && std::string(check) == "1" &&
        !sinan::CheckSweep(rows)) {
        return 1;
    }
    return 0;
}
