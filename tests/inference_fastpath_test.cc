/**
 * @file
 * Parity and allocation tests for the single-pass candidate-inference
 * fast path: the cached-trunk Evaluate must be bit-identical to the
 * legacy full-batch reference on trained models (synthetic and the
 * bundled bench_cache models) at every thread count, the AVX2 and
 * scalar microkernels must agree bitwise in every dispatch mode (with
 * SINAN_SIMD=off pinning the scalar path to golden bytes), the direct
 * conv kernel must match a naive reference convolution bitwise, Clone()'s
 * direct deep copy must agree with a serialization round trip, and the
 * model-owned workspace must make steady-state Evaluate calls
 * tensor-allocation-free.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "app/apps.h"
#include "bundled_model.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "harness/harness.h"
#include "models/hybrid.h"
#include "nn/layers.h"
#include "conv_reference.h"
#include "test_util.h"

namespace sinan {
namespace {

using testutil::MakeCandidates;
using testutil::NaiveConvForward;
using testutil::MakeObs;
using testutil::MakeWindow;
using testutil::SmallFeatures;
using testutil::SyntheticDataset;
using testutil::ThreadGuard;

/** Trains a small hybrid model quickly (enough for parity checks). */
std::unique_ptr<HybridModel>
TrainSmallHybrid(const FeatureConfig& f, uint64_t seed)
{
    const Dataset all = SyntheticDataset(f, 200, seed);
    Rng rng(seed + 1);
    const auto [train, valid] = all.Split(0.9, rng);
    HybridConfig cfg;
    cfg.train.epochs = 3;
    cfg.bt.n_trees = 25;
    auto model = std::make_unique<HybridModel>(f, cfg, seed + 2);
    model->Train(train, valid);
    return model;
}

void
ExpectPredictionsBitIdentical(const std::vector<Prediction>& a,
                              const std::vector<Prediction>& b,
                              const std::string& what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].latency_ms, b[i].latency_ms)
            << what << " candidate " << i;
        ASSERT_EQ(a[i].p_violation, b[i].p_violation)
            << what << " candidate " << i;
    }
}

TEST(InferenceFastPath, CachedMatchesFullBatchAcrossThreadCounts)
{
    const FeatureConfig f = SmallFeatures();
    const std::unique_ptr<HybridModel> pm = TrainSmallHybrid(f, 101);
    HybridModel& model = *pm;
    const MetricWindow w = MakeWindow(f, 150, 120);
    const auto cands = MakeCandidates(f, 40);

    ThreadGuard guard;
    SetNumThreads(1);
    const std::vector<Prediction> ref = model.EvaluateFullBatch(w, cands);
    for (int threads : {1, 8}) {
        SetNumThreads(threads);
        ExpectPredictionsBitIdentical(
            model.Evaluate(w, cands), ref,
            "cached vs full-batch, threads=" + std::to_string(threads));
        ExpectPredictionsBitIdentical(
            model.EvaluateFullBatch(w, cands), ref,
            "full-batch vs serial, threads=" + std::to_string(threads));
    }
}

using testutil::LoadBundledModel;

void
CheckBundledModelParity(const Application& app, const std::string& name)
{
    std::unique_ptr<HybridModel> model = LoadBundledModel(app, name);
    if (!model)
        GTEST_SKIP() << "bundled model " << name << " not present";
    const FeatureConfig& f = model->Features();
    const MetricWindow w = MakeWindow(f, 200, 0.3 * f.qos_ms);
    const auto cands = MakeCandidates(f, 33);

    ThreadGuard guard;
    SetNumThreads(1);
    const std::vector<Prediction> ref =
        model->EvaluateFullBatch(w, cands);
    for (int threads : {1, 8}) {
        SetNumThreads(threads);
        ExpectPredictionsBitIdentical(
            model->Evaluate(w, cands), ref,
            name + " threads=" + std::to_string(threads));
    }
}

TEST(InferenceFastPath, BundledHotelModelParity)
{
    CheckBundledModelParity(BuildHotelReservation(), "hotel");
}

TEST(InferenceFastPath, BundledSocialModelParity)
{
    CheckBundledModelParity(BuildSocialNetwork(), "social");
}

TEST(InferenceFastPath, WorkspaceReuseAcrossShapeChanges)
{
    // The workspace is grown/shrunk in place across interleaved
    // candidate counts and windows; results must match a fresh clone
    // (whose workspace has never been used) at every step.
    const FeatureConfig f = SmallFeatures();
    const std::unique_ptr<HybridModel> pm = TrainSmallHybrid(f, 211);
    HybridModel& model = *pm;
    const MetricWindow wa = MakeWindow(f, 150, 120);
    const MetricWindow wb = MakeWindow(f, 350, 420);

    const struct {
        const MetricWindow* w;
        int n_cands;
    } steps[] = {{&wa, 8}, {&wa, 3}, {&wb, 20}, {&wa, 8}, {&wb, 1}};
    for (const auto& step : steps) {
        const auto cands = MakeCandidates(f, step.n_cands);
        const std::unique_ptr<HybridModel> fresh = model.Clone();
        ExpectPredictionsBitIdentical(
            model.Evaluate(*step.w, cands),
            fresh->Evaluate(*step.w, cands),
            "reused vs fresh workspace, n=" +
                std::to_string(step.n_cands));
    }
}

TEST(InferenceFastPath, SteadyStateEvaluateAllocatesNoTensors)
{
    const FeatureConfig f = SmallFeatures();
    const std::unique_ptr<HybridModel> pm = TrainSmallHybrid(f, 307);
    HybridModel& model = *pm;
    const MetricWindow w = MakeWindow(f, 150, 120);
    const auto cands = MakeCandidates(f, 16);

    // Warm up: first calls grow the workspace buffers.
    for (int i = 0; i < 3; ++i)
        (void)model.Evaluate(w, cands);

    const uint64_t before = Tensor::AllocationEvents();
    for (int i = 0; i < 10; ++i)
        (void)model.Evaluate(w, cands);
    EXPECT_EQ(Tensor::AllocationEvents() - before, 0u)
        << "steady-state Evaluate acquired a tensor buffer";
}

TEST(InferenceFastPath, CloneDirectCopyMatchesSerializedRoundTrip)
{
    // Clone() is a direct member-wise deep copy; it must agree exactly
    // with the old stringstream Save/Load round trip.
    const FeatureConfig f = SmallFeatures();
    const std::unique_ptr<HybridModel> pm = TrainSmallHybrid(f, 401);
    HybridModel& model = *pm;

    const std::unique_ptr<HybridModel> direct = model.Clone();
    HybridConfig cfg;
    cfg.train.epochs = 3;
    cfg.bt.n_trees = 25;
    HybridModel via_stream(f, cfg, 999);
    std::stringstream ss;
    model.Save(ss);
    via_stream.Load(ss);

    EXPECT_DOUBLE_EQ(direct->ValRmseMs(), model.ValRmseMs());
    EXPECT_DOUBLE_EQ(via_stream.ValRmseMs(), model.ValRmseMs());

    const MetricWindow w = MakeWindow(f, 150, 120);
    const auto cands = MakeCandidates(f, 12);
    const std::vector<Prediction> ref = model.Evaluate(w, cands);
    ExpectPredictionsBitIdentical(direct->Evaluate(w, cands), ref,
                                  "direct clone");
    ExpectPredictionsBitIdentical(via_stream.Evaluate(w, cands), ref,
                                  "serialized round trip");
}

/** Restores the entry SIMD dispatch mode on scope exit. */
class SimdModeGuard {
  public:
    SimdModeGuard() : saved_(CurrentSimdMode()) {}
    ~SimdModeGuard() { SetSimdMode(saved_); }

  private:
    SimdMode saved_;
};

TEST(InferenceFastPath, SimdMatchesScalarBitwiseAtEveryThreadCount)
{
    // The AVX2 and scalar microkernels share the ascending-p
    // mul-then-add accumulation contract, so forcing either dispatch
    // mode must not move a single bit of the predictions — at 1 or 8
    // threads. (On hosts without AVX2 both modes resolve to the scalar
    // kernel and this degenerates to the thread-parity check.)
    const FeatureConfig f = SmallFeatures();
    const std::unique_ptr<HybridModel> pm = TrainSmallHybrid(f, 509);
    HybridModel& model = *pm;
    const MetricWindow w = MakeWindow(f, 150, 120);
    const auto cands = MakeCandidates(f, 24);

    ThreadGuard threads_guard;
    SimdModeGuard mode_guard;
    SetNumThreads(1);
    SetSimdMode(SimdMode::kOff);
    const std::vector<Prediction> ref = model.Evaluate(w, cands);
    for (const SimdMode mode : {SimdMode::kOn, SimdMode::kOff}) {
        SetSimdMode(mode);
        for (int threads : {1, 8}) {
            SetNumThreads(threads);
            ExpectPredictionsBitIdentical(
                model.Evaluate(w, cands), ref,
                std::string("kernel ") + ActiveKernelId() +
                    " threads=" + std::to_string(threads));
        }
    }
}

TEST(InferenceFastPath, EvaluateTimedStampsActiveKernelId)
{
    const FeatureConfig f = SmallFeatures();
    const std::unique_ptr<HybridModel> pm = TrainSmallHybrid(f, 521);
    HybridModel& model = *pm;
    const MetricWindow w = MakeWindow(f, 150, 120);
    const auto cands = MakeCandidates(f, 4);

    SimdModeGuard mode_guard;
    for (const SimdMode mode : {SimdMode::kOn, SimdMode::kOff}) {
        SetSimdMode(mode);
        EvalStageTimes stages{};
        (void)model.EvaluateTimed(w, cands, &stages);
        EXPECT_STREQ(stages.kernel_id, ActiveKernelId());
    }
    SetSimdMode(SimdMode::kOff);
    EvalStageTimes stages{};
    (void)model.EvaluateTimed(w, cands, &stages);
    EXPECT_STREQ(stages.kernel_id, "scalar-v1");
}

TEST(InferenceFastPath, EvaluateTimedStampsKernelIdsInEveryMode)
{
    const FeatureConfig f = SmallFeatures();
    const std::unique_ptr<HybridModel> pm = TrainSmallHybrid(f, 211);
    HybridModel& model = *pm;
    const MetricWindow w = MakeWindow(f, 160, 130);
    const auto cands = MakeCandidates(f, 9);

    ThreadGuard guard;
    SimdModeGuard mode_guard;
    SetNumThreads(1);
    for (const SimdMode simd : {SimdMode::kOff, SimdMode::kOn}) {
        SetSimdMode(simd);
        // What the dispatch switch says the stamp must be. With
        // SINAN_SIMD=off this is the scalar id on every host; with
        // kOn it is the AVX2 id exactly when the CPU has AVX2.
        const std::string want = ActiveKernelId();
        if (simd == SimdMode::kOff) {
            ASSERT_EQ(want, "scalar-v1");
        }
        EvalStageTimes stages;
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<Prediction> preds =
            model.EvaluateTimed(w, cands, &stages);
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        ASSERT_EQ(preds.size(), cands.size());
        EXPECT_EQ(std::string(stages.kernel_id), want);

        // The four stages partition the call (minus cheap glue): each
        // non-negative, and their sum bounded by the wall clock around
        // the call.
        EXPECT_GE(stages.feature_build_s, 0.0);
        EXPECT_GE(stages.trunk_s, 0.0);
        EXPECT_GE(stages.head_s, 0.0);
        EXPECT_GE(stages.bt_s, 0.0);
        const double sum = stages.feature_build_s + stages.trunk_s +
                           stages.head_s + stages.bt_s;
        EXPECT_GT(sum, 0.0);
        EXPECT_LE(sum, wall);
    }
}

TEST(InferenceFastPath, EnvOverrideForcesScalarKernelWithGoldenBytes)
{
    // SINAN_SIMD=off in the environment must force the scalar kernel
    // after ReloadSimdModeFromEnv(), and the scalar path must still
    // produce the exact bytes pinned below (a seeded Conv2D + Dense
    // forward). A changed byte here means the scalar kernel's
    // arithmetic changed — which requires a kernel-id version bump,
    // not a silent edit — or that Rng::Normal()'s stream, which draws
    // the weights and input, changed.
    SimdModeGuard mode_guard;
    const char* saved_env = std::getenv("SINAN_SIMD");
    const std::string saved_val = saved_env ? saved_env : "";
    setenv("SINAN_SIMD", "off", 1);
    ReloadSimdModeFromEnv();
    EXPECT_EQ(CurrentSimdMode(), SimdMode::kOff);
    EXPECT_FALSE(SimdActive());
    EXPECT_STREQ(ActiveKernelId(), "scalar-v1");

    Rng rng(77);
    Conv2D conv(2, 3, 3, rng);
    const Tensor x = Tensor::Randn({1, 2, 4, 5}, rng, 0.5f);
    Tensor y = conv.Forward(x);
    Dense dense(60, 4, rng);
    y.ReshapeInPlace({1, 60});
    const Tensor out = dense.Forward(y);

    const uint32_t kGolden[] = {
        0x3ea1b91bu, // 0.315865368
        0xbf9452c1u, // -1.15877545
        0x3ff6eeb4u, // 1.92915964
        0x3ddcaaf8u, // 0.107747972
    };
    ASSERT_EQ(out.Size(), 4u);
    for (size_t i = 0; i < out.Size(); ++i) {
        uint32_t bits = 0;
        std::memcpy(&bits, out.Data() + i, sizeof(bits));
        EXPECT_EQ(bits, kGolden[i]) << "element " << i;
    }

    if (saved_env)
        setenv("SINAN_SIMD", saved_val.c_str(), 1);
    else
        unsetenv("SINAN_SIMD");
    ReloadSimdModeFromEnv();
}

TEST(InferenceFastPath, DirectConvMatchesNaiveReferenceBitwise)
{
    // The direct kernel's padding taps add +-0.0f, which leaves every
    // partial sum that is not -0.0f bitwise unchanged, so it must agree
    // with the naive loop exactly — not just approximately — under
    // either dispatch mode. The shapes cover images narrower or shorter
    // than the kernel (some taps never inside the image), single rows
    // and columns, and the bundled models' conv1/conv2 inputs.
    SimdModeGuard mode_guard;
    const int history = FeatureConfig{}.history;
    std::vector<std::vector<int>> shapes = {
        {3, 4, 7, 6}, {2, 4, 7, 2}, {2, 4, 2, 6}, {2, 3, 7, 1},
        {2, 3, 1, 6}, {1, 3, 1, 1}, {1, 2, 2, 2},
    };
    for (const Application& app :
         {BuildHotelReservation(), BuildSocialNetwork()}) {
        const int n_tiers = static_cast<int>(app.tiers.size());
        shapes.push_back({1, FeatureConfig::kChannels, n_tiers, history});
        shapes.push_back({1, SinanCnnConfig{}.conv_channels1, n_tiers,
                          history});
    }
    Rng rng(17);
    for (const std::vector<int>& shape : shapes) {
        for (const int kernel : {3, 5}) {
            Conv2D conv(shape[1], 6, kernel, rng);
            const Tensor x = Tensor::Randn(shape, rng, 0.5f);
            const std::vector<Param*> params = conv.Params();
            const Tensor ref = NaiveConvForward(x, params[0]->value,
                                                params[1]->value, kernel);
            for (const SimdMode mode : {SimdMode::kOn, SimdMode::kOff}) {
                SetSimdMode(mode);
                const Tensor y = conv.Forward(x);
                ASSERT_EQ(y.Shape(), ref.Shape());
                ASSERT_EQ(std::memcmp(y.Data(), ref.Data(),
                                      y.Size() * sizeof(float)),
                          0)
                    << "shape " << shape[0] << "x" << shape[1] << "x"
                    << shape[2] << "x" << shape[3] << " kernel=" << kernel
                    << " mode " << ActiveKernelId();
            }
        }
    }
}

} // namespace
} // namespace sinan
