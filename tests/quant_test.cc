/**
 * @file
 * Validation suite for the int8 quantized inference mode.
 *
 * The int8 path is NOT bit-identical to fp32, so unlike the SIMD
 * fastpath tests it is validated on its own terms:
 *
 *  - kernel level: the scalar and AVX2 int8 GEMM / quantize /
 *    fused-requantize kernels must agree byte-for-byte (exact int32
 *    accumulation makes this hold by construction), including on the
 *    quantizer's edge cases (round-half ties, NaN, infinities);
 *  - model level: int8 predictions must be byte-identical against
 *    themselves across thread counts and scalar/AVX2 dispatch,
 *    --quant=off must remain byte-identical to the fp32 path, and the
 *    steady-state int8 Evaluate loop must stay allocation-free;
 *  - accuracy level: on the bundled bench_cache models, int8-vs-fp32
 *    latency divergence is bounded by a fraction of QoS and a seeded
 *    scheduler sweep must reach >= 99% identical Decide outcomes;
 *  - format level: the versioned container round-trips calibration,
 *    the bundled models re-save byte for byte, old readers reject a
 *    versioned file with a clear error, and pre-container streams,
 *    unknown future versions and weights for another config are
 *    rejected by name.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/apps.h"
#include "bundled_model.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "core/scheduler.h"
#include "harness/harness.h"
#include "models/hybrid.h"
#include "nn/quant.h"
#include "tensor/gemm_int8_kernels.h"
#include "test_util.h"

namespace sinan {
namespace {

using testutil::MakeCandidates;
using testutil::MakeObs;
using testutil::MakeWindow;
using testutil::SmallFeatures;
using testutil::SyntheticDataset;
using testutil::ThreadGuard;

/** Restores the entry SIMD dispatch mode on scope exit. */
class SimdModeGuard {
  public:
    SimdModeGuard() : saved_(CurrentSimdMode()) {}
    ~SimdModeGuard() { SetSimdMode(saved_); }

  private:
    SimdMode saved_;
};

/** Trains a small hybrid model quickly, with a calibration set. */
struct SmallModel {
    std::unique_ptr<HybridModel> model;
    Dataset calib;
};

SmallModel
TrainSmallHybrid(const FeatureConfig& f, uint64_t seed)
{
    const Dataset all = SyntheticDataset(f, 200, seed);
    Rng rng(seed + 1);
    const auto [train, valid] = all.Split(0.9, rng);
    HybridConfig cfg;
    cfg.train.epochs = 3;
    cfg.bt.n_trees = 25;
    SmallModel out;
    out.model = std::make_unique<HybridModel>(f, cfg, seed + 2);
    out.model->Train(train, valid);
    out.calib = train;
    return out;
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

using testutil::LoadBundledModel;

// ---------------------------------------------------------------------
// Kernel-level byte parity (scalar vs dispatched). On hosts without
// AVX2 both modes resolve to the scalar kernel and the comparisons are
// trivially true; on AVX2 hosts they pin the vector implementations.
// ---------------------------------------------------------------------

TEST(QuantKernels, GemmScalarMatchesDispatchBytes)
{
    SimdModeGuard mode_guard;
    Rng rng(41);
    // Shapes crossing every panel width (16/8/tail) and k%4 residue.
    const int64_t ks[] = {1, 3, 4, 7, 54, 72, 128};
    const int64_t ns[] = {1, 5, 8, 13, 16, 24, 48};
    for (const int64_t k : ks) {
        for (const int64_t n : ns) {
            const int64_t rows = 9;
            const int64_t lda = Int8KGroups(k) * 4;
            std::vector<uint8_t> a(static_cast<size_t>(rows * lda));
            for (auto& v : a)
                v = static_cast<uint8_t>(rng.Uniform(0, 256));
            std::vector<int8_t> b(static_cast<size_t>(k * n));
            for (auto& v : b)
                v = static_cast<int8_t>(rng.Uniform(-kInt8WeightMax,
                                                    kInt8WeightMax + 1));
            std::vector<int8_t> packed(
                static_cast<size_t>(Int8PackedSize(k, n)));
            PackInt8B(b.data(), n, k, n, packed.data());

            std::vector<int32_t> c_ref(static_cast<size_t>(rows * n), 0);
            GemmInt8RowsScalar(a.data(), lda, packed.data(), c_ref.data(),
                               n, 0, rows, k, n);

            // The scalar kernel against a plain triple loop: the packed
            // layout and the row-panel contract compute exact sums.
            for (int64_t r = 0; r < rows; ++r) {
                for (int64_t j = 0; j < n; ++j) {
                    int64_t want = 0;
                    for (int64_t p = 0; p < k; ++p)
                        want += static_cast<int64_t>(
                                    a[static_cast<size_t>(r * lda + p)]) *
                                b[static_cast<size_t>(p * n + j)];
                    ASSERT_EQ(c_ref[static_cast<size_t>(r * n + j)], want)
                        << "k=" << k << " n=" << n;
                }
            }

            SetSimdMode(SimdMode::kOn);
            std::vector<int32_t> c_vec(static_cast<size_t>(rows * n), 0);
            // Split the row range to exercise the r0 > 0 path.
            ActiveGemmInt8Rows()(a.data(), lda, packed.data(),
                                 c_vec.data(), n, 0, 4, k, n);
            ActiveGemmInt8Rows()(a.data(), lda, packed.data(),
                                 c_vec.data(), n, 4, rows, k, n);
            ASSERT_EQ(std::memcmp(c_ref.data(), c_vec.data(),
                                  c_ref.size() * sizeof(int32_t)),
                      0)
                << "scalar vs dispatched, k=" << k << " n=" << n;
        }
    }
}

TEST(QuantKernels, QuantizeU8HandlesEdgeValuesIdentically)
{
    SimdModeGuard mode_guard;
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> x = {0.0f,   -0.0f,  0.5f,   -0.5f,  1.5f,
                            -1.5f,  2.5f,   -2.5f,  127.4f, -127.4f,
                            199.5f, -199.5f, 1e30f, -1e30f, inf,
                            -inf,   nan,    1e-30f, -1e-30f};
    Rng rng(43);
    for (int i = 0; i < 173; ++i) // odd count: exercises the tail
        x.push_back(static_cast<float>(rng.Uniform(-300, 300)));

    std::vector<uint8_t> ref(x.size()), vec(x.size());
    QuantizeU8Scalar(x.data(), static_cast<int64_t>(x.size()), 1.0f,
                     ref.data());
    SetSimdMode(SimdMode::kOn);
    ActiveQuantizeU8()(x.data(), static_cast<int64_t>(x.size()), 1.0f,
                       vec.data());
    ASSERT_EQ(std::memcmp(ref.data(), vec.data(), ref.size()), 0);

    // Pin the documented rule: round-half-away, zero point 128, the
    // ±kQuantClamp float clamp, and NaN -> byte 0.
    EXPECT_EQ(ref[0], 128);  // 0.0
    EXPECT_EQ(ref[1], 128);  // -0.0
    EXPECT_EQ(ref[2], 129);  // 0.5 rounds away to 1
    EXPECT_EQ(ref[3], 127);  // -0.5 rounds away to -1
    EXPECT_EQ(ref[6], 131);  // 2.5 rounds away to 3
    EXPECT_EQ(ref[7], 125);  // -2.5 rounds away to -3
    EXPECT_EQ(ref[12], 255); // 1e30 clamps to +kQuantClamp
    EXPECT_EQ(ref[13], 0);   // -1e30 clamps to -kQuantClamp
    EXPECT_EQ(ref[14], 255); // +inf
    EXPECT_EQ(ref[15], 0);   // -inf
    EXPECT_EQ(ref[16], 0);   // NaN: min/max order maps to -kQuantClamp
}

TEST(QuantKernels, RequantReluScalarMatchesDispatchBytes)
{
    SimdModeGuard mode_guard;
    Rng rng(47);
    const int64_t ocs[] = {1, 5, 8, 9, 16, 23};
    for (const int64_t oc : ocs) {
        const int64_t rows = 11;
        std::vector<int32_t> acc(static_cast<size_t>(rows * oc));
        for (auto& v : acc)
            v = static_cast<int32_t>(rng.Uniform(-500000, 500000));
        std::vector<float> bias(static_cast<size_t>(oc));
        std::vector<float> rscale(static_cast<size_t>(oc));
        std::vector<int32_t> zp128(static_cast<size_t>(oc));
        for (int64_t c = 0; c < oc; ++c) {
            bias[static_cast<size_t>(c)] =
                static_cast<float>(rng.Uniform(-2, 2));
            rscale[static_cast<size_t>(c)] =
                static_cast<float>(rng.Uniform(0.00001, 0.001));
            zp128[static_cast<size_t>(c)] =
                static_cast<int32_t>(rng.Uniform(-100000, 100000));
        }
        const float inv_next = 37.5f;

        std::vector<uint8_t> ref(static_cast<size_t>(rows * oc));
        std::vector<uint8_t> vec(static_cast<size_t>(rows * oc));
        RequantReluU8Scalar(acc.data(), rows, oc, bias.data(),
                            rscale.data(), zp128.data(), inv_next,
                            ref.data());
        SetSimdMode(SimdMode::kOn);
        ActiveRequantReluU8()(acc.data(), rows, oc, bias.data(),
                              rscale.data(), zp128.data(), inv_next,
                              vec.data());
        ASSERT_EQ(std::memcmp(ref.data(), vec.data(), ref.size()), 0)
            << "oc=" << oc;

        // The fused relu is max(q, 128) — never below the zero point,
        // and exactly the unfused compose on every element.
        for (int64_t i = 0; i < rows * oc; ++i) {
            const int64_t c = i % oc;
            const float v =
                bias[static_cast<size_t>(c)] +
                rscale[static_cast<size_t>(c)] *
                    static_cast<float>(acc[static_cast<size_t>(i)] -
                                       zp128[static_cast<size_t>(c)]);
            const uint8_t q = QuantizeU8One(v, inv_next);
            const uint8_t want = q < 128 ? uint8_t{128} : q;
            ASSERT_EQ(ref[static_cast<size_t>(i)], want) << "i=" << i;
            ASSERT_GE(ref[static_cast<size_t>(i)], 128);
        }
    }
}

// ---------------------------------------------------------------------
// Model-level invariants on a small trained hybrid.
// ---------------------------------------------------------------------

class QuantModelTest : public ::testing::Test {
  protected:
    static void
    SetUpTestSuite()
    {
        features_ = new FeatureConfig(SmallFeatures());
        SmallModel sm = TrainSmallHybrid(*features_, 211);
        model_ = sm.model.release();
        calib_ = new Dataset(std::move(sm.calib));
    }

    static void
    TearDownTestSuite()
    {
        delete model_;
        delete features_;
        delete calib_;
        model_ = nullptr;
        features_ = nullptr;
        calib_ = nullptr;
    }

    static FeatureConfig* features_;
    static HybridModel* model_;
    static Dataset* calib_;
};

FeatureConfig* QuantModelTest::features_ = nullptr;
HybridModel* QuantModelTest::model_ = nullptr;
Dataset* QuantModelTest::calib_ = nullptr;

TEST_F(QuantModelTest, Int8RequiresCalibration)
{
    SmallModel fresh = TrainSmallHybrid(*features_, 307);
    EXPECT_FALSE(fresh.model->Int8Calibrated());
    EXPECT_THROW(fresh.model->SetQuantMode(QuantMode::kInt8),
                 std::runtime_error);
    // The scheduler surfaces the same error from its config.
    SchedulerConfig cfg;
    cfg.quant = QuantMode::kInt8;
    EXPECT_THROW(SinanScheduler(*fresh.model, cfg), std::runtime_error);
}

TEST_F(QuantModelTest, QuantOffStaysByteIdenticalToFp32)
{
    const MetricWindow w = MakeWindow(*features_, 150, 120);
    const auto cands = MakeCandidates(*features_, 24);

    ThreadGuard guard;
    SetNumThreads(1);
    model_->SetQuantMode(QuantMode::kOff);
    const std::vector<Prediction> ref = model_->Evaluate(w, cands);

    // Calibrating, running int8, and switching back must not move a
    // bit of the fp32 path: quantization only adds state, it never
    // touches the fp32 weights.
    model_->CalibrateInt8(*calib_);
    ASSERT_TRUE(model_->Int8Calibrated());
    ExpectPredictionsBitIdentical(model_->Evaluate(w, cands), ref,
                                  "fp32 after calibration");
    model_->SetQuantMode(QuantMode::kInt8);
    (void)model_->Evaluate(w, cands);
    model_->SetQuantMode(QuantMode::kOff);
    ExpectPredictionsBitIdentical(model_->Evaluate(w, cands), ref,
                                  "fp32 after int8 round trip");
}

TEST_F(QuantModelTest, Int8ByteIdenticalAcrossThreadCounts)
{
    const MetricWindow w = MakeWindow(*features_, 180, 140);
    const auto cands = MakeCandidates(*features_, 33);
    if (!model_->Int8Calibrated())
        model_->CalibrateInt8(*calib_);
    model_->SetQuantMode(QuantMode::kInt8);

    ThreadGuard guard;
    SetNumThreads(1);
    const std::vector<Prediction> ref = model_->Evaluate(w, cands);
    for (int threads : {2, 8}) {
        SetNumThreads(threads);
        ExpectPredictionsBitIdentical(
            model_->Evaluate(w, cands), ref,
            "int8 threads=" + std::to_string(threads));
    }
    SetNumThreads(1);
    model_->SetQuantMode(QuantMode::kOff);
}

TEST_F(QuantModelTest, Int8ByteIdenticalAcrossDispatchModes)
{
    const MetricWindow w = MakeWindow(*features_, 220, 160);
    const auto cands = MakeCandidates(*features_, 17);
    if (!model_->Int8Calibrated())
        model_->CalibrateInt8(*calib_);
    model_->SetQuantMode(QuantMode::kInt8);

    ThreadGuard guard;
    SimdModeGuard mode_guard;
    SetNumThreads(1);
    SetSimdMode(SimdMode::kOff);
    const std::vector<Prediction> scalar = model_->Evaluate(w, cands);
    SetSimdMode(SimdMode::kOn);
    ExpectPredictionsBitIdentical(model_->Evaluate(w, cands), scalar,
                                  "int8 scalar vs dispatched");
    model_->SetQuantMode(QuantMode::kOff);
}

TEST_F(QuantModelTest, Int8SteadyStateIsAllocationFree)
{
    const MetricWindow w = MakeWindow(*features_, 140, 110);
    const auto cands = MakeCandidates(*features_, 21);
    if (!model_->Int8Calibrated())
        model_->CalibrateInt8(*calib_);
    model_->SetQuantMode(QuantMode::kInt8);

    ThreadGuard guard;
    SetNumThreads(1);
    (void)model_->Evaluate(w, cands); // warm the workspace
    (void)model_->Evaluate(w, cands);
    const uint64_t before = Tensor::AllocationEvents();
    for (int i = 0; i < 5; ++i)
        (void)model_->Evaluate(w, cands);
    EXPECT_EQ(Tensor::AllocationEvents() - before, 0u)
        << "steady-state int8 Evaluate must not allocate tensors";
    model_->SetQuantMode(QuantMode::kOff);
}

TEST_F(QuantModelTest, Int8WorkspaceStopsGrowingAfterWarmup)
{
    // The u8/int32 scratch pool has the same contract at the quant-op
    // level: repeated same-shape forwards reuse the grown buffers.
    QuantizedLinear lin;
    std::vector<float> w(64 * 24);
    Rng rng(53);
    for (auto& v : w)
        v = static_cast<float>(rng.Uniform(-1, 1));
    lin.QuantizeWeights(w.data(), 64, 24, 24, 1);
    lin.SetActivationScale(3.0f);
    const std::vector<float> bias(24, 0.1f);

    Tensor x({5, 64});
    for (size_t i = 0; i < x.Size(); ++i)
        x.Data()[i] = static_cast<float>(rng.Uniform(-3, 3));
    Tensor y;
    Int8Workspace ws;
    QuantizedDenseForward(lin, bias, x, y, ws);
    const int64_t grown = ws.GrowthEvents();
    EXPECT_GT(grown, 0);
    for (int i = 0; i < 4; ++i)
        QuantizedDenseForward(lin, bias, x, y, ws);
    EXPECT_EQ(ws.GrowthEvents(), grown)
        << "same-shape quantized forwards must reuse the workspace";
}

TEST_F(QuantModelTest, EvaluateTimedStampsKernelIdsInEveryMode)
{
    const MetricWindow w = MakeWindow(*features_, 160, 130);
    const auto cands = MakeCandidates(*features_, 9);
    if (!model_->Int8Calibrated())
        model_->CalibrateInt8(*calib_);

    ThreadGuard guard;
    SimdModeGuard mode_guard;
    SetNumThreads(1);
    for (const QuantMode quant : {QuantMode::kOff, QuantMode::kInt8}) {
        model_->SetQuantMode(quant);
        for (const SimdMode simd : {SimdMode::kOff, SimdMode::kOn}) {
            SetSimdMode(simd);
            // What the dispatch switch says the stamp must be. With
            // SINAN_SIMD=off this is the scalar id on every host; with
            // kOn it is the AVX2 id exactly when the CPU has AVX2.
            const std::string want = quant == QuantMode::kInt8
                                         ? ActiveInt8KernelId()
                                         : ActiveKernelId();
            if (simd == SimdMode::kOff) {
                ASSERT_EQ(want, quant == QuantMode::kInt8
                                    ? "int8-scalar-v1"
                                    : "scalar-v1");
            }
            EvalStageTimes stages;
            const auto t0 = std::chrono::steady_clock::now();
            const std::vector<Prediction> preds =
                model_->EvaluateTimed(w, cands, &stages);
            const double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            ASSERT_EQ(preds.size(), cands.size());
            EXPECT_EQ(std::string(stages.kernel_id), want);

            // The four stages partition the call (minus cheap glue):
            // each non-negative, and their sum bounded by the wall
            // clock around the call.
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
    model_->SetQuantMode(QuantMode::kOff);
}

// ---------------------------------------------------------------------
// Serialization format.
// ---------------------------------------------------------------------

TEST_F(QuantModelTest, VersionedRoundTripPreservesCalibration)
{
    const MetricWindow w = MakeWindow(*features_, 150, 120);
    const auto cands = MakeCandidates(*features_, 12);
    if (!model_->Int8Calibrated())
        model_->CalibrateInt8(*calib_);

    ThreadGuard guard;
    SetNumThreads(1);
    model_->SetQuantMode(QuantMode::kInt8);
    const std::vector<Prediction> ref_int8 = model_->Evaluate(w, cands);
    model_->SetQuantMode(QuantMode::kOff);
    const std::vector<Prediction> ref_fp32 = model_->Evaluate(w, cands);

    std::ostringstream out;
    model_->Save(out);
    // The container leads with the magic so readers can sniff it.
    int32_t magic = 0;
    std::memcpy(&magic, out.str().data(), sizeof(magic));
    EXPECT_EQ(magic, kModelMagic);

    HybridModel loaded(*features_, DefaultHybridConfig(), 999);
    std::istringstream in(out.str());
    loaded.Load(in);
    ASSERT_TRUE(loaded.Int8Calibrated())
        << "the quant section must survive a round trip";
    ExpectPredictionsBitIdentical(loaded.Evaluate(w, cands), ref_fp32,
                                  "fp32 after versioned round trip");
    loaded.SetQuantMode(QuantMode::kInt8);
    ExpectPredictionsBitIdentical(loaded.Evaluate(w, cands), ref_int8,
                                  "int8 after versioned round trip");
}

TEST_F(QuantModelTest, OldReaderRejectsVersionedFileCleanly)
{
    if (!model_->Int8Calibrated())
        model_->CalibrateInt8(*calib_);
    std::ostringstream out;
    model_->Save(out);

    // A pre-container reader starts with Tensor::Load, which reads the
    // magic as a tensor rank. kModelMagic is far outside the valid
    // rank range by design, so the old reader fails loudly at byte 0
    // instead of shoveling garbage into weights.
    std::istringstream in(out.str());
    try {
        (void)Tensor::Load(in);
        FAIL() << "old reader accepted a versioned container";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("corrupt header"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
}

TEST_F(QuantModelTest, UnknownFutureVersionIsRejectedByName)
{
    std::ostringstream out;
    const int32_t magic = kModelMagic;
    const int32_t version = kModelVersion + 97;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out << "future payload this build cannot parse";

    HybridModel loaded(*features_, DefaultHybridConfig(), 999);
    std::istringstream in(out.str());
    try {
        loaded.Load(in);
        FAIL() << "unknown future version was accepted";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("version"), std::string::npos)
            << "unexpected error: " << what;
        EXPECT_NE(what.find(std::to_string(version)), std::string::npos)
            << "error should name the offending version: " << what;
    }
}

TEST_F(QuantModelTest, PreContainerStreamIsRejectedByName)
{
    // The pre-container layout: the payload with no magic or version.
    std::ostringstream out;
    model_->Cnn().Save(out);
    model_->Bt().Save(out);
    const double rmse[2] = {model_->ValRmseMs(), model_->ValRmseSubQosMs()};
    out.write(reinterpret_cast<const char*>(rmse), sizeof(rmse));

    HybridModel loaded(*features_, DefaultHybridConfig(), 999);
    std::istringstream in(out.str());
    try {
        loaded.Load(in);
        FAIL() << "pre-container stream was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("not a SINN model container"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
}

TEST_F(QuantModelTest, WiderTreeEnsembleIsRejectedByName)
{
    // A container whose CNN matches the config but whose trees split on
    // one feature past the BT row (latent + tiers + 4): scoring would
    // read past each candidate's row, so Load must refuse it.
    const int width = model_->Cnn().LatentSize() + features_->n_tiers + 4;
    std::ostringstream out;
    const int32_t magic = kModelMagic;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&kModelVersion),
              sizeof(kModelVersion));
    model_->Cnn().Save(out);
    const int32_t obj = 0, nf = width + 1, nt = 1, nn = 3;
    const double base = 0.0;
    out.write(reinterpret_cast<const char*>(&obj), sizeof(obj));
    out.write(reinterpret_cast<const char*>(&nf), sizeof(nf));
    out.write(reinterpret_cast<const char*>(&base), sizeof(base));
    out.write(reinterpret_cast<const char*>(&nt), sizeof(nt));
    out.write(reinterpret_cast<const char*>(&nn), sizeof(nn));
    // A stump on the extra feature: {feature, threshold, left, right,
    // value}, as BoostedTrees::Save lays a node out.
    const struct {
        int32_t feature;
        float threshold;
        int32_t left, right;
        float value;
    } nodes[3] = {{width, 0.5f, 1, 2, 0.0f},
                  {-1, 0.0f, -1, -1, -1.0f},
                  {-1, 0.0f, -1, -1, 1.0f}};
    out.write(reinterpret_cast<const char*>(nodes), sizeof(nodes));
    const double rmse[2] = {model_->ValRmseMs(), model_->ValRmseSubQosMs()};
    out.write(reinterpret_cast<const char*>(rmse), sizeof(rmse));
    const int32_t has_quant = 0;
    out.write(reinterpret_cast<const char*>(&has_quant), sizeof(has_quant));

    HybridModel loaded(*features_, DefaultHybridConfig(), 999);
    std::istringstream in(out.str());
    try {
        loaded.Load(in);
        FAIL() << "a tree ensemble wider than the BT row was accepted";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("tree ensemble expects " +
                            std::to_string(width + 1) + " features"),
                  std::string::npos)
            << "unexpected error: " << what;
        EXPECT_NE(what.find("rows hold " + std::to_string(width)),
                  std::string::npos)
            << "unexpected error: " << what;
    }
}

TEST(QuantCalibration, ActScalesArePinnedOnASyntheticRun)
{
    // CalibrateInt8 on an untrained model over a fixed synthetic set.
    // The concat scale is fc_latent's input maximum, the max over the
    // rh, lh and rc embeddings its rows are made of; all seven values
    // are pinned to the bytes a materialized [rh | lh | rc] batch gave.
    const FeatureConfig f = SmallFeatures();
    const Dataset calib = SyntheticDataset(f, 40, 811);
    const uint32_t kPinned[kCnnInt8NumScales] = {
        0x3e8e015bu, // xrh        0.277354091
        0x3e7333edu, // conv1_out  0.237502769
        0x3db81f50u, // conv2_out  0.0899034739
        0x3fad6845u, // xlh        1.35474455
        0x3ea27a62u, // xrc        0.317339957
        0x408060aau, // concat     4.01179981
        0x4031ab24u, // latent     2.77607059
    };
    SimdModeGuard mode_guard;
    for (const SimdMode mode : {SimdMode::kOn, SimdMode::kOff}) {
        SetSimdMode(mode);
        HybridModel model(f, DefaultHybridConfig(), 812);
        model.CalibrateInt8(calib);
        const auto scales = model.Cnn().Int8ActScales();
        for (int i = 0; i < kCnnInt8NumScales; ++i) {
            uint32_t bits = 0;
            std::memcpy(&bits, &scales[static_cast<size_t>(i)],
                        sizeof(bits));
            EXPECT_EQ(bits, kPinned[i])
                << "scale " << i << " (" << scales[static_cast<size_t>(i)]
                << ") mode " << ActiveKernelId() << " bits 0x" << std::hex
                << bits;
        }
    }
}

/** Load then Save of a bundled model must reproduce the committed
 *  file byte for byte: the container is the only format. */
void
CheckBundledResave(const Application& app, const std::string& name)
{
    std::unique_ptr<HybridModel> model = LoadBundledModel(app, name);
    if (!model)
        GTEST_SKIP() << "bundled model " << name << " not present";
    std::ifstream in(std::string(SINAN_REPO_ROOT) + "/bench_cache/" +
                         name + ".model",
                     std::ios::binary);
    std::ostringstream committed;
    committed << in.rdbuf();
    std::ostringstream resaved;
    model->Save(resaved);
    EXPECT_TRUE(resaved.str() == committed.str())
        << name << ": re-saved " << resaved.str().size()
        << " bytes differ from the committed " << committed.str().size();
}

TEST(BundledModelFormat, HotelResavesByteForByte)
{
    CheckBundledResave(BuildHotelReservation(), "hotel");
}

TEST(BundledModelFormat, SocialResavesByteForByte)
{
    CheckBundledResave(BuildSocialNetwork(), "social");
}

TEST(BundledModelFormat, HotelModelIntoSocialConfigThrowsAtLoad)
{
    // LoadBundledModel builds the 28-tier social config; the file holds
    // hotel's weights, so a layer shape differs and Load must say so.
    try {
        if (!LoadBundledModel(BuildSocialNetwork(), "hotel"))
            GTEST_SKIP() << "bundled model hotel not present";
        FAIL() << "hotel weights loaded into the social config";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("::Load: loaded shape ["), std::string::npos)
            << "unexpected error: " << what;
        EXPECT_NE(what.find("does not match the layer's ["),
                  std::string::npos)
            << "unexpected error: " << what;
    }
}

// ---------------------------------------------------------------------
// Accuracy gates on the bundled models (skip when absent).
// ---------------------------------------------------------------------

/** Per-percentile divergence bound, as a fraction of the app's QoS.
 *  Measured max on the bundled models is ~2.9% (hotel) and ~1.8%
 *  (social); 5% leaves room without hiding a real regression. */
constexpr double kDivergenceQosFrac = 0.05;
/** Violation-probability divergence bound (measured max 0.04). */
constexpr double kPvDivergence = 0.1;

void
CheckBundledDivergence(const Application& app, const std::string& name)
{
    std::unique_ptr<HybridModel> model = LoadBundledModel(app, name);
    if (!model)
        GTEST_SKIP() << "bundled model " << name << " not present";
    if (!model->Int8Calibrated())
        GTEST_SKIP() << "bundled model " << name << " predates quant";
    const FeatureConfig& f = model->Features();

    ThreadGuard guard;
    SetNumThreads(1);
    for (const double rps : {100.0, 200.0, 350.0}) {
        for (const double frac : {0.2, 0.5, 0.9}) {
            const MetricWindow w =
                MakeWindow(f, rps, frac * f.qos_ms);
            const auto cands = MakeCandidates(f, 32);
            model->SetQuantMode(QuantMode::kOff);
            const std::vector<Prediction> pf = model->Evaluate(w, cands);
            model->SetQuantMode(QuantMode::kInt8);
            const std::vector<Prediction> pq = model->Evaluate(w, cands);
            ASSERT_EQ(pf.size(), pq.size());
            for (size_t i = 0; i < pf.size(); ++i) {
                ASSERT_EQ(pf[i].latency_ms.size(),
                          pq[i].latency_ms.size());
                for (size_t p = 0; p < pf[i].latency_ms.size(); ++p) {
                    EXPECT_LE(std::fabs(pq[i].latency_ms[p] -
                                        pf[i].latency_ms[p]),
                              kDivergenceQosFrac * f.qos_ms)
                        << name << " rps=" << rps << " frac=" << frac
                        << " cand=" << i << " percentile=" << p;
                }
                EXPECT_LE(std::fabs(pq[i].p_violation -
                                    pf[i].p_violation),
                          kPvDivergence)
                    << name << " rps=" << rps << " frac=" << frac
                    << " cand=" << i;
            }
        }
    }
    model->SetQuantMode(QuantMode::kOff);
}

TEST(QuantAccuracy, DivergenceBoundedOnBundledHotel)
{
    CheckBundledDivergence(BuildHotelReservation(), "hotel");
}

TEST(QuantAccuracy, DivergenceBoundedOnBundledSocial)
{
    CheckBundledDivergence(BuildSocialNetwork(), "social");
}

/**
 * Seeded decision-agreement sweep: two schedulers over the same model
 * weights — one fp32, one int8 — fed an identical deterministic
 * observation stream (open loop: the fp32 decision drives the shared
 * allocation so both always compare the same state). The int8 gate is
 * >= 99% bit-equal Decide vectors; with the int8 trunk + fp32 head
 * split the measured agreement is 100% on both bundled models.
 */
void
CheckBundledDecisionAgreement(const Application& app,
                              const std::string& name)
{
    std::unique_ptr<HybridModel> m_off = LoadBundledModel(app, name);
    std::unique_ptr<HybridModel> m_q = LoadBundledModel(app, name);
    if (!m_off || !m_q)
        GTEST_SKIP() << "bundled model " << name << " not present";
    if (!m_off->Int8Calibrated())
        GTEST_SKIP() << "bundled model " << name << " predates quant";
    const FeatureConfig& f = m_off->Features();

    ThreadGuard guard;
    SetNumThreads(1);
    SchedulerConfig c_off;
    SchedulerConfig c_q;
    c_q.quant = QuantMode::kInt8;
    SinanScheduler s_off(*m_off, c_off);
    SinanScheduler s_q(*m_q, c_q);

    std::vector<double> alloc(static_cast<size_t>(f.n_tiers));
    for (size_t i = 0; i < alloc.size(); ++i)
        alloc[i] = app.tiers[i].init_cpu;

    const int intervals = 300;
    int agree = 0;
    for (int t = 0; t < intervals; ++t) {
        // Deterministic load/latency waves that sweep the decision
        // space (holds, upscales, reclaim streaks, near-threshold
        // predictions) without RNG.
        const double rps =
            80.0 + 260.0 * (0.5 + 0.5 * std::sin(t * 0.13));
        const double util =
            0.3 + 0.65 * (0.5 + 0.5 * std::sin(t * 0.071 + 1.0));
        const double p99 =
            f.qos_ms *
            (0.15 + 0.8 * (0.5 + 0.5 * std::sin(t * 0.057 + 2.0)));
        const IntervalObservation obs =
            MakeObs(f, t, rps, alloc[0], util, p99);
        const std::vector<double> a_off = s_off.Decide(obs, alloc, app);
        const std::vector<double> a_q = s_q.Decide(obs, alloc, app);
        if (a_off == a_q)
            ++agree;
        alloc = a_off;
    }
    EXPECT_GE(agree, static_cast<int>(0.99 * intervals))
        << name << ": " << agree << "/" << intervals
        << " identical decisions";
}

TEST(QuantAccuracy, DecisionAgreementOnBundledHotel)
{
    CheckBundledDecisionAgreement(BuildHotelReservation(), "hotel");
}

TEST(QuantAccuracy, DecisionAgreementOnBundledSocial)
{
    CheckBundledDecisionAgreement(BuildSocialNetwork(), "social");
}

} // namespace
} // namespace sinan
