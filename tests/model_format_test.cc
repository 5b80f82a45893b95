/**
 * @file
 * Tests of the model container, the only model format: the versioned
 * container round-trips the calibration record, the record itself is
 * pinned bit for bit in both dispatch modes, the bundled models
 * re-save byte for byte, old readers reject a versioned file with a
 * clear error, and pre-container streams, unknown future versions and
 * weights for another config are rejected by name.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/apps.h"
#include "bundled_model.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "harness/harness.h"
#include "models/hybrid.h"
#include "test_util.h"

namespace sinan {
namespace {

using testutil::MakeCandidates;
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
// Model container on a small trained hybrid.
// ---------------------------------------------------------------------

class ModelFormatTest : public ::testing::Test {
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

FeatureConfig* ModelFormatTest::features_ = nullptr;
HybridModel* ModelFormatTest::model_ = nullptr;
Dataset* ModelFormatTest::calib_ = nullptr;

TEST_F(ModelFormatTest, CalibrationLeavesFp32BytesAlone)
{
    const MetricWindow w = MakeWindow(*features_, 150, 120);
    const auto cands = MakeCandidates(*features_, 24);

    ThreadGuard guard;
    SetNumThreads(1);
    const std::vector<Prediction> ref = model_->Evaluate(w, cands);
    // Calibration only records activation maxima: it runs the fp32
    // path through the model's workspace but never touches a weight.
    model_->CalibrateInt8(*calib_);
    ASSERT_TRUE(model_->Int8Calibrated());
    ExpectPredictionsBitIdentical(model_->Evaluate(w, cands), ref,
                                  "fp32 after calibration");
}

TEST_F(ModelFormatTest, VersionedRoundTripPreservesCalibration)
{
    const MetricWindow w = MakeWindow(*features_, 150, 120);
    const auto cands = MakeCandidates(*features_, 12);
    if (!model_->Int8Calibrated())
        model_->CalibrateInt8(*calib_);

    ThreadGuard guard;
    SetNumThreads(1);
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
        << "the calibration section must survive a round trip";
    EXPECT_EQ(loaded.Cnn().Calibration()->Values(),
              model_->Cnn().Calibration()->Values());
    ExpectPredictionsBitIdentical(loaded.Evaluate(w, cands), ref_fp32,
                                  "fp32 after versioned round trip");
}

TEST_F(ModelFormatTest, OldReaderRejectsVersionedFileCleanly)
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

TEST_F(ModelFormatTest, UnknownFutureVersionIsRejectedByName)
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

TEST_F(ModelFormatTest, PreContainerStreamIsRejectedByName)
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

TEST_F(ModelFormatTest, WiderTreeEnsembleIsRejectedByName)
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
    const int32_t has_cal = 0;
    out.write(reinterpret_cast<const char*>(&has_cal), sizeof(has_cal));

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

TEST(CalibrationRecord, ActScalesArePinnedOnASyntheticRun)
{
    // CalibrateInt8 on an untrained model over a fixed synthetic set.
    // The concat scale is fc_latent's input maximum, the max over the
    // rh, lh and rc embeddings its rows are made of; all seven values
    // are pinned to the bytes a materialized [rh | lh | rc] batch gave.
    const FeatureConfig f = SmallFeatures();
    const Dataset calib = SyntheticDataset(f, 40, 811);
    const uint32_t kPinned[kCnnCalibrationSize] = {
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
        const auto scales = model.Cnn().Calibration()->Values();
        for (int i = 0; i < kCnnCalibrationSize; ++i) {
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

} // namespace
} // namespace sinan
