/**
 * @file
 * Tests of the model container, the only model format: the versioned
 * container round-trips the calibration record, the record itself is
 * pinned bit for bit in both dispatch modes, the bundled models
 * re-save byte for byte, old readers reject a versioned file with a
 * clear error, and pre-container streams, unknown future versions and
 * weights for another config are rejected by name. A constructed model
 * draws its weights lazily, with the bytes of the eager draw, and a
 * loaded one never draws and holds no gradient buffers.
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
#include "common/check.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "golden_util.h"
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

    // A pre-container reader starts with a tensor header, which reads
    // the magic as a tensor rank. kModelMagic is far outside the valid
    // rank range by design, so the old reader fails loudly at byte 0
    // instead of shoveling garbage into weights.
    std::istringstream in(out.str());
    try {
        (void)Tensor::LoadHeader(in);
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

TEST_F(ModelFormatTest, UnbackedTensorHeaderFailsWithoutAllocating)
{
    // A container whose first CNN tensor claims [1<<20, 1<<20] (4 TiB
    // of floats) with nothing behind it: Load must refuse it by shape,
    // before sizing any buffer from the header.
    std::ostringstream out;
    out.write(reinterpret_cast<const char*>(&kModelMagic),
              sizeof(kModelMagic));
    out.write(reinterpret_cast<const char*>(&kModelVersion),
              sizeof(kModelVersion));
    const int32_t header[3] = {2, 1 << 20, 1 << 20};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));

    HybridModel loaded(*features_, DefaultHybridConfig(), 999);
    std::istringstream in(out.str());
    const uint64_t before = Tensor::AllocationEvents();
    try {
        loaded.Load(in);
        FAIL() << "a 4 TiB tensor header was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "Conv2D::Load: loaded shape [1048576, 1048576]"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
    EXPECT_EQ(Tensor::AllocationEvents(), before);
}

// ---------------------------------------------------------------------
// Lazy initialization: the Kaiming draws and gradient buffers wait for
// first use, and the bytes are the eager constructor's.
// ---------------------------------------------------------------------

std::string
SavedBytes(const HybridModel& model)
{
    std::ostringstream out;
    model.Save(out);
    return out.str();
}

HybridModel
UntrainedAppModel(const Application& app, uint64_t seed)
{
    return HybridModel(AppFeatures(app, PipelineConfig{}),
                       DefaultHybridConfig(), seed);
}

/** The committed bytes of bench_cache/@p name.model; empty when the
 *  file is absent. */
std::string
BundledModelBytes(const std::string& name)
{
    std::ifstream file(std::string(SINAN_REPO_ROOT) + "/bench_cache/" +
                           name + ".model",
                       std::ios::binary);
    std::ostringstream bytes;
    if (file)
        bytes << file.rdbuf();
    return bytes.str();
}

TEST(LazyInit, UntrainedSaveKeepsTheEagerDrawsBytes)
{
    // Save of a freshly constructed model, recorded from the eager
    // constructor (which drew every weight before returning).
    struct Case {
        bool hotel;
        uint64_t seed;
        size_t size;
        uint64_t fnv1a64;
    };
    const Case cases[] = {
        {true, 1, 152352, 0x6e7f7883a95f7c41ULL},
        {true, 999, 152352, 0xef8ba9ed846aecc9ULL},
        {false, 1, 237888, 0x004c2968138487a2ULL},
        {false, 999, 237888, 0xdd5245ead2cd71b1ULL},
    };
    for (const Case& c : cases) {
        const Application app =
            c.hotel ? BuildHotelReservation() : BuildSocialNetwork();
        const HybridModel model = UntrainedAppModel(app, c.seed);
        const std::string bytes = SavedBytes(model);
        EXPECT_EQ(bytes.size(), c.size) << app.name << " seed " << c.seed;
        EXPECT_EQ(testutil::Fnv1a64(bytes), c.fnv1a64)
            << app.name << " seed " << c.seed;
    }
}

TEST(LazyInit, EveryFirstUseDrawsTheSameWeights)
{
    const Application app = BuildHotelReservation();
    HybridModel save_first = UntrainedAppModel(app, 7);
    const std::string expected = SavedBytes(save_first);
    // A const Save draws into a copy: the model itself stays undrawn.
    EXPECT_TRUE(save_first.Cnn().WeightsPending());

    HybridModel params_first = UntrainedAppModel(app, 7);
    (void)params_first.Cnn().Params();
    EXPECT_FALSE(params_first.Cnn().WeightsPending());
    EXPECT_TRUE(SavedBytes(params_first) == expected) << "Params() first";

    const HybridModel undrawn = UntrainedAppModel(app, 7);
    const std::unique_ptr<HybridModel> clone = undrawn.Clone();
    EXPECT_TRUE(SavedBytes(*clone) == expected) << "Clone, then Save";

    HybridModel evaluate_first = UntrainedAppModel(app, 7);
    const FeatureConfig& f = evaluate_first.Features();
    (void)evaluate_first.Evaluate(MakeWindow(f, 150, 60),
                                  MakeCandidates(f, 4));
    EXPECT_TRUE(SavedBytes(evaluate_first) == expected) << "Evaluate first";
}

TEST(LazyInit, LoadDrawsNothingAndLeavesNoGradients)
{
    const Application app = BuildSocialNetwork();
    const std::string bytes = BundledModelBytes("social");
    if (bytes.empty())
        GTEST_SKIP() << "bundled model social not present";

    // Construction allocates one buffer per parameter tensor, each
    // sized from the layer's own shape; Load reads into them in place.
    const uint64_t before = Tensor::AllocationEvents();
    HybridModel loaded = UntrainedAppModel(app, 5);
    EXPECT_TRUE(loaded.Cnn().WeightsPending());
    const uint64_t constructed = Tensor::AllocationEvents();
    std::istringstream in(bytes);
    loaded.Load(in);
    EXPECT_FALSE(loaded.Cnn().WeightsPending());
    EXPECT_EQ(Tensor::AllocationEvents(), constructed) << "Load allocated";

    const std::vector<Param*> params = loaded.Cnn().Params();
    EXPECT_LE(constructed - before, params.size());
    for (const Param* p : params)
        EXPECT_FALSE(p->HasGrad());
    const std::unique_ptr<HybridModel> clone = loaded.Clone();
    for (const Param* p : clone->Cnn().Params())
        EXPECT_FALSE(p->HasGrad());
    EXPECT_TRUE(SavedBytes(loaded) == bytes);
}

TEST(LazyInit, SeededTrainingRunKeepsItsBytes)
{
    // Training sizes the gradients on first use; the result must be
    // the bytes the eager zeroed gradients gave (recorded from the
    // eager implementation, and thread-count and dispatch independent).
    const FeatureConfig f = SmallFeatures();
    const Dataset all = SyntheticDataset(f, 120, 907);
    Rng rng(908);
    const auto [train, valid] = all.Split(0.9, rng);
    HybridConfig cfg;
    cfg.train.epochs = 2;
    cfg.bt.n_trees = 10;
    HybridModel model(f, cfg, 909);
    model.Train(train, valid);
    model.CalibrateInt8(train, 32);
    const std::string bytes = SavedBytes(model);
    EXPECT_EQ(bytes.size(), 38684u);
    EXPECT_EQ(testutil::Fnv1a64(bytes), 0xe0f54fbdb67f95d9ULL);
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
    for (const SimdMode mode : {SimdMode::kAuto, SimdMode::kOff}) {
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
    const std::string committed = BundledModelBytes(name);
    const std::string resaved = SavedBytes(*model);
    EXPECT_TRUE(resaved == committed)
        << name << ": re-saved " << resaved.size()
        << " bytes differ from the committed " << committed.size();
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

TEST(BundledModelFormat, EveryTruncatedSocialContainerFailsCleanly)
{
    // The container is the one reader of untrusted model bytes. Each
    // prefix of the social model (every cut in the first and last 64
    // bytes, every 61st byte between) must fail as a format error,
    // never as a broken contract, and without sizing a tensor from the
    // bytes it read.
    const Application app = BuildSocialNetwork();
    const std::string bytes = BundledModelBytes("social");
    if (bytes.size() < 64)
        GTEST_SKIP() << "bundled model social not present";
    std::vector<size_t> cuts;
    for (size_t cut = 0; cut < bytes.size(); cut += cut < 64 ? 1 : 61)
        cuts.push_back(cut);
    for (size_t cut = bytes.size() - 64; cut < bytes.size(); ++cut)
        cuts.push_back(cut);
    for (const size_t cut : cuts) {
        HybridModel loaded = UntrainedAppModel(app, 5);
        std::istringstream in(bytes.substr(0, cut));
        const uint64_t before = Tensor::AllocationEvents();
        try {
            loaded.Load(in);
            ADD_FAILURE() << "a " << cut << "-byte prefix loaded";
        } catch (const ContractViolation& e) {
            ADD_FAILURE() << "cut " << cut << ": " << e.what();
        } catch (const std::runtime_error&) {
        }
        EXPECT_EQ(Tensor::AllocationEvents(), before) << "cut " << cut;
    }
}

} // namespace
} // namespace sinan
