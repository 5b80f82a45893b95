/**
 * @file
 * Tests for the boosted-trees substrate: learning power on synthetic
 * tasks, early stopping, serialization, importance attribution, and
 * probability calibration basics.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gbt/boosted_trees.h"

namespace sinan {
namespace {

/** Labels = 1 iff x0 > 0.5 (single informative feature out of 4). */
GbtDataset
ThresholdDataset(int n, uint64_t seed)
{
    Rng rng(seed);
    GbtDataset d;
    for (int i = 0; i < n; ++i) {
        std::vector<float> row(4);
        for (float& v : row)
            v = static_cast<float>(rng.Uniform());
        d.AddRow(row, row[0] > 0.5f ? 1.0f : 0.0f);
    }
    return d;
}

/** Labels = XOR(x0>0.5, x1>0.5) — requires depth-2 interaction. */
GbtDataset
XorDataset(int n, uint64_t seed)
{
    Rng rng(seed);
    GbtDataset d;
    for (int i = 0; i < n; ++i) {
        std::vector<float> row(4);
        for (float& v : row)
            v = static_cast<float>(rng.Uniform());
        const bool a = row[0] > 0.5f, b = row[1] > 0.5f;
        d.AddRow(row, (a != b) ? 1.0f : 0.0f);
    }
    return d;
}

double
Accuracy(const BoostedTrees& model, const GbtDataset& d)
{
    int ok = 0;
    for (int i = 0; i < d.n_rows; ++i) {
        const double p =
            model.Predict(&d.x[static_cast<size_t>(i) * d.n_features]);
        if ((p >= 0.5) == (d.y[i] >= 0.5f))
            ++ok;
    }
    return static_cast<double>(ok) / d.n_rows;
}

TEST(BoostedTrees, RejectsBadConfigAndData)
{
    GbtConfig bad;
    bad.n_trees = 0;
    EXPECT_THROW(BoostedTrees{bad}, std::invalid_argument);

    BoostedTrees model;
    GbtDataset empty;
    EXPECT_THROW(model.Train(empty), std::invalid_argument);
}

TEST(BoostedTrees, LearnsThresholdFunction)
{
    BoostedTrees model;
    const GbtDataset train = ThresholdDataset(2000, 1);
    const GbtDataset test = ThresholdDataset(500, 2);
    model.Train(train);
    EXPECT_GT(Accuracy(model, train), 0.98);
    EXPECT_GT(Accuracy(model, test), 0.96);
}

TEST(BoostedTrees, LearnsXorInteraction)
{
    GbtConfig cfg;
    cfg.max_depth = 3;
    cfg.n_trees = 150;
    BoostedTrees model(cfg);
    const GbtDataset train = XorDataset(3000, 3);
    const GbtDataset test = XorDataset(800, 4);
    model.Train(train);
    EXPECT_GT(Accuracy(model, test), 0.93);
}

TEST(BoostedTrees, ProbabilitiesAreCalibratedAtExtremes)
{
    BoostedTrees model;
    model.Train(ThresholdDataset(2000, 5));
    std::vector<float> clearly_pos = {0.95f, 0.5f, 0.5f, 0.5f};
    std::vector<float> clearly_neg = {0.05f, 0.5f, 0.5f, 0.5f};
    EXPECT_GT(model.Predict(clearly_pos), 0.9);
    EXPECT_LT(model.Predict(clearly_neg), 0.1);
}

TEST(BoostedTrees, FeatureImportanceConcentratesOnInformativeFeature)
{
    BoostedTrees model;
    model.Train(ThresholdDataset(2000, 6));
    const std::vector<double> imp = model.FeatureImportance();
    ASSERT_EQ(imp.size(), 4u);
    EXPECT_GT(imp[0], 10.0 * (imp[1] + imp[2] + imp[3] + 1e-9));
}

TEST(BoostedTrees, EarlyStoppingKeepsBestRound)
{
    GbtConfig with_stop;
    with_stop.n_trees = 400;
    with_stop.early_stop_rounds = 5;
    BoostedTrees stopped(with_stop);
    const GbtDataset train = ThresholdDataset(1000, 7);
    const GbtDataset valid = ThresholdDataset(300, 8);
    stopped.Train(train, &valid);
    EXPECT_LT(stopped.NumTrees(), 400);
    EXPECT_GT(stopped.NumTrees(), 0);
    EXPECT_GT(Accuracy(stopped, valid), 0.95);
}

TEST(BoostedTrees, NoValidationSetRunsAllRounds)
{
    GbtConfig cfg;
    cfg.n_trees = 25;
    BoostedTrees model(cfg);
    model.Train(ThresholdDataset(500, 9));
    EXPECT_EQ(model.NumTrees(), 25);
}

TEST(BoostedTrees, RegressionObjectiveLearnsLinearTarget)
{
    Rng rng(10);
    GbtDataset train;
    for (int i = 0; i < 3000; ++i) {
        std::vector<float> row = {
            static_cast<float>(rng.Uniform()),
            static_cast<float>(rng.Uniform()),
        };
        train.AddRow(row, 3.0f * row[0] + row[1]);
    }
    GbtConfig cfg;
    cfg.n_trees = 150;
    cfg.learning_rate = 0.2;
    BoostedTrees model(cfg, BoostedTrees::Objective::kSquared);
    model.Train(train);
    double se = 0.0;
    for (int i = 0; i < train.n_rows; ++i) {
        const double pred = model.Predict(&train.x[i * 2]);
        const double d = pred - static_cast<double>(train.y[i]);
        se += d * d;
    }
    EXPECT_LT(std::sqrt(se / train.n_rows), 0.2);
}

TEST(BoostedTrees, SaveLoadRoundTripsPredictions)
{
    BoostedTrees model;
    const GbtDataset train = ThresholdDataset(800, 11);
    model.Train(train);
    std::stringstream ss;
    model.Save(ss);
    BoostedTrees loaded;
    loaded.Load(ss);
    EXPECT_EQ(loaded.NumTrees(), model.NumTrees());
    for (int i = 0; i < 50; ++i) {
        EXPECT_DOUBLE_EQ(
            loaded.Predict(&train.x[static_cast<size_t>(i) * 4]),
            model.Predict(&train.x[static_cast<size_t>(i) * 4]));
    }
}

TEST(BoostedTrees, LoadRejectsGarbage)
{
    std::stringstream ss("not a model");
    BoostedTrees model;
    EXPECT_THROW(model.Load(ss), std::runtime_error);
}

/** One serialized tree node, laid out as BoostedTrees::Save writes it. */
struct RawNode {
    int32_t feature;
    float threshold;
    int32_t left;
    int32_t right;
    float value;
};

/** A logistic model header claiming @p nf features and @p nt trees;
 *  with @p nt > 0, one tree claiming @p nn nodes follows, of which
 *  only @p nodes are actually written. */
std::string
CraftedModel(int32_t nf, int32_t nt, int32_t nn,
             const std::vector<RawNode>& nodes)
{
    std::ostringstream out;
    const int32_t obj = 0;
    const double base = 0.0;
    out.write(reinterpret_cast<const char*>(&obj), sizeof(obj));
    out.write(reinterpret_cast<const char*>(&nf), sizeof(nf));
    out.write(reinterpret_cast<const char*>(&base), sizeof(base));
    out.write(reinterpret_cast<const char*>(&nt), sizeof(nt));
    if (nt > 0)
        out.write(reinterpret_cast<const char*>(&nn), sizeof(nn));
    for (const RawNode& n : nodes)
        out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    return out.str();
}

/** A one-tree, two-feature logistic model holding @p nodes. */
std::string
OneTreeModel(const std::vector<RawNode>& nodes)
{
    return CraftedModel(2, 1, static_cast<int32_t>(nodes.size()), nodes);
}

/** The runtime_error message Load throws on @p bytes ("" if none). */
std::string
LoadError(BoostedTrees& model, const std::string& bytes)
{
    std::istringstream in(bytes);
    try {
        model.Load(in);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

void
ExpectCorruptTree(const std::string& bytes)
{
    std::istringstream in(bytes);
    BoostedTrees model;
    try {
        model.Load(in);
        FAIL() << "corrupt tree was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "BoostedTrees::Load: corrupt tree");
    }
}

TEST(BoostedTrees, LoadAcceptsWellFormedCraftedTree)
{
    // The control for the corrupt cases below: a stump on feature 1.
    std::istringstream in(OneTreeModel(
        {{1, 0.5f, 1, 2, 0.0f}, {-1, 0.0f, -1, -1, -2.0f},
         {-1, 0.0f, -1, -1, 2.0f}}));
    BoostedTrees model;
    model.Load(in);
    const float lo[2] = {0.9f, 0.1f};
    const float hi[2] = {0.1f, 0.9f};
    EXPECT_LT(model.Predict(lo), 0.5);
    EXPECT_GT(model.Predict(hi), 0.5);
}

TEST(BoostedTrees, LoadRejectsZeroNodeTree)
{
    ExpectCorruptTree(OneTreeModel({}));
}

TEST(BoostedTrees, LoadRejectsOutOfRangeFeature)
{
    for (const int32_t feature : {2, 1000}) {
        ExpectCorruptTree(OneTreeModel(
            {{feature, 0.5f, 1, 2, 0.0f}, {-1, 0.0f, -1, -1, -2.0f},
             {-1, 0.0f, -1, -1, 2.0f}}));
    }
}

TEST(BoostedTrees, LoadRejectsBackwardOrOutOfBoundsChild)
{
    const RawNode leaf{-1, 0.0f, -1, -1, 1.0f};
    // Self loop, an edge back to the root, and children out of bounds.
    ExpectCorruptTree(OneTreeModel({{0, 0.5f, 0, 1, 0.0f}, leaf}));
    ExpectCorruptTree(OneTreeModel(
        {{0, 0.5f, 1, 2, 0.0f}, {1, 0.5f, 0, 2, 0.0f}, leaf}));
    ExpectCorruptTree(OneTreeModel({{0, 0.5f, 1, 2, 0.0f}, leaf}));
    ExpectCorruptTree(OneTreeModel({{0, 0.5f, 2, 1, 0.0f}, leaf}));
    ExpectCorruptTree(OneTreeModel({{0, 0.5f, 1, -7, 0.0f}, leaf}));
}

// The counts in a header are untrusted: a forged one must fail as a
// short read, before anything is sized by it.

TEST(BoostedTrees, LoadRejectsForgedTreeCountBeforeAllocating)
{
    BoostedTrees model;
    const GbtDataset train = ThresholdDataset(200, 5);
    model.Train(train);
    const int trees = model.NumTrees();
    const double before = model.Predict(&train.x[0]);
    // Two billion trees claimed, none present.
    EXPECT_EQ(LoadError(model, CraftedModel(2, INT32_MAX, 0, {})),
              "BoostedTrees::Load: corrupt tree");
    // A failed load leaves the trained model as it was.
    EXPECT_EQ(model.NumTrees(), trees);
    EXPECT_DOUBLE_EQ(model.Predict(&train.x[0]), before);
}

TEST(BoostedTrees, LoadRejectsForgedNodeCountBeforeAllocating)
{
    // One tree claiming two billion nodes, holding three.
    const RawNode leaf{-1, 0.0f, -1, -1, 1.0f};
    BoostedTrees model;
    EXPECT_EQ(LoadError(model,
                        CraftedModel(2, 1, INT32_MAX,
                                     {{1, 0.5f, 1, 2, 0.0f}, leaf, leaf})),
              "BoostedTrees::Load: truncated");
}

TEST(BoostedTrees, LoadSizesNothingByTheFeatureCount)
{
    // A tree-less model claiming a million features loads (the count is
    // only compared against rows later), but no per-feature buffer is
    // sized by it: split gains are not serialized.
    BoostedTrees model;
    EXPECT_EQ(LoadError(model, CraftedModel(1 << 20, 0, 0, {})), "");
    EXPECT_TRUE(model.FeatureImportance().empty());
}

TEST(BoostedTrees, ConstantLabelsPredictThatLabel)
{
    Rng rng(12);
    GbtDataset d;
    for (int i = 0; i < 200; ++i) {
        d.AddRow({static_cast<float>(rng.Uniform())}, 1.0f);
    }
    BoostedTrees model;
    model.Train(d);
    EXPECT_GT(model.Predict(&d.x[0]), 0.95);
}


TEST(BoostedTrees, MinChildWeightLimitsLeafSize)
{
    // A logistic hessian p(1-p) is at most 0.25, so with fewer than 4
    // rows no child can reach GbtConfig::kMinChildWeight = 1.0: the
    // guard rejects every split, although the labels are separable, and
    // the model degenerates to root leaves.
    static_assert(GbtConfig::kMinChildWeight == 1.0);
    GbtDataset train;
    train.AddRow({0.1f}, 0.0f);
    train.AddRow({0.5f}, 1.0f);
    train.AddRow({0.9f}, 1.0f);
    GbtConfig cfg;
    cfg.n_trees = 10;
    BoostedTrees model(cfg);
    model.Train(train);
    EXPECT_EQ(model.NumTrees(), 10);
    EXPECT_NEAR(model.Predict(&train.x[0]), model.Predict(&train.x[1]),
                1e-9);
    EXPECT_NEAR(model.Predict(&train.x[0]), model.Predict(&train.x[2]),
                1e-9);
    EXPECT_EQ(model.FeatureImportance(), std::vector<double>{0.0});
}

TEST(BoostedTrees, ShrinkageSlowsFitting)
{
    const GbtDataset train = ThresholdDataset(800, 25);
    auto margin_after = [&](double lr) {
        GbtConfig cfg;
        cfg.learning_rate = lr;
        cfg.n_trees = 3;
        BoostedTrees model(cfg);
        model.Train(train);
        std::vector<float> pos = {0.9f, 0.5f, 0.5f, 0.5f};
        return std::abs(model.PredictMargin(pos.data()));
    };
    EXPECT_GT(margin_after(0.5), margin_after(0.05));
}

TEST(BoostedTrees, HandlesConstantFeatureColumns)
{
    Rng rng(27);
    GbtDataset d;
    for (int i = 0; i < 300; ++i) {
        const float x = static_cast<float>(rng.Uniform());
        d.AddRow({x, 1.0f, 0.0f}, x > 0.5f ? 1.0f : 0.0f);
    }
    BoostedTrees model;
    model.Train(d); // constant columns must not crash split finding
    EXPECT_GT(Accuracy(model, d), 0.95);
    const auto imp = model.FeatureImportance();
    EXPECT_DOUBLE_EQ(imp[1], 0.0);
    EXPECT_DOUBLE_EQ(imp[2], 0.0);
}

TEST(BoostedTrees, TrainingIsBitIdenticalAcrossThreadCounts)
{
    // Feature-parallel binning/histograms/split search must not change
    // the trained model: the serialized bytes and the predictions of a
    // 1-thread and an N-thread training run have to match exactly.
    const GbtDataset train = XorDataset(1500, 31);
    const GbtDataset valid = XorDataset(400, 32);
    GbtConfig cfg;
    cfg.max_depth = 3;
    cfg.n_trees = 60;
    cfg.early_stop_rounds = 5;

    const int saved = NumThreads();
    SetNumThreads(1);
    BoostedTrees serial(cfg);
    serial.Train(train, &valid);
    std::stringstream serial_bytes;
    serial.Save(serial_bytes);

    for (int threads : {2, 4, 8}) {
        SetNumThreads(threads);
        BoostedTrees parallel(cfg);
        parallel.Train(train, &valid);
        std::stringstream parallel_bytes;
        parallel.Save(parallel_bytes);
        EXPECT_EQ(parallel_bytes.str(), serial_bytes.str())
            << "serialized model differs at " << threads << " threads";
        for (int i = 0; i < 100; ++i) {
            ASSERT_DOUBLE_EQ(
                parallel.Predict(&train.x[static_cast<size_t>(i) * 4]),
                serial.Predict(&train.x[static_cast<size_t>(i) * 4]));
        }
    }
    SetNumThreads(saved);
}

/** Property: predictions are probabilities for any seed/config. */
class GbtProbabilityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GbtProbabilityTest, PredictionsAreInUnitInterval)
{
    const auto [seed, depth] = GetParam();
    GbtConfig cfg;
    cfg.max_depth = depth;
    cfg.n_trees = 60;
    BoostedTrees model(cfg);
    const GbtDataset train =
        XorDataset(600, static_cast<uint64_t>(seed));
    model.Train(train);
    Rng rng(static_cast<uint64_t>(seed) + 100);
    for (int i = 0; i < 200; ++i) {
        std::vector<float> row(4);
        for (float& v : row)
            v = static_cast<float>(rng.Uniform(-1.0, 2.0)); // out of range
        const double p = model.Predict(row);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GbtProbabilityTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(2, 4, 6)));

} // namespace
} // namespace sinan
