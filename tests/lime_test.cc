/**
 * @file
 * Tests for the LIME explainer: the ridge solver, and attribution on a
 * planted model whose output depends on exactly one tier / one resource
 * channel.
 */
#include <gtest/gtest.h>

#include "explain/lime.h"
#include "test_util.h"

namespace sinan {
namespace {

using testutil::SmallFeatures;
using testutil::SyntheticDataset;

TEST(SolveRidge, SolvesKnownSystem)
{
    // [2 0; 0 4] w = [2; 8] -> w = [1; 2] (lambda = 0).
    const std::vector<double> w =
        SolveRidge({{2, 0}, {0, 4}}, {2, 8}, 0.0);
    EXPECT_NEAR(w[0], 1.0, 1e-9);
    EXPECT_NEAR(w[1], 2.0, 1e-9);
}

TEST(SolveRidge, RegularizationShrinksSolution)
{
    const std::vector<double> w0 =
        SolveRidge({{1, 0}, {0, 1}}, {1, 1}, 0.0);
    const std::vector<double> w1 =
        SolveRidge({{1, 0}, {0, 1}}, {1, 1}, 1.0);
    EXPECT_LT(w1[0], w0[0]);
}

TEST(SolveRidge, HandlesPivoting)
{
    // Requires a row swap: [0 1; 1 0] w = [3; 5] -> w = [5; 3].
    const std::vector<double> w =
        SolveRidge({{0, 1}, {1, 0}}, {3, 5}, 0.0);
    EXPECT_NEAR(w[0], 5.0, 1e-9);
    EXPECT_NEAR(w[1], 3.0, 1e-9);
}

TEST(SolveRidge, RejectsBadInputs)
{
    EXPECT_THROW(SolveRidge({{1, 0}}, {1, 1}, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(SolveRidge({{0, 0}, {0, 0}}, {1, 1}, 0.0),
                 std::runtime_error);
}

/**
 * Planted model: predicted p99 = sum over the history of one specific
 * (channel, tier) cell of X_RH. LIME must attribute importance there.
 */
class PlantedModel : public LatencyModel {
  public:
    PlantedModel(const FeatureConfig& f, int tier, int channel)
        : fcfg_(f), tier_(tier), channel_(channel)
    {
    }

    Tensor
    Forward(const Batch& batch) override
    {
        const int b = batch.Size();
        Tensor y({b, fcfg_.n_percentiles});
        for (int i = 0; i < b; ++i) {
            float acc = 0.0f;
            for (int t = 0; t < fcfg_.history; ++t)
                acc += batch.xrh.At(i, channel_, tier_, t);
            for (int p = 0; p < fcfg_.n_percentiles; ++p)
                y.At(i, p) = acc;
        }
        return y;
    }

    void Backward(const Tensor&) override {}
    std::vector<Param*> Params() override { return {}; }
    const char* Name() const override { return "planted"; }

  private:
    FeatureConfig fcfg_;
    int tier_;
    int channel_;
};

TEST(LimeExplainer, FindsPlantedTier)
{
    const FeatureConfig f = SmallFeatures(6, 3);
    PlantedModel model(f, /*tier=*/4, /*channel=*/2);
    LimeExplainer lime(model, f);
    const Dataset d = SyntheticDataset(f, 1, 5);
    // Make sure the planted cell is non-zero so scaling matters.
    Sample s = d.samples[0];
    for (int t = 0; t < f.history; ++t)
        s.xrh.At(2, 4, t) = 0.5f;
    const LimeExplanation exp = lime.ExplainTiers(s);
    ASSERT_EQ(exp.weights.size(), 6u);
    EXPECT_EQ(exp.TopK(1)[0], 4);
    // The planted tier dominates all others.
    for (int i = 0; i < 6; ++i) {
        if (i != 4) {
            EXPECT_GT(exp.weights[4], 5.0 * exp.weights[i]);
        }
    }
}

TEST(LimeExplainer, FindsPlantedResourceChannel)
{
    const FeatureConfig f = SmallFeatures(6, 3);
    PlantedModel model(f, 4, 2);
    LimeExplainer lime(model, f);
    const Dataset d = SyntheticDataset(f, 1, 7);
    Sample s = d.samples[0];
    for (int t = 0; t < f.history; ++t)
        s.xrh.At(2, 4, t) = 0.5f;
    const LimeExplanation exp = lime.ExplainResources(s, 4);
    ASSERT_EQ(exp.weights.size(),
              static_cast<size_t>(FeatureConfig::kChannels));
    EXPECT_EQ(exp.TopK(1)[0], 2);
}

TEST(LimeExplainer, OtherTiersGetNoWeightFromUnrelatedChannel)
{
    const FeatureConfig f = SmallFeatures(6, 3);
    PlantedModel model(f, 4, 2);
    LimeExplainer lime(model, f);
    const Dataset d = SyntheticDataset(f, 1, 9);
    Sample s = d.samples[0];
    for (int t = 0; t < f.history; ++t)
        s.xrh.At(2, 4, t) = 0.5f;
    // Explaining resources of a DIFFERENT tier: weights all near zero.
    const LimeExplanation exp = lime.ExplainResources(s, 1);
    for (double w : exp.weights)
        EXPECT_LT(w, 0.05);
}

TEST(LimeExplainer, AveragedExplanationAggregates)
{
    const FeatureConfig f = SmallFeatures(4, 3);
    PlantedModel model(f, 1, 0);
    LimeExplainer lime(model, f);
    Dataset d = SyntheticDataset(f, 3, 11);
    std::vector<Sample> xs;
    for (Sample s : d.samples) {
        for (int t = 0; t < f.history; ++t)
            s.xrh.At(0, 1, t) = 0.4f;
        xs.push_back(std::move(s));
    }
    const LimeExplanation exp = lime.ExplainTiersAveraged(xs);
    EXPECT_EQ(exp.TopK(1)[0], 1);
    EXPECT_THROW(lime.ExplainTiersAveraged({}), std::invalid_argument);
}

TEST(LimeExplanation, TopKOrdersByWeight)
{
    LimeExplanation e;
    e.weights = {0.1, 0.9, 0.5};
    const std::vector<int> top = e.TopK(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], 1);
    EXPECT_EQ(top[1], 2);
    EXPECT_EQ(e.TopK(10).size(), 3u);
}

} // namespace
} // namespace sinan
