/**
 * @file
 * Tests for the NN substrate. The load-bearing checks are numerical
 * gradient verifications (central differences) for every layer and loss,
 * plus end-to-end "SGD learns a simple function" trainability tests.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "conv_reference.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace sinan {
namespace {

/**
 * Verifies layer gradients numerically: perturbs every parameter and a
 * sample of input entries, comparing (L(x+h)-L(x-h))/2h against the
 * analytic gradients, where L = sum of squared outputs / 2 so that
 * dL/dy = y.
 */
void
CheckGradients(Layer& layer, const Tensor& x, double tol = 2e-2)
{
    auto loss_of = [&](const Tensor& in) {
        const Tensor y = layer.Forward(in);
        double acc = 0.0;
        for (size_t i = 0; i < y.Size(); ++i) {
            const double v = static_cast<double>(y[i]);
            acc += 0.5 * v * v;
        }
        return acc;
    };

    // Analytic gradients.
    const Tensor y = layer.Forward(x);
    for (Param* p : layer.Params())
        p->ZeroGrad();
    const Tensor dx = layer.Backward(y); // dL/dy = y

    constexpr float kH = 1e-3f;

    // Input gradient (sample up to 24 entries).
    Tensor xp = x;
    const size_t stride = std::max<size_t>(1, x.Size() / 24);
    for (size_t i = 0; i < x.Size(); i += stride) {
        const float orig = xp[i];
        xp[i] = orig + kH;
        const double up = loss_of(xp);
        xp[i] = orig - kH;
        const double down = loss_of(xp);
        xp[i] = orig;
        const double num =
            (up - down) / (2.0 * static_cast<double>(kH));
        EXPECT_NEAR(num, dx[i], tol * std::max(1.0, std::abs(num)))
            << "input grad mismatch at " << i;
    }

    // Parameter gradients (sample up to 24 entries per param).
    // Re-establish the analytic gradients (loss_of calls clobbered the
    // forward cache).
    (void)layer.Forward(x);
    for (Param* p : layer.Params())
        p->ZeroGrad();
    (void)layer.Backward(layer.Forward(x));
    for (Param* p : layer.Params()) {
        const size_t pstride = std::max<size_t>(1, p->value.Size() / 24);
        for (size_t i = 0; i < p->value.Size(); i += pstride) {
            const float orig = p->value[i];
            p->value[i] = orig + kH;
            const double up = loss_of(x);
            p->value[i] = orig - kH;
            const double down = loss_of(x);
            p->value[i] = orig;
            const double num =
                (up - down) / (2.0 * static_cast<double>(kH));
            EXPECT_NEAR(num, p->Grad()[i],
                        tol * std::max(1.0, std::abs(num)))
                << "param grad mismatch at " << i;
        }
    }
}

TEST(Param, GradientIsSizedOnFirstUse)
{
    Rng rng(3);
    Dense d(3, 2, rng);
    for (Param* p : d.Params()) {
        EXPECT_FALSE(p->HasGrad());
        const Tensor& g = p->Grad();
        EXPECT_TRUE(p->HasGrad());
        ASSERT_EQ(g.Shape(), p->value.Shape());
        for (size_t i = 0; i < g.Size(); ++i)
            EXPECT_EQ(g[i], 0.0f);
    }
}

TEST(Param, DeferredDrawsMatchTheDrawingConstructors)
{
    Rng a(11), b(11);
    const Dense dense_eager(5, 3, a);
    const Conv2D conv_eager(2, 4, 3, a);
    Dense dense_lazy(5, 3);
    Conv2D conv_lazy(2, 4, 3);
    dense_lazy.DrawWeights(b);
    conv_lazy.DrawWeights(b);
    std::ostringstream eager, lazy;
    dense_eager.Save(eager);
    conv_eager.Save(eager);
    dense_lazy.Save(lazy);
    conv_lazy.Save(lazy);
    EXPECT_TRUE(eager.str() == lazy.str());
}

TEST(Dense, ForwardMatchesHandComputation)
{
    Rng rng(1);
    Dense d(2, 2, rng);
    // Overwrite weights with known values: y = xW + b.
    Param* w = d.Params()[0];
    Param* b = d.Params()[1];
    w->value.At(0, 0) = 1.0f;
    w->value.At(0, 1) = 2.0f;
    w->value.At(1, 0) = 3.0f;
    w->value.At(1, 1) = 4.0f;
    b->value[0] = 0.5f;
    b->value[1] = -0.5f;
    Tensor x({1, 2});
    x.At(0, 0) = 1.0f;
    x.At(0, 1) = 2.0f;
    const Tensor y = d.Forward(x);
    EXPECT_FLOAT_EQ(y.At(0, 0), 7.5f);  // 1*1 + 2*3 + 0.5
    EXPECT_FLOAT_EQ(y.At(0, 1), 9.5f);  // 1*2 + 2*4 - 0.5
}

TEST(Dense, GradientsMatchNumerics)
{
    Rng rng(2);
    Dense d(4, 3, rng);
    const Tensor x = Tensor::Randn({5, 4}, rng);
    CheckGradients(d, x);
}

TEST(Dense, RejectsBadShapes)
{
    Rng rng(1);
    Dense d(3, 2, rng);
    EXPECT_THROW(d.Forward(Tensor({2, 4})), std::invalid_argument);
    EXPECT_THROW(Dense(0, 2, rng), std::invalid_argument);
}

TEST(ReLU, ForwardClampsAndBackwardMasks)
{
    ReLU r;
    Tensor x({1, 4});
    x[0] = -1.0f; x[1] = 2.0f; x[2] = 0.0f; x[3] = 3.0f;
    const Tensor y = r.Forward(x);
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 2.0f);
    Tensor dy({1, 4});
    dy.Fill(1.0f);
    const Tensor dx = r.Backward(dy);
    EXPECT_EQ(dx[0], 0.0f);
    EXPECT_EQ(dx[1], 1.0f);
    EXPECT_EQ(dx[3], 1.0f);
}

TEST(ReLU, InPlaceMatchesTernaryBitForBit)
{
    // ReluInPlace is branchless bit arithmetic; it must produce exactly
    // the bytes of `x > 0 ? x : 0` on every class of float, including
    // the ones a value comparison cannot tell apart (-0 vs +0, NaNs).
    const uint32_t patterns[] = {
        0x00000000u, // +0
        0x80000000u, // -0
        0x00000001u, // least positive denormal
        0x007fffffu, // largest positive denormal
        0x80000001u, // least negative denormal
        0x807fffffu, // largest negative denormal
        0x00800000u, // FLT_MIN
        0x80800000u, // -FLT_MIN
        0x3f800000u, // 1
        0xbf800000u, // -1
        0x7f7fffffu, // FLT_MAX
        0xff7fffffu, // -FLT_MAX
        0x7f800000u, // +inf
        0xff800000u, // -inf
        0x7f800001u, // signalling NaN
        0x7fc00000u, // quiet NaN
        0x7fffffffu, // NaN, all payload bits
        0xffc00000u, // negative quiet NaN
        0xffffffffu, // negative NaN, all payload bits
        0x40490fdbu, // pi
        0xc0490fdbu, // -pi
    };
    Tensor t({1, static_cast<int>(std::size(patterns))});
    for (size_t i = 0; i < std::size(patterns); ++i)
        std::memcpy(t.Data() + i, &patterns[i], sizeof(float));
    const Tensor in = t;
    ReluInPlace(t);
    for (size_t i = 0; i < std::size(patterns); ++i) {
        const float x = in[i];
        const float want = x > 0.0f ? x : 0.0f;
        uint32_t want_bits = 0, got_bits = 0;
        std::memcpy(&want_bits, &want, sizeof(want));
        std::memcpy(&got_bits, t.Data() + i, sizeof(float));
        EXPECT_EQ(got_bits, want_bits)
            << std::hex << "input bits 0x" << patterns[i];
    }
}

TEST(Conv2D, IdentityKernelPassesThrough)
{
    Rng rng(3);
    Conv2D conv(1, 1, 3, rng);
    Param* w = conv.Params()[0];
    Param* b = conv.Params()[1];
    w->value.Fill(0.0f);
    w->value.At(0, 0, 1, 1) = 1.0f; // center tap
    b->value.Fill(0.0f);
    Tensor x({1, 1, 4, 4});
    for (size_t i = 0; i < x.Size(); ++i)
        x[i] = static_cast<float>(i);
    const Tensor y = conv.Forward(x);
    for (size_t i = 0; i < x.Size(); ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2D, SamePaddingZerosOutsideBorders)
{
    Rng rng(3);
    Conv2D conv(1, 1, 3, rng);
    Param* w = conv.Params()[0];
    Param* b = conv.Params()[1];
    w->value.Fill(1.0f); // box filter
    b->value.Fill(0.0f);
    Tensor x({1, 1, 3, 3});
    x.Fill(1.0f);
    const Tensor y = conv.Forward(x);
    EXPECT_FLOAT_EQ(y.At(0, 0, 1, 1), 9.0f); // full 3x3 neighborhood
    EXPECT_FLOAT_EQ(y.At(0, 0, 0, 0), 4.0f); // corner sees 2x2
}

TEST(Conv2D, GradientsMatchNumerics)
{
    Rng rng(4);
    Conv2D conv(2, 3, 3, rng);
    const Tensor x = Tensor::Randn({2, 2, 5, 4}, rng);
    CheckGradients(conv, x);
}

TEST(Conv2D, ForwardMatchesNaiveReferenceBitwise)
{
    // The layer's direct kernel against the naive 7-deep loop, byte for
    // byte, in both dispatch modes: batch 1 and 5, every channel-count
    // tier of the AVX2 panels (one partial panel, one full, a full one
    // plus a partial), single rows and columns, negative weights, and
    // inputs holding +-0.0f and denormals.
    const SimdMode saved = CurrentSimdMode();
    Rng rng(41);
    const std::vector<std::pair<int, int>> planes = {
        {1, 1}, {1, 6}, {7, 1}, {4, 5}, {9, 13}};
    for (const int kernel : {1, 3, 5}) {
        for (const int in_c : {1, 6, 8}) {
            for (const int out_c : {1, 8, 11}) {
                Conv2D conv(in_c, out_c, kernel, rng);
                Tensor& b = conv.Params()[1]->value;
                b = Tensor::Randn({out_c}, rng, 0.3f);
                const Tensor& w = conv.Params()[0]->value;
                for (const auto& [h, wd] : planes) {
                    for (const int batch : {1, 5}) {
                        const Tensor x = testutil::MixedConvInput(
                            {batch, in_c, h, wd}, rng);
                        const Tensor ref =
                            testutil::NaiveConvForward(x, w, b, kernel);
                        for (const SimdMode mode :
                             {SimdMode::kAuto, SimdMode::kOff}) {
                            SetSimdMode(mode);
                            Tensor y;
                            conv.ForwardInto(x, y);
                            ASSERT_EQ(y.Shape(), ref.Shape());
                            ASSERT_EQ(std::memcmp(y.Data(), ref.Data(),
                                                  y.Size() * sizeof(float)),
                                      0)
                                << "k=" << kernel << " in_c=" << in_c
                                << " out_c=" << out_c << " " << h << "x"
                                << wd << " batch=" << batch << " kernel "
                                << ActiveKernelId();
                        }
                    }
                }
            }
        }
    }
    SetSimdMode(saved);
}

TEST(Conv2D, RejectsEvenKernel)
{
    Rng rng(1);
    EXPECT_THROW(Conv2D(1, 1, 2, rng), std::invalid_argument);
}

TEST(Flatten, RoundTripsShape)
{
    Flatten f;
    Tensor x({2, 3, 4});
    const Tensor y = f.Forward(x);
    EXPECT_EQ(y.Shape(), (std::vector<int>{2, 12}));
    const Tensor back = f.Backward(y);
    EXPECT_EQ(back.Shape(), (std::vector<int>{2, 3, 4}));
}

TEST(Lstm, GradientsMatchNumerics)
{
    Rng rng(5);
    Lstm lstm(3, 4, rng);
    const Tensor x = Tensor::Randn({2, 4, 3}, rng);
    CheckGradients(lstm, x, 3e-2);
}

TEST(Lstm, OutputShapeIsLastHidden)
{
    Rng rng(5);
    Lstm lstm(3, 6, rng);
    const Tensor y = lstm.Forward(Tensor::Randn({4, 5, 3}, rng));
    EXPECT_EQ(y.Shape(), (std::vector<int>{4, 6}));
}

TEST(Sequential, ChainsLayersAndCollectsParams)
{
    Rng rng(6);
    Sequential seq;
    seq.Emplace<Dense>(4, 8, rng);
    seq.Emplace<ReLU>();
    seq.Emplace<Dense>(8, 2, rng);
    EXPECT_EQ(seq.NumLayers(), 3u);
    EXPECT_EQ(seq.Params().size(), 4u);
    EXPECT_EQ(seq.NumParams(), 4u * 8u + 8u + 8u * 2u + 2u);
    const Tensor y = seq.Forward(Tensor::Randn({3, 4}, rng));
    EXPECT_EQ(y.Shape(), (std::vector<int>{3, 2}));
}

TEST(ScalePhi, IdentityBelowKneeCompressedAbove)
{
    EXPECT_DOUBLE_EQ(ScalePhi(50.0, 100.0, 0.01), 50.0);
    EXPECT_DOUBLE_EQ(ScalePhi(100.0, 100.0, 0.01), 100.0);
    // Above the knee: compressed but monotone and bounded by t + 1/a.
    const double v1 = ScalePhi(200.0, 100.0, 0.01);
    const double v2 = ScalePhi(400.0, 100.0, 0.01);
    EXPECT_GT(v1, 100.0);
    EXPECT_GT(v2, v1);
    EXPECT_LT(v2, 100.0 + 1.0 / 0.01);
    // Continuity at the knee.
    EXPECT_NEAR(ScalePhi(100.0 + 1e-9, 100.0, 0.01), 100.0, 1e-6);
}

TEST(ScalePhi, LargerAlphaCompressesMore)
{
    const double a = ScalePhi(300.0, 100.0, 0.005);
    const double b = ScalePhi(300.0, 100.0, 0.02);
    EXPECT_GT(a, b);
}

TEST(ScalePhiGrad, MatchesNumericalDerivative)
{
    for (double x : {50.0, 150.0, 400.0}) {
        const double h = 1e-5;
        const double num = (ScalePhi(x + h, 100.0, 0.01) -
                            ScalePhi(x - h, 100.0, 0.01)) /
                           (2 * h);
        EXPECT_NEAR(ScalePhiGrad(x, 100.0, 0.01), num, 1e-6);
    }
}

TEST(MseLoss, ValueAndGradient)
{
    Tensor pred({1, 2}), target({1, 2});
    pred[0] = 1.0f; pred[1] = 3.0f;
    target[0] = 0.0f; target[1] = 1.0f;
    const LossResult r = MseLoss(pred, target);
    EXPECT_NEAR(r.value, (1.0 + 4.0) / 2.0, 1e-6);
    EXPECT_NEAR(r.grad[0], 2.0 * 1.0 / 2.0, 1e-6);
    EXPECT_NEAR(r.grad[1], 2.0 * 2.0 / 2.0, 1e-6);
    EXPECT_THROW(MseLoss(pred, Tensor({3})), std::invalid_argument);
}

TEST(ScaledMseLoss, GradientMatchesNumerics)
{
    Rng rng(8);
    Tensor pred({2, 3});
    Tensor target({2, 3});
    for (size_t i = 0; i < pred.Size(); ++i) {
        pred[i] = static_cast<float>(rng.Uniform(0.0, 3.0));
        target[i] = static_cast<float>(rng.Uniform(0.0, 3.0));
    }
    const LossResult r = ScaledMseLoss(pred, target, 1.0, 5.0);
    constexpr float kH = 1e-3f;
    for (size_t i = 0; i < pred.Size(); ++i) {
        Tensor p = pred;
        p[i] += kH;
        const double up = ScaledMseLoss(p, target, 1.0, 5.0).value;
        p[i] -= 2 * kH;
        const double down = ScaledMseLoss(p, target, 1.0, 5.0).value;
        EXPECT_NEAR((up - down) / (2.0 * static_cast<double>(kH)),
                    r.grad[i], 2e-3);
    }
}

TEST(ScaledMseLoss, DownweightsErrorsAboveKnee)
{
    Tensor pred({1, 1}), target({1, 1});
    // Same absolute error below vs above the knee.
    pred[0] = 0.5f;
    target[0] = 0.7f;
    const double below = ScaledMseLoss(pred, target, 1.0, 5.0).value;
    pred[0] = 3.0f;
    target[0] = 3.2f;
    const double above = ScaledMseLoss(pred, target, 1.0, 5.0).value;
    EXPECT_LT(above, below);
}

TEST(BceWithLogitsLoss, MatchesReferenceValues)
{
    Tensor logits({1, 2}), target({1, 2});
    logits[0] = 0.0f; logits[1] = 2.0f;
    target[0] = 1.0f; target[1] = 0.0f;
    const LossResult r = BceWithLogitsLoss(logits, target);
    const double expected =
        (std::log(2.0) + (std::log1p(std::exp(-2.0)) + 2.0)) / 2.0;
    EXPECT_NEAR(r.value, expected, 1e-6);
    // Gradient = (sigmoid(z) - y) / n.
    EXPECT_NEAR(r.grad[0], (0.5 - 1.0) / 2.0, 1e-6);
    EXPECT_NEAR(r.grad[1], (1.0 / (1.0 + std::exp(-2.0))) / 2.0, 1e-6);
}

TEST(BceWithLogitsLoss, GradientMatchesNumerics)
{
    Tensor logits({1, 3}), target({1, 3});
    logits[0] = -1.5f; logits[1] = 0.3f; logits[2] = 4.0f;
    target[0] = 0.0f; target[1] = 1.0f; target[2] = 1.0f;
    const LossResult r = BceWithLogitsLoss(logits, target);
    constexpr float kH = 1e-3f;
    for (size_t i = 0; i < logits.Size(); ++i) {
        Tensor l = logits;
        l[i] += kH;
        const double up = BceWithLogitsLoss(l, target).value;
        l[i] -= 2 * kH;
        const double down = BceWithLogitsLoss(l, target).value;
        EXPECT_NEAR((up - down) / (2.0 * static_cast<double>(kH)),
                    r.grad[i], 1e-4);
    }
}

TEST(Sgd, LearnsLinearRegression)
{
    // y = 2x - 1 learned by a single Dense layer.
    Rng rng(10);
    Dense d(1, 1, rng);
    Sgd sgd(d.Params(), 0.05, 0.9, 0.0);
    for (int step = 0; step < 400; ++step) {
        Tensor x({8, 1}), y({8, 1});
        for (int i = 0; i < 8; ++i) {
            const float v = static_cast<float>(rng.Uniform(-1.0, 1.0));
            x.At(i, 0) = v;
            y.At(i, 0) = 2.0f * v - 1.0f;
        }
        const Tensor pred = d.Forward(x);
        const LossResult loss = MseLoss(pred, y);
        sgd.ZeroGrad();
        d.Backward(loss.grad);
        sgd.Step();
    }
    EXPECT_NEAR(d.Params()[0]->value[0], 2.0f, 0.05);
    EXPECT_NEAR(d.Params()[1]->value[0], -1.0f, 0.05);
}

TEST(Sgd, WeightDecayShrinksIdleWeights)
{
    Rng rng(11);
    Dense d(2, 2, rng);
    const float before = std::abs(d.Params()[0]->value[0]);
    Sgd sgd(d.Params(), 0.1, 0.0, 0.1);
    for (int i = 0; i < 50; ++i) {
        sgd.ZeroGrad();
        sgd.Step(); // zero gradients: only decay acts
    }
    EXPECT_LT(std::abs(d.Params()[0]->value[0]), before);
}

TEST(Sgd, RejectsBadLearningRate)
{
    Rng rng(1);
    Dense d(1, 1, rng);
    EXPECT_THROW(Sgd(d.Params(), 0.0), std::invalid_argument);
}

/** Property: one SGD step along the gradient reduces loss for any seed. */
class SgdDescentTest : public ::testing::TestWithParam<int> {};

TEST_P(SgdDescentTest, SingleStepReducesLoss)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    Sequential net;
    net.Emplace<Dense>(3, 6, rng);
    net.Emplace<ReLU>();
    net.Emplace<Dense>(6, 1, rng);
    const Tensor x = Tensor::Randn({16, 3}, rng);
    Tensor y({16, 1});
    for (int i = 0; i < 16; ++i)
        y.At(i, 0) = static_cast<float>(rng.Uniform(-1.0, 1.0));

    Sgd sgd(net.Params(), 0.01, 0.0, 0.0);
    const LossResult before = MseLoss(net.Forward(x), y);
    sgd.ZeroGrad();
    net.Backward(before.grad);
    sgd.Step();
    const LossResult after = MseLoss(net.Forward(x), y);
    EXPECT_LT(after.value, before.value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SgdDescentTest, ::testing::Range(1, 11));

} // namespace
} // namespace sinan
