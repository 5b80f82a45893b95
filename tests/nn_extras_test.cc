/**
 * @file
 * Tests for SGD gradient clipping and the SGD descent property on a
 * convex quadratic.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace sinan {
namespace {

TEST(SgdClip, LargeGradientIsClipped)
{
    Rng rng(7);
    Dense d(1, 1, rng);
    const float before = d.Params()[0]->value[0];
    Sgd sgd(d.Params(), 0.1, 0.0, 0.0, /*clip_norm=*/1.0);
    d.Params()[0]->Grad()[0] = 1e6f;
    sgd.Step();
    // Clipped to norm 1 -> step size <= lr * 1.
    EXPECT_LE(std::abs(d.Params()[0]->value[0] - before), 0.11f);
}

TEST(SgdClip, SmallGradientsUnaffected)
{
    Rng rng(7);
    Dense a(1, 1, rng);
    Rng rng2(7);
    Dense b(1, 1, rng2);
    Sgd sa(a.Params(), 0.1, 0.0, 0.0, 0.0);
    Sgd sb(b.Params(), 0.1, 0.0, 0.0, 100.0);
    a.Params()[0]->Grad()[0] = 0.5f;
    b.Params()[0]->Grad()[0] = 0.5f;
    sa.Step();
    sb.Step();
    EXPECT_FLOAT_EQ(a.Params()[0]->value[0], b.Params()[0]->value[0]);
}

/** Property: SGD strictly reduces a convex quadratic for any seed. */
class SgdQuadraticDescentTest : public ::testing::TestWithParam<int> {};

TEST_P(SgdQuadraticDescentTest, DescendsQuadratic)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    Dense d(3, 1, rng);
    const Tensor x = Tensor::Randn({32, 3}, rng);
    Tensor y({32, 1});
    for (int i = 0; i < 32; ++i)
        y.At(i, 0) = x.At(i, 0) - 2.0f * x.At(i, 2);

    auto eval = [&] { return MseLoss(d.Forward(x), y).value; };
    const double start = eval();
    Sgd sgd(d.Params(), 0.05, 0.0, 0.0);
    for (int s = 0; s < 50; ++s) {
        const LossResult l = MseLoss(d.Forward(x), y);
        sgd.ZeroGrad();
        d.Backward(l.grad);
        sgd.Step();
    }
    EXPECT_LT(eval(), start * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SgdQuadraticDescentTest,
                         ::testing::Range(1, 7));

} // namespace
} // namespace sinan
