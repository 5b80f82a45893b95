/**
 * @file
 * Tests for the tensor container and the matmul kernels, including
 * bit-identical serial-vs-parallel parity for the row-blocked kernels.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <sstream>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "conv_reference.h"
#include "tensor/gemm_kernels.h"
#include "tensor/tensor.h"

namespace sinan {
namespace {

TEST(Tensor, ShapeAndSize)
{
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.Rank(), 3);
    EXPECT_EQ(t.Dim(0), 2);
    EXPECT_EQ(t.Dim(2), 4);
    EXPECT_EQ(t.Size(), 24u);
    EXPECT_THROW(t.Dim(3), std::out_of_range);
    EXPECT_TRUE(Tensor().Empty());
}

TEST(Tensor, IndexedAccessIsRowMajor)
{
    Tensor t({2, 3});
    t.At(1, 2) = 7.0f;
    EXPECT_EQ(t[5], 7.0f);
    Tensor u({2, 2, 2});
    u.At(1, 0, 1) = 3.0f;
    EXPECT_EQ(u[5], 3.0f);
    Tensor v({2, 2, 2, 2});
    v.At(1, 1, 1, 1) = 9.0f;
    EXPECT_EQ(v[15], 9.0f);
}

TEST(Tensor, FromVector)
{
    const Tensor t = Tensor::FromVector({1.0f, 2.0f, 3.0f});
    EXPECT_EQ(t.Rank(), 1);
    EXPECT_EQ(t.Dim(0), 3);
    EXPECT_EQ(t[1], 2.0f);
}

TEST(Tensor, ReshapedPreservesDataAndChecksSize)
{
    Tensor t({2, 3});
    for (size_t i = 0; i < t.Size(); ++i)
        t[i] = static_cast<float>(i);
    const Tensor r = t.Reshaped({3, 2});
    EXPECT_EQ(r.At(2, 1), 5.0f);
    EXPECT_THROW(t.Reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, FillScaleAddAxpy)
{
    Tensor a({3});
    a.Fill(2.0f);
    a.Scale(3.0f);
    EXPECT_EQ(a[0], 6.0f);
    Tensor b({3});
    b.Fill(1.0f);
    a.Add(b);
    EXPECT_EQ(a[2], 7.0f);
    a.Axpy(2.0f, b);
    EXPECT_EQ(a[1], 9.0f);
    EXPECT_NEAR(a.Sum(), 27.0, 1e-6);
    Tensor wrong({2});
    EXPECT_THROW(a.Add(wrong), std::invalid_argument);
    EXPECT_THROW(a.Axpy(1.0f, wrong), std::invalid_argument);
}

TEST(Tensor, RandnHasRequestedSpread)
{
    Rng rng(5);
    const Tensor t = Tensor::Randn({10000}, rng, 0.5f);
    double mean = 0.0, var = 0.0;
    for (size_t i = 0; i < t.Size(); ++i)
        mean += static_cast<double>(t[i]);
    mean /= static_cast<double>(t.Size());
    for (size_t i = 0; i < t.Size(); ++i) {
        const double d = static_cast<double>(t[i]) - mean;
        var += d * d;
    }
    var /= static_cast<double>(t.Size());
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(std::sqrt(var), 0.5, 0.02);
}

TEST(Tensor, SaveLoadRoundTrip)
{
    Rng rng(9);
    const Tensor t = Tensor::Randn({3, 4}, rng);
    std::stringstream ss;
    t.Save(ss);
    Tensor u(Tensor::LoadHeader(ss));
    ASSERT_EQ(u.Shape(), t.Shape());
    u.LoadPayload(ss);
    for (size_t i = 0; i < t.Size(); ++i)
        EXPECT_EQ(u[i], t[i]);
}

TEST(Tensor, LoadRejectsCorruptStream)
{
    std::stringstream ss("garbage");
    EXPECT_THROW(Tensor::LoadHeader(ss), std::runtime_error);
}

TEST(Tensor, LoadRejectsNegativeDimension)
{
    std::stringstream ss;
    const int32_t header[3] = {2, 3, -4};
    ss.write(reinterpret_cast<const char*>(header), sizeof(header));
    try {
        (void)Tensor::LoadHeader(ss);
        FAIL() << "negative dimension was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "Tensor::LoadHeader: corrupt header");
    }
}

TEST(Tensor, ConstructorRejectsAShapeWhoseSizeOverflows)
{
    // 65536^4 = 2^64 elements: an unchecked product wraps to 0, which
    // would give an empty buffer under a shape that indexes past it.
    EXPECT_THROW(Tensor({65536, 65536, 65536, 65536}),
                 std::invalid_argument);
}

TEST(Tensor, LoadSizesNothingFromAnUnbackedHeader)
{
    // [1<<20, 1<<20] claims 4 TiB of floats; the stream holds four.
    // The header read only names the shape; the payload goes into a
    // tensor the reader already holds, so a short stream fails there.
    std::stringstream ss;
    const int32_t header[3] = {2, 1 << 20, 1 << 20};
    ss.write(reinterpret_cast<const char*>(header), sizeof(header));
    const float payload[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    ss.write(reinterpret_cast<const char*>(payload), sizeof(payload));
    Tensor held({2, 4});
    const uint64_t before = Tensor::AllocationEvents();
    EXPECT_EQ(Tensor::LoadHeader(ss), (std::vector<int>{1 << 20, 1 << 20}));
    try {
        held.LoadPayload(ss);
        FAIL() << "a payload shorter than the tensor was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "Tensor::LoadPayload: truncated data");
    }
    EXPECT_EQ(Tensor::AllocationEvents(), before);
}

TEST(MatMul, MatchesHandComputedProduct)
{
    // A = [[1,2],[3,4]], B = [[5,6],[7,8]] -> AB = [[19,22],[43,50]].
    Tensor a({2, 2}), b({2, 2}), c({2, 2});
    a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
    b[0] = 5; b[1] = 6; b[2] = 7; b[3] = 8;
    MatMul(a, b, c);
    EXPECT_EQ(c.At(0, 0), 19.0f);
    EXPECT_EQ(c.At(0, 1), 22.0f);
    EXPECT_EQ(c.At(1, 0), 43.0f);
    EXPECT_EQ(c.At(1, 1), 50.0f);
    // Accumulate doubles the result.
    MatMul(a, b, c, /*accumulate=*/true);
    EXPECT_EQ(c.At(1, 1), 100.0f);
}

TEST(MatMul, TransposedVariantsAgreeWithPlain)
{
    Rng rng(3);
    const Tensor a = Tensor::Randn({4, 5}, rng);
    const Tensor b = Tensor::Randn({5, 6}, rng);
    Tensor c({4, 6});
    MatMul(a, b, c);

    // MatMulTa(A^T stored, B) == A*B when we pass A transposed.
    Tensor at({5, 4});
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 5; ++k)
            at.At(k, i) = a.At(i, k);
    Tensor c2({4, 6});
    MatMulTa(at, b, c2);
    for (size_t i = 0; i < c.Size(); ++i)
        EXPECT_NEAR(c[i], c2[i], 1e-4);

    // MatMulTb(A, B^T stored) == A*B.
    Tensor bt({6, 5});
    for (int k = 0; k < 5; ++k)
        for (int j = 0; j < 6; ++j)
            bt.At(j, k) = b.At(k, j);
    Tensor c3({4, 6});
    MatMulTb(a, bt, c3);
    for (size_t i = 0; i < c.Size(); ++i)
        EXPECT_NEAR(c[i], c3[i], 1e-4);
}

TEST(MatMul, RejectsShapeMismatches)
{
    Tensor a({2, 3}), b({4, 2}), c({2, 2});
    EXPECT_THROW(MatMul(a, b, c), std::invalid_argument);
    Tensor b2({3, 2}), c_bad({3, 2});
    EXPECT_THROW(MatMul(a, b2, c_bad), std::invalid_argument);
    Tensor flat({6});
    EXPECT_THROW(MatMul(flat, b2, c), std::invalid_argument);
}

/** Property: (A*B)*C == A*(B*C) within float tolerance. */
class MatmulAssocTest : public ::testing::TestWithParam<int> {};

TEST_P(MatmulAssocTest, AssociativityHolds)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    const Tensor a = Tensor::Randn({3, 4}, rng);
    const Tensor b = Tensor::Randn({4, 5}, rng);
    const Tensor c = Tensor::Randn({5, 2}, rng);
    Tensor ab({3, 5}), ab_c({3, 2}), bc({4, 2}), a_bc({3, 2});
    MatMul(a, b, ab);
    MatMul(ab, c, ab_c);
    MatMul(b, c, bc);
    MatMul(a, bc, a_bc);
    for (size_t i = 0; i < ab_c.Size(); ++i)
        EXPECT_NEAR(ab_c[i], a_bc[i], 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatmulAssocTest, ::testing::Range(1, 7));

/** Runs @p kernel at 1 and @p threads threads; results must be
 *  bit-identical (the pool's fixed block structure guarantees the same
 *  float accumulation order regardless of thread count). */
void
ExpectThreadParity(int threads,
                   const std::function<void(Tensor&)>& kernel,
                   std::vector<int> out_shape)
{
    const int saved = NumThreads();
    SetNumThreads(1);
    Tensor serial(out_shape);
    kernel(serial);
    SetNumThreads(threads);
    Tensor parallel(out_shape);
    kernel(parallel);
    SetNumThreads(saved);
    ASSERT_EQ(serial.Size(), parallel.Size());
    for (size_t i = 0; i < serial.Size(); ++i)
        ASSERT_EQ(serial[i], parallel[i]) << "element " << i;
}

TEST(MatMulParity, PlainBitIdenticalAcrossThreadCounts)
{
    Rng rng(21);
    // Odd sizes so row blocks don't divide evenly.
    const Tensor a = Tensor::Randn({67, 33}, rng);
    const Tensor b = Tensor::Randn({33, 41}, rng);
    for (int threads : {2, 4, 8}) {
        ExpectThreadParity(
            threads, [&](Tensor& c) { MatMul(a, b, c); }, {67, 41});
    }
}

TEST(MatMulParity, TransposedAVariantBitIdentical)
{
    Rng rng(22);
    const Tensor a = Tensor::Randn({33, 67}, rng); // stores A^T
    const Tensor b = Tensor::Randn({33, 41}, rng);
    for (int threads : {2, 4}) {
        ExpectThreadParity(
            threads, [&](Tensor& c) { MatMulTa(a, b, c); }, {67, 41});
    }
}

TEST(MatMulParity, TransposedBVariantBitIdentical)
{
    Rng rng(23);
    const Tensor a = Tensor::Randn({67, 33}, rng);
    const Tensor b = Tensor::Randn({41, 33}, rng); // stores B^T
    for (int threads : {2, 4}) {
        ExpectThreadParity(
            threads, [&](Tensor& c) { MatMulTb(a, b, c); }, {67, 41});
    }
}

TEST(MatMulParity, AccumulateModeBitIdentical)
{
    Rng rng(24);
    const Tensor a = Tensor::Randn({50, 20}, rng);
    const Tensor b = Tensor::Randn({20, 30}, rng);
    ExpectThreadParity(
        4,
        [&](Tensor& c) {
            c.Fill(1.5f);
            MatMul(a, b, c, /*accumulate=*/true);
        },
        {50, 30});
}

/** Runs MatMul under forced-SIMD and forced-scalar dispatch; the two
 *  kernels share the ascending-p mul-then-add contract, so the bytes
 *  must match exactly (a no-op comparison on hosts without AVX2,
 *  where both modes resolve to the scalar kernel). */
void
ExpectSimdScalarParity(const Tensor& a, const Tensor& b, int m, int n)
{
    const SimdMode saved = CurrentSimdMode();
    SetSimdMode(SimdMode::kAuto);
    Tensor simd({m, n});
    MatMul(a, b, simd);
    SetSimdMode(SimdMode::kOff);
    EXPECT_STREQ(ActiveKernelId(), "scalar-v1");
    Tensor scalar({m, n});
    MatMul(a, b, scalar);
    SetSimdMode(saved);
    ASSERT_EQ(simd.Size(), scalar.Size());
    for (size_t i = 0; i < simd.Size(); ++i)
        ASSERT_EQ(simd[i], scalar[i]) << "element " << i;
}

TEST(MatMulParity, SimdBitIdenticalToScalar)
{
    Rng rng(31);
    // Every kernel tier: 4-row blocks with 16/8-wide and masked-tail
    // column panels, and 1-row panels of every width class (64-wide
    // blocks, register-resident 8..56-wide remainders, the masked
    // n % 8 tail) — m covers remainder rows, n every tail width.
    for (int m = 1; m <= 9; ++m) {
        for (int n = 1; n <= 70; ++n) {
            for (const int k : {1, 3, 17}) {
                SCOPED_TRACE(testing::Message()
                             << m << "x" << k << "x" << n);
                const Tensor a = Tensor::Randn({m, k}, rng);
                const Tensor b = Tensor::Randn({k, n}, rng);
                ExpectSimdScalarParity(a, b, m, n);
            }
        }
    }
    // The models' real products (social network, 28 tiers).
    const struct {
        int m, k, n;
    } shapes[] = {
        {1, 1120, 48},  // rh_fc: single row, wide k
        {1, 25, 24},    // lh_fc
        {96, 28, 24},   // rc_fc over a full candidate batch
        {96, 96, 32},   // fc_latent
        {96, 32, 5},    // fc_out: the whole product is the masked tail
        {8, 54, 140},   // 4x16 panels, then a 4-column tail
        {8, 72, 140},
        {67, 33, 41},   // odd everything
        {4, 16, 64},    // exact 4x16 panels, then exact 1x64
    };
    for (const auto& s : shapes) {
        SCOPED_TRACE(testing::Message()
                     << s.m << "x" << s.k << "x" << s.n);
        const Tensor a = Tensor::Randn({s.m, s.k}, rng);
        const Tensor b = Tensor::Randn({s.k, s.n}, rng);
        ExpectSimdScalarParity(a, b, s.m, s.n);
    }
}

TEST(MatMulParity, SimdBitIdenticalAcrossThreadCounts)
{
    const SimdMode saved = CurrentSimdMode();
    SetSimdMode(SimdMode::kAuto);
    Rng rng(32);
    const Tensor a = Tensor::Randn({67, 33}, rng);
    const Tensor b = Tensor::Randn({33, 41}, rng);
    for (int threads : {2, 8}) {
        ExpectThreadParity(
            threads, [&](Tensor& c) { MatMul(a, b, c); }, {67, 41});
    }
    SetSimdMode(saved);
}

TEST(ConvRows, BothKernelsMatchNaiveReferenceBitwise)
{
    // The dispatched conv kernel, scalar and AVX2, against the naive
    // 7-deep loop byte for byte: every channel-count tier of the AVX2
    // panels, oc ranges starting mid-tensor, planes whose last 8-lane
    // vector is partial or spans rows, single rows and columns,
    // negative weights and inputs holding +-0.0f and denormals.
    const SimdMode saved = CurrentSimdMode();
    Rng rng(43);
    const std::vector<std::pair<int, int>> planes = {
        {1, 1}, {1, 9}, {6, 1}, {28, 5}, {3, 9}, {17, 13}};
    for (const int kernel : {1, 3, 5}) {
        for (const int in_c : {1, 6, 8}) {
            for (const int out_c : {1, 8, 11}) {
                const Tensor w = Tensor::Randn(
                    {out_c, in_c, kernel, kernel}, rng, 0.4f);
                const Tensor b = Tensor::Randn({out_c}, rng, 0.3f);
                for (const auto& [h, wd] : planes) {
                    const Tensor x =
                        testutil::MixedConvInput({1, in_c, h, wd}, rng);
                    const Tensor ref =
                        testutil::NaiveConvForward(x, w, b, kernel);
                    const int64_t hw = static_cast<int64_t>(h) * wd;
                    for (const SimdMode mode :
                         {SimdMode::kAuto, SimdMode::kOff}) {
                        SetSimdMode(mode);
                        Tensor y({1, out_c, h, wd});
                        for (int oc = 0; oc < out_c; ++oc)
                            std::fill(y.Data() + oc * hw,
                                      y.Data() + (oc + 1) * hw, b[oc]);
                        // Two calls split at oc 3: the second covers
                        // the channels a panel offset starts mid-way.
                        const int split = std::min(out_c, 3);
                        const ConvRowsFn kern = ActiveConvRows();
                        kern(x.Data(), in_c, h, wd, w.Data(), kernel,
                             y.Data(), 0, split);
                        kern(x.Data(), in_c, h, wd, w.Data(), kernel,
                             y.Data(), split, out_c);
                        ASSERT_EQ(std::memcmp(y.Data(), ref.Data(),
                                              y.Size() * sizeof(float)),
                                  0)
                            << "k=" << kernel << " in_c=" << in_c
                            << " out_c=" << out_c << " " << h << "x" << wd
                            << " kernel " << ActiveKernelId();
                    }
                }
            }
        }
    }
    SetSimdMode(saved);
}

TEST(Tensor, IndexArithmeticSurvivesPastIntMaxBytes)
{
    // 16400 * 32768 = 537,395,200 elements (~2.1 GB): the
    // element-count * sizeof(float) product and the im2col-style
    // row-offset products overflow 32-bit arithmetic, so this pins
    // the size_t/int64_t indexing paths. Skipped when the allocator
    // cannot serve the buffers.
    constexpr int kRows = 16400, kCols = 32768;
    try {
        Tensor t({kRows, kCols});
        ASSERT_EQ(t.Size(),
                  static_cast<size_t>(kRows) * kCols);
        // Touch the far corner through the offset helpers: a 32-bit
        // index product would land somewhere inside the buffer (or
        // crash) instead.
        t.At(kRows - 1, kCols - 1) = 3.5f;
        EXPECT_FLOAT_EQ(t[t.Size() - 1], 3.5f);
        EXPECT_FLOAT_EQ(t.At(kRows - 1, kCols - 1), 3.5f);
        t.At(kRows - 1, 0) = -2.0f;
        EXPECT_FLOAT_EQ(t[t.Size() - static_cast<size_t>(kCols)],
                        -2.0f);
    } catch (const std::bad_alloc&) {
        GTEST_SKIP() << "not enough memory for the 2 GB tensor";
    }
}

} // namespace
} // namespace sinan
