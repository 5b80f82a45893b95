/**
 * @file
 * Unit and property tests for the common substrate: RNG distributions,
 * percentile digests, fixed-width percentile rows, ring windows, and
 * table rendering.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parse.h"
#include "common/percentile_row.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timeseries.h"

namespace sinan {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.NextU64() == b.NextU64();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.Uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.Uniform(5.0, 9.0);
        EXPECT_GE(u, 5.0);
        EXPECT_LT(u, 9.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.UniformInt(10ULL), 10ULL);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.UniformInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(11);
    std::vector<int> seen(6, 0);
    for (int i = 0; i < 600; ++i)
        ++seen[rng.UniformInt(6ULL)];
    for (int v : seen)
        EXPECT_GT(v, 0);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.Bernoulli(0.0));
        EXPECT_TRUE(rng.Bernoulli(1.0));
    }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect)
{
    Rng rng(5);
    double acc = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i)
        acc += rng.Exponential(4.0);
    EXPECT_NEAR(acc / kN, 4.0, 0.15);
}

TEST(Rng, NormalMomentsApproximatelyCorrect)
{
    Rng rng(9);
    double mean = 0.0, var = 0.0;
    constexpr int kN = 20000;
    std::vector<double> xs(kN);
    for (int i = 0; i < kN; ++i) {
        xs[i] = rng.Normal(2.0, 3.0);
        mean += xs[i];
    }
    mean /= kN;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= kN;
    EXPECT_NEAR(mean, 2.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, LogNormalIsPositiveWithRequestedMean)
{
    Rng rng(13);
    double acc = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        const double v = rng.LogNormal(0.005, 0.3);
        EXPECT_GT(v, 0.0);
        acc += v;
    }
    EXPECT_NEAR(acc / kN, 0.005, 0.0004);
}

TEST(Rng, LogNormalZeroMeanReturnsZero)
{
    Rng rng(13);
    EXPECT_EQ(rng.LogNormal(0.0, 0.3), 0.0);
}

TEST(Rng, PoissonSmallLambdaMean)
{
    Rng rng(17);
    double acc = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i)
        acc += rng.Poisson(2.5);
    EXPECT_NEAR(acc / kN, 2.5, 0.1);
}

TEST(Rng, PoissonLargeLambdaMean)
{
    Rng rng(19);
    double acc = 0.0;
    constexpr int kN = 5000;
    for (int i = 0; i < kN; ++i)
        acc += rng.Poisson(80.0);
    EXPECT_NEAR(acc / kN, 80.0, 1.0);
}

TEST(Rng, PoissonZeroRateIsZero)
{
    Rng rng(23);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(Rng, ForkedStreamsAreIndependent)
{
    Rng a(42);
    Rng b = a.Fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.NextU64() == b.NextU64();
    EXPECT_LT(same, 2);
}

static_assert(sizeof(Rng) == 32, "Rng is the xoshiro256++ state alone");

TEST(RngNormal, FirstDrawsArePinned)
{
    // Every simulated demand, metric noise term and initial weight comes
    // from this stream; a changed sampler must show up here, not only as
    // drifted goldens elsewhere.
    const uint64_t kPinned[32] = {
        0x3fb0503de0dbc3f1ULL, 0xbfcf220e07f790feULL, 0xbfee67d6e3f7ee9fULL,
        0xbfc1f7edf21bd0c8ULL, 0x3fe77e0e5cfbe437ULL, 0x3fe406c55b74bc02ULL,
        0x3ff7af3da6bdc861ULL, 0x3fe78f970d18de11ULL, 0xbff3b141691e7df2ULL,
        0xbfc3ad5b5a6b1209ULL, 0x3fd143f49b819fbbULL, 0x3ff0f23a397116b4ULL,
        0x3fc04c1674372f5fULL, 0xbf7ba0fe0fbdb03cULL, 0xbfe6478d152fc997ULL,
        0x3fe4aea66d7cd82cULL, 0xbfd1fd98f171f378ULL, 0xbfe80d48899fb327ULL,
        0x3ffdda51519a0290ULL, 0x3fec892362bb3ed4ULL, 0x3feac478888a619aULL,
        0xbfb46eecd7a26640ULL, 0x3fc0f6c3414657f3ULL, 0xbfe674fa21223671ULL,
        0xbfb023de467d6b3dULL, 0xbfe1ce39061d441cULL, 0xbffc7f7c421aa539ULL,
        0xbfc07a381b1f9a3bULL, 0x3fe6645c1f12715eULL, 0x3fd9b6c87c719ac1ULL,
        0x3fe11f5f556dc8e3ULL, 0x3fe07d56c72d29c8ULL,
    };
    Rng rng(2024);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(std::bit_cast<uint64_t>(rng.Normal()), kPinned[i])
            << "draw " << i;
}

/** Standard normal CDF. */
double
Phi(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

TEST(RngNormal, KolmogorovSmirnovAgainstPhi)
{
    // D < 1.63 / sqrt(n) is the 1 % critical value; the tail count is
    // binomial with p = 2 (1 - Phi(R)), held to 4 sigma.
    constexpr int kN = 1000000;
    Rng rng(4242);
    std::vector<double> z(kN);
    int beyond_r = 0;
    for (double& v : z) {
        v = rng.Normal();
        beyond_r += std::fabs(v) > zignor::kR;
    }
    std::sort(z.begin(), z.end());
    double d = 0.0;
    for (int i = 0; i < kN; ++i) {
        const double f = Phi(z[i]);
        d = std::max({d, f - static_cast<double>(i) / kN,
                      static_cast<double>(i + 1) / kN - f});
    }
    EXPECT_LT(d, 1.63 / std::sqrt(static_cast<double>(kN)));

    const double p = 2.0 * (1.0 - Phi(zignor::kR));
    const double expect = p * kN;
    EXPECT_NEAR(beyond_r, expect, 4.0 * std::sqrt(expect * (1.0 - p)));
}

/** NextU64 words a Normal() draw took from @p before to reach @p after. */
int
WordsConsumed(const Rng& before, const Rng& after)
{
    for (int k = 1; k <= 64; ++k) {
        Rng probe = before;
        for (int j = 0; j < k; ++j)
            probe.NextU64();
        Rng rest = after;
        if (probe.NextU64() == rest.NextU64() &&
            probe.NextU64() == rest.NextU64())
            return k;
    }
    return -1;
}

TEST(RngNormal, SeedSweepTakesEveryPath)
{
    // Replay each seed's first draw from its raw words: inside the
    // layer's rectangle (one word), a wedge point under or over the
    // curve (one more word for its height) or layer 0's tail (two more
    // words per tail trial). A point over the curve, or a rejected tail
    // trial, starts over with more words.
    const auto f = [](double x) { return std::exp(-0.5 * x * x); };
    const auto unit = [](uint64_t w) {
        return static_cast<double>(w >> 11) * 0x1.0p-53;
    };
    int rect = 0, wedge_in = 0, wedge_out = 0, tail_in = 0;
    for (uint64_t seed = 0; seed < 20000; ++seed) {
        const Rng before(seed);
        Rng peek = before;
        const uint64_t bits = peek.NextU64();
        const uint64_t w2 = peek.NextU64();
        const uint64_t w3 = peek.NextU64();
        const size_t i = bits & 0x7f;
        const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
        const double x = u * zignor::kX[i];
        Rng rng = before;
        const double z = rng.Normal();
        const int words = WordsConsumed(before, rng);
        if (std::fabs(u) < zignor::kRatio[i]) {
            ++rect;
            EXPECT_EQ(words, 1);
            EXPECT_EQ(z, x);
        } else if (i == 0) {
            const double tx = std::log(1.0 - unit(w2)) / zignor::kR;
            const double ty = std::log(1.0 - unit(w3));
            EXPECT_GT(std::fabs(z), zignor::kR);
            EXPECT_EQ(z < 0.0, u < 0.0);
            if (-2.0 * ty >= tx * tx) {
                ++tail_in;
                EXPECT_EQ(words, 3);
                EXPECT_EQ(std::fabs(z), zignor::kR - tx);
            } else {
                EXPECT_GE(words, 5);
            }
        } else {
            const double fi = f(zignor::kX[i]);
            const double fn = f(zignor::kX[i + 1]);
            if (fn + unit(w2) * (fi - fn) < f(x)) {
                ++wedge_in;
                EXPECT_EQ(words, 2);
                EXPECT_EQ(z, x);
            } else {
                ++wedge_out;
                EXPECT_GE(words, 3);
            }
        }
    }
    EXPECT_GT(rect, 19000); // ~97 % of first draws
    EXPECT_GT(wedge_in, 0);
    EXPECT_GT(wedge_out, 0);
    EXPECT_GT(tail_in, 0);
}

/** Distance in units in the last place between two finite doubles of
 *  the same sign. */
uint64_t
UlpDistance(double a, double b)
{
    const uint64_t x = std::bit_cast<uint64_t>(a);
    const uint64_t y = std::bit_cast<uint64_t>(b);
    return x > y ? x - y : y - x;
}

TEST(RngNormal, ZigguratTablesFollowTheRecurrence)
{
    using zignor::kR;
    using zignor::kRatio;
    using zignor::kV;
    using zignor::kX;
    const auto f = [](double x) { return std::exp(-0.5 * x * x); };
    EXPECT_LE(UlpDistance(kX[0], kV / f(kR)), 1u);
    EXPECT_EQ(kX[1], kR);
    for (int i = 2; i < zignor::kLayers; ++i) {
        const double want = std::sqrt(-2.0 * std::log(kV / kX[i - 1] +
                                                      f(kX[i - 1])));
        EXPECT_LE(UlpDistance(kX[i], want), 1u) << "x[" << i << "]";
    }
    EXPECT_EQ(kX[zignor::kLayers], 0.0);
    for (int i = 0; i < zignor::kLayers; ++i) {
        EXPECT_LE(UlpDistance(kRatio[i], kX[i + 1] / kX[i]), 1u)
            << "r[" << i << "]";
        EXPECT_LT(kRatio[i], 1.0);
    }
    // Equal areas: the bottom box (rectangle plus the tail it stands
    // for) and the top box, which the recurrence does not force, both
    // hold kV.
    const double bottom =
        kR * f(kR) + std::sqrt(std::acos(-1.0) / 2.0) *
                         std::erfc(kR / std::sqrt(2.0));
    EXPECT_NEAR(bottom / kV, 1.0, 1e-14);
    const double top = kX[127] * (1.0 - f(kX[127]));
    EXPECT_NEAR(top / kV, 1.0, 1e-12);
}

TEST(Rng, LogNormalMeanAndCvOverSweep)
{
    constexpr int kN = 200000;
    Rng rng(61);
    for (const double mean : {0.0004, 0.5, 3.0}) {
        for (const double cv : {0.05, 0.3, 1.0}) {
            double s = 0.0, s2 = 0.0;
            for (int i = 0; i < kN; ++i) {
                const double v = rng.LogNormal(mean, cv);
                s += v;
                s2 += v * v;
            }
            const double m = s / kN;
            const double sd = std::sqrt(s2 / kN - m * m);
            EXPECT_NEAR(m / mean, 1.0, 0.01) << mean << " " << cv;
            EXPECT_NEAR(sd / m / cv, 1.0, 0.03) << mean << " " << cv;
        }
    }
}

TEST(PercentileDigest, EmptyReturnsZero)
{
    PercentileDigest d;
    EXPECT_EQ(d.Quantile(0.99), 0.0);
    EXPECT_EQ(d.Mean(), 0.0);
    EXPECT_EQ(d.Max(), 0.0);
    EXPECT_EQ(d.Count(), 0u);
}

TEST(PercentileDigest, SingleValue)
{
    PercentileDigest d;
    d.Add(42.0);
    d.Seal();
    EXPECT_EQ(d.Quantile(0.0), 42.0);
    EXPECT_EQ(d.Quantile(0.5), 42.0);
    EXPECT_EQ(d.Quantile(1.0), 42.0);
}

TEST(PercentileDigest, KnownQuantilesOfSequence)
{
    PercentileDigest d;
    for (int i = 1; i <= 101; ++i)
        d.Add(static_cast<double>(i));
    d.Seal();
    EXPECT_DOUBLE_EQ(d.Quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.Quantile(0.5), 51.0);
    EXPECT_DOUBLE_EQ(d.Quantile(1.0), 101.0);
    EXPECT_NEAR(d.Quantile(0.95), 96.0, 1e-9);
}

TEST(PercentileDigest, InterleavedAddAndQuery)
{
    PercentileDigest d;
    d.Add(10.0);
    d.Add(20.0);
    d.Seal();
    EXPECT_DOUBLE_EQ(d.Quantile(1.0), 20.0);
    d.Add(30.0); // invalidates the sealed state
    d.Seal();    // re-sealing after more writes is allowed
    EXPECT_DOUBLE_EQ(d.Quantile(1.0), 30.0);
    EXPECT_DOUBLE_EQ(d.Quantile(0.0), 10.0);
}

TEST(PercentileDigest, ResetClears)
{
    PercentileDigest d;
    d.Add(5.0);
    d.Reset();
    EXPECT_EQ(d.Count(), 0u);
    EXPECT_EQ(d.Quantile(0.5), 0.0);
}

TEST(PercentileDigest, UnsealedQueryIsAContractViolation)
{
    // Sealed-before-query is a hard contract: an unsealed query used
    // to silently sort a private copy, which hid missing roll-up calls
    // and cost an O(n log n) copy per query on the telemetry path.
    PercentileDigest d;
    d.Add(1.0);
    d.Add(2.0);
    EXPECT_THROW(d.Quantile(0.5), ContractViolation);
    EXPECT_THROW(d.Quantiles({0.5, 0.9}), ContractViolation);
    EXPECT_THROW(d.Max(), ContractViolation);
    // Mean and Count never needed the sort; they stay queryable.
    EXPECT_DOUBLE_EQ(d.Mean(), 1.5);
    EXPECT_EQ(d.Count(), 2u);
    d.Seal();
    EXPECT_DOUBLE_EQ(d.Quantile(0.5), 1.5);
}

TEST(PercentileDigest, SealFromMatchesFullSortBitForBit)
{
    // A tail-only seal partitions at the floor and sorts above it; every
    // quantile at or above the floor must equal the fully sorted
    // digest's, bit for bit, whatever the buffer looks like.
    Rng rng(31);
    std::vector<std::vector<double>> buffers = {{}, {3.5}, {2.0, 1.0}};
    std::vector<double> random, duplicates, equal(500, 7.25);
    for (int i = 0; i < 2000; ++i)
        random.push_back(rng.Uniform(0.0, 1000.0));
    for (int i = 0; i < 1999; ++i)
        duplicates.push_back(static_cast<double>(rng.UniformInt(4ULL)));
    buffers.push_back(random);
    buffers.push_back(duplicates);
    buffers.push_back(equal);
    const std::vector<double> floors = {0.0, 0.5, 0.95, 0.99, 1.0};
    for (const std::vector<double>& values : buffers) {
        for (const double p_min : floors) {
            PercentileDigest full, tail;
            for (const double v : values) {
                full.Add(v);
                tail.Add(v);
            }
            full.Seal();
            tail.SealFrom(p_min);
            for (int k = 0; k <= 100; ++k) {
                const double p = p_min + (1.0 - p_min) * k / 100.0;
                EXPECT_EQ(std::bit_cast<uint64_t>(tail.Quantile(p)),
                          std::bit_cast<uint64_t>(full.Quantile(p)))
                    << "n " << values.size() << " floor " << p_min
                    << " p " << p;
            }
            EXPECT_EQ(tail.Max(), full.Max());
            tail.Seal(); // lowering the floor re-seals the whole buffer
            EXPECT_EQ(tail.Quantile(0.0), full.Quantile(0.0));
        }
    }
}

TEST(PercentileDigest, QueryBelowSealedFloorIsAContractViolation)
{
    PercentileDigest d;
    for (int i = 0; i < 100; ++i)
        d.Add(static_cast<double>(i));
    d.SealFrom(0.95);
    EXPECT_DOUBLE_EQ(d.Quantile(0.95), 94.05);
    EXPECT_THROW(d.Quantile(0.5), ContractViolation);
    EXPECT_THROW(d.Quantiles({0.99, 0.9}), ContractViolation);
    EXPECT_THROW(d.SealFrom(1.5), ContractViolation);
    d.SealFrom(0.99); // above the floor: already sealed
    EXPECT_THROW(d.Quantile(0.9), ContractViolation);
    d.Seal();
    EXPECT_DOUBLE_EQ(d.Quantile(0.5), 49.5);
}

TEST(PercentileDigest, ConcurrentConstReadersDoNotRace)
{
    // Regression: Quantile()/Max() used to sort `mutable` state from
    // const methods, so two threads reading one digest through const
    // refs raced (caught under TSan). Queries on a sealed digest are
    // pure reads, so concurrent const readers are safe.
    PercentileDigest d;
    Rng rng(13);
    for (int i = 0; i < 2000; ++i)
        d.Add(rng.Uniform(0, 1000));
    d.Seal();
    const PercentileDigest& ref = d;

    std::vector<double> results(8, 0.0);
    std::vector<std::thread> readers;
    for (int r = 0; r < 8; ++r) {
        readers.emplace_back([&ref, &results, r] {
            double acc = 0.0;
            for (int i = 0; i < 50; ++i) {
                acc += ref.Quantile(0.99);
                acc += ref.Max();
                acc += ref.Quantiles({0.5, 0.95}).back();
            }
            results[r] = acc;
        });
    }
    for (std::thread& t : readers)
        t.join();
    for (int r = 1; r < 8; ++r)
        EXPECT_DOUBLE_EQ(results[r], results[0]);
    EXPECT_EQ(d.Count(), 2000u);
    EXPECT_DOUBLE_EQ(d.Quantile(1.0), d.Max());
}

TEST(PercentileDigest, QuantilesBatchMatchesSingles)
{
    PercentileDigest d;
    Rng rng(3);
    for (int i = 0; i < 500; ++i)
        d.Add(rng.Uniform(0, 100));
    d.Seal();
    const auto qs = d.Quantiles({0.5, 0.9, 0.99});
    EXPECT_DOUBLE_EQ(qs[0], d.Quantile(0.5));
    EXPECT_DOUBLE_EQ(qs[1], d.Quantile(0.9));
    EXPECT_DOUBLE_EQ(qs[2], d.Quantile(0.99));
}

TEST(PercentileDigest, MeanAndMax)
{
    PercentileDigest d;
    d.Add(1.0);
    d.Add(2.0);
    d.Add(6.0);
    d.Seal();
    EXPECT_DOUBLE_EQ(d.Mean(), 3.0);
    EXPECT_DOUBLE_EQ(d.Max(), 6.0);
}

/** Property: quantiles are monotonically non-decreasing in p. */
class QuantileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotoneTest, MonotoneInP)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    PercentileDigest d;
    const int n = 1 + static_cast<int>(rng.UniformInt(300ULL));
    for (int i = 0; i < n; ++i)
        d.Add(rng.Normal(50, 20));
    d.Seal();
    double prev = d.Quantile(0.0);
    for (double p = 0.05; p <= 1.0; p += 0.05) {
        const double q = d.Quantile(p);
        EXPECT_GE(q, prev - 1e-12);
        prev = q;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotoneTest,
                         ::testing::Range(1, 9));

TEST(PercentileRow, ReadsLikeTheVectorItReplaces)
{
    PercentileRow row;
    EXPECT_TRUE(row.empty());
    EXPECT_EQ(row.begin(), row.end());
    row = {95.0, 96.0, 97.0, 98.0, 99.0};
    ASSERT_EQ(row.size(), PercentileRow::kCapacity);
    EXPECT_EQ(row[0], 95.0);
    EXPECT_EQ(row.back(), 99.0);
    EXPECT_EQ(std::vector<double>(row.begin(), row.end()),
              (std::vector<double>{95.0, 96.0, 97.0, 98.0, 99.0}));
    row[4] = 1.5;
    EXPECT_EQ(row.back(), 1.5);
}

TEST(PercentileRow, ResizeZeroFillsWhatItAdds)
{
    PercentileRow row = {1.0, 2.0, 3.0};
    row.resize(1);
    EXPECT_EQ(row, (PercentileRow{1.0}));
    row.resize(4);
    EXPECT_EQ(row, (PercentileRow{1.0, 0.0, 0.0, 0.0}));
    EXPECT_FALSE(row == (PercentileRow{1.0, 0.0, 0.0}));
}

TEST(PercentileRow, RejectsMoreThanCapacity)
{
    PercentileRow row;
    EXPECT_THROW(row.resize(PercentileRow::kCapacity + 1),
                 ContractViolation);
    EXPECT_THROW((PercentileRow{1, 2, 3, 4, 5, 6}), ContractViolation);
    EXPECT_TRUE(row.empty());
}

TEST(RunningSummary, TracksMinMaxMeanCount)
{
    RunningSummary s;
    s.Add(3.0);
    s.Add(-1.0);
    s.Add(4.0);
    EXPECT_EQ(s.Count(), 3u);
    EXPECT_DOUBLE_EQ(s.Min(), -1.0);
    EXPECT_DOUBLE_EQ(s.Max(), 4.0);
    EXPECT_DOUBLE_EQ(s.Mean(), 2.0);
    s.Reset();
    EXPECT_EQ(s.Count(), 0u);
    EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
}

TEST(VectorQuantile, EdgeProbabilities)
{
    std::vector<double> v = {3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(VectorQuantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(VectorQuantile(v, 1.0), 3.0);
    EXPECT_DOUBLE_EQ(VectorQuantile(v, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(VectorQuantile({}, 0.5), 0.0);
}

TEST(Rmse, MatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(Rmse({1.0, 2.0}, {1.0, 4.0}), std::sqrt(2.0));
    EXPECT_DOUBLE_EQ(Rmse({}, {}), 0.0);
    EXPECT_THROW(Rmse({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Mean, Basics)
{
    EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
    EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.Row().Add("alpha").Add(1.5, 1);
    t.Row().Add("b").Add(static_cast<long long>(10));
    const std::string out = t.Render();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("10"), std::string::npos);
    EXPECT_EQ(t.NumRows(), 2u);
}

TEST(TextTable, CsvOutput)
{
    TextTable t({"a", "b"});
    t.Row().Add("x").Add(2.25, 2);
    EXPECT_EQ(t.RenderCsv(), "a,b\nx,2.25\n");
}

TEST(FormatDouble, Precision)
{
    EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(WriteFile, RoundTripsThroughDisk)
{
    const std::string path = "/tmp/sinan_test_dir/out.txt";
    WriteFile(path, "hello");
    std::ifstream in(path);
    std::string content;
    std::getline(in, content);
    EXPECT_EQ(content, "hello");
    std::filesystem::remove_all("/tmp/sinan_test_dir");
}

TEST(RingWindow, RejectsZeroCapacity)
{
    EXPECT_THROW(RingWindow<int>(0), std::invalid_argument);
}

TEST(RingWindow, FillsThenWrapsChronologically)
{
    RingWindow<int> w(3);
    EXPECT_FALSE(w.Full());
    w.Push(1);
    w.Push(2);
    w.Push(3);
    EXPECT_TRUE(w.Full());
    w.Push(4); // evicts 1
    EXPECT_EQ(w.At(0), 2);
    EXPECT_EQ(w.At(1), 3);
    EXPECT_EQ(w.At(2), 4);
    EXPECT_EQ(w.Back(), 4);
    w.Push(5);
    w.Push(6);
    w.Push(7); // multiple wraps
    EXPECT_EQ(w.At(0), 5);
    EXPECT_EQ(w.At(2), 7);
}

TEST(RingWindow, AtOutOfRangeThrows)
{
    RingWindow<int> w(2);
    w.Push(1);
    EXPECT_THROW(w.At(1), std::out_of_range);
    EXPECT_THROW(RingWindow<int>(2).Back(), std::out_of_range);
}

TEST(RingWindow, ClearResets)
{
    RingWindow<int> w(2);
    w.Push(1);
    w.Push(2);
    w.Clear();
    EXPECT_EQ(w.Size(), 0u);
    w.Push(9);
    EXPECT_EQ(w.At(0), 9);
}

TEST(MetricsRegistry, CountersAndGauges)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.Counter("absent"), 0u);
    EXPECT_DOUBLE_EQ(reg.Gauge("absent"), 0.0);
    reg.Inc("a");
    reg.Inc("a", 4);
    reg.Set("g", 2.5);
    reg.Set("g", -1.0);
    EXPECT_EQ(reg.Counter("a"), 5u);
    EXPECT_DOUBLE_EQ(reg.Gauge("g"), -1.0);
    reg.Clear();
    EXPECT_EQ(reg.Counter("a"), 0u);
}

TEST(MetricsRegistry, HistogramBucketsAndSummary)
{
    MetricsRegistry reg;
    reg.Observe("h", 0.5, {1.0, 10.0, 100.0});
    reg.Observe("h", 1.0);  // boundary lands in its bucket (inclusive)
    reg.Observe("h", 50.0);
    reg.Observe("h", 1000.0); // overflow
    const FixedHistogram* h = reg.Histogram("h");
    ASSERT_NE(h, nullptr);
    ASSERT_EQ(h->Counts().size(), 4u);
    EXPECT_EQ(h->Counts()[0], 2u);
    EXPECT_EQ(h->Counts()[1], 0u);
    EXPECT_EQ(h->Counts()[2], 1u);
    EXPECT_EQ(h->Counts()[3], 1u);
    EXPECT_EQ(h->Count(), 4u);
    EXPECT_DOUBLE_EQ(h->Sum(), 1051.5);
    EXPECT_DOUBLE_EQ(h->Min(), 0.5);
    EXPECT_DOUBLE_EQ(h->Max(), 1000.0);
    EXPECT_EQ(reg.Histogram("absent"), nullptr);
}

TEST(MetricsRegistry, HistogramRejectsUnsortedBounds)
{
    EXPECT_THROW(FixedHistogram({3.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, SerializationIsDeterministic)
{
    auto fill = [](MetricsRegistry& reg, bool reorder) {
        if (reorder) {
            reg.Set("gauge.z", 7.0);
            reg.Inc("counter.b", 2);
            reg.Inc("counter.a");
        } else {
            reg.Inc("counter.a");
            reg.Inc("counter.b", 2);
            reg.Set("gauge.z", 7.0);
        }
        reg.Observe("hist", 3.0, {1.0, 5.0});
        reg.Observe("hist", 9.0);
    };
    MetricsRegistry x, y;
    fill(x, false);
    fill(y, true);
    // Same metrics in any insertion order render byte-identically.
    EXPECT_EQ(x.ToCsv(), y.ToCsv());
    EXPECT_NE(x.ToCsv().find("counter,counter.a,value,1"),
              std::string::npos);
    EXPECT_NE(x.ToCsv().find("histogram,hist,le_inf,1"),
              std::string::npos);
    EXPECT_NE(x.ToCsv().find("counter,counter.b,value,2"),
              std::string::npos);
}

TEST(MetricsRegistry, BatchedUpdatesRenderLikePerValueUpdates)
{
    // The scheduler counts a decision's candidate outcomes locally and
    // adds each count once, and observes its prediction histograms
    // through HistogramFor; both must leave the exact bytes that one
    // Inc / Observe per candidate would.
    const std::vector<double> bounds = {0.1, 1.0, 10.0};
    const std::vector<double> values = {0.05, 3.0, 0.7, 1e-3, 42.0,
                                        0.1,  9.5, 1.0, 7.25};
    MetricsRegistry one_by_one, batched;
    for (int i = 0; i < 7; ++i)
        one_by_one.Inc("outcome.kept");
    one_by_one.Inc("outcome.dropped");
    for (const double v : values) {
        one_by_one.Observe("pred.a", v, bounds);
        one_by_one.Observe("pred.b", -v);
    }

    batched.Inc("outcome.kept", 7);
    batched.Inc("outcome.dropped", 1);
    FixedHistogram& a = batched.HistogramFor("pred.a", bounds);
    FixedHistogram& b = batched.HistogramFor("pred.b");
    for (const double v : values) {
        a.Observe(v);
        b.Observe(-v);
    }
    // An existing histogram keeps its bounds and its contents.
    EXPECT_EQ(&batched.HistogramFor("pred.a", {5.0}), &a);

    EXPECT_EQ(batched.ToCsv(), one_by_one.ToCsv());
}

TEST(ParseNumber, AcceptsOnlyWholeFiniteInRangeTokens)
{
    double d = -1.0;
    EXPECT_EQ(ParseNumber("2.5e3", &d), ParseStatus::kOk);
    EXPECT_DOUBLE_EQ(d, 2500.0);
    EXPECT_EQ(ParseNumber("-0.25", &d), ParseStatus::kOk);
    EXPECT_DOUBLE_EQ(d, -0.25);
    for (const char* t : {"", " 5", "\t5", "+5", "5x", "5 ", "x", "-"})
        EXPECT_EQ(ParseNumber(t, &d), ParseStatus::kMalformed) << t;
    for (const char* t : {"nan", "inf", "-inf", "NAN", "infinity"})
        EXPECT_EQ(ParseNumber(t, &d), ParseStatus::kNonFinite) << t;
    for (const char* t : {"1e999", "-1e999", "1e-310", "1e-999"})
        EXPECT_EQ(ParseNumber(t, &d), ParseStatus::kOutOfRange) << t;
    EXPECT_DOUBLE_EQ(d, -0.25); // failures leave the output untouched

    int i = 0;
    EXPECT_EQ(ParseNumber("-2147483648", &i), ParseStatus::kOk);
    EXPECT_EQ(i, INT32_MIN);
    EXPECT_EQ(ParseNumber("2147483648", &i), ParseStatus::kOutOfRange);
    EXPECT_EQ(ParseNumber("99999999999999999999", &i),
              ParseStatus::kOutOfRange);
    EXPECT_EQ(ParseNumber("1.0", &i), ParseStatus::kMalformed);
    EXPECT_EQ(ParseNumber("1e3", &i), ParseStatus::kMalformed);
    EXPECT_EQ(i, INT32_MIN);

    int64_t l = 0;
    EXPECT_EQ(ParseNumber("-9223372036854775808", &l), ParseStatus::kOk);
    EXPECT_EQ(l, INT64_MIN);
    EXPECT_EQ(ParseNumber("9223372036854775808", &l),
              ParseStatus::kOutOfRange);

    uint64_t u = 0;
    EXPECT_EQ(ParseNumber("18446744073709551615", &u), ParseStatus::kOk);
    EXPECT_EQ(u, UINT64_MAX);
    EXPECT_EQ(ParseNumber("18446744073709551616", &u),
              ParseStatus::kOutOfRange);
    // strtoull would wrap these to 2^64 - 1 and 2^64 - 3.
    EXPECT_EQ(ParseNumber("-1", &u), ParseStatus::kMalformed);
    EXPECT_EQ(ParseNumber("-0", &u), ParseStatus::kMalformed);
    EXPECT_EQ(ParseNumber("+3", &u), ParseStatus::kMalformed);
    EXPECT_EQ(u, UINT64_MAX);
}

TEST(SplitFields, KeepsEmptyFieldsForTheCallerToReject)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(SplitFields("5,80,15", ','), (V{"5", "80", "15"}));
    EXPECT_EQ(SplitFields("5,80,15,", ','), (V{"5", "80", "15", ""}));
    EXPECT_EQ(SplitFields("a::b", ':'), (V{"a", "", "b"}));
    EXPECT_EQ(SplitFields("", ','), (V{""}));
}

} // namespace
} // namespace sinan
