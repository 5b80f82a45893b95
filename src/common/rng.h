/**
 * @file
 * Deterministic pseudo-random number generation for simulation and
 * model training.
 *
 * All stochastic components in this repository draw from Rng so that
 * every experiment is reproducible bit-for-bit from a single seed.
 * The generator is xoshiro256++ (Blackman & Vigna), which is fast,
 * has a 2^256-1 period, and passes BigCrush.
 */
#ifndef SINAN_COMMON_RNG_H
#define SINAN_COMMON_RNG_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace sinan {

/**
 * Log-normal parameters derived once from the variate's own mean and
 * coefficient of variation, so a hot caller (the cluster's per-stage
 * demand draw) skips the two logs and the sqrt per draw.
 */
struct LogNormalParams {
    /** Mean and stddev of the underlying normal. */
    double mu = 0.0;
    double sigma = 0.0;
    /** False when the mean is <= 0: the variate is 0 and no draw is
     *  consumed. */
    bool positive = false;

    static LogNormalParams
    FromMeanCv(double mean, double cv)
    {
        LogNormalParams p;
        if (mean <= 0.0)
            return p;
        const double sigma2 = std::log(1.0 + cv * cv);
        p.mu = std::log(mean) - 0.5 * sigma2;
        p.sigma = std::sqrt(sigma2);
        p.positive = true;
        return p;
    }
};

/**
 * Tables of the 128-layer ziggurat behind Rng::Normal() (Marsaglia &
 * Tsang 2000, in Doornik's 2005 ZIGNOR layout). With f(x) = exp(-x^2/2),
 * layer i in [1, 127] is the box [0, kX[i]] x [f(kX[i]), f(kX[i+1])];
 * layer 0 is [0, kX[0]] x [0, f(kR)], whose part beyond kR stands in
 * for the tail. Every box has area kV. kR and kV solve
 * kV = kR f(kR) + integral_kR^inf f (bottom box) and
 * kX[127] (1 - f(kX[127])) = kV (top box) in long double; the layer
 * edges follow in double from x[0] = kV / f(kR), x[1] = kR,
 * x[i] = sqrt(-2 log(kV / x[i-1] + f(x[i-1]))), x[128] = 0, and
 * kRatio[i] = kX[i+1] / kX[i]. Hex literals keep the fast path free of
 * libm; common_test recomputes them.
 */
namespace zignor {

inline constexpr int kLayers = 128;
inline constexpr double kR = 0x1.b8a7c476d1741p+1; // 3.4426198558966523
inline constexpr double kV = 0x1.44d09b07351ebp-7; // 0.0099125630353364604

inline constexpr double kX[kLayers + 1] = {
    0x1.db4668fe7d16bp+1, 0x1.b8a7c476d1741p+1, 0x1.9c8e0c7c7f35ep+1,
    0x1.8aa73e440e863p+1, 0x1.7d45eb36e9ff4p+1, 0x1.7279dd4ac2679p+1,
    0x1.695c2be68d3e4p+1, 0x1.616dff7c8dab3p+1, 0x1.5a61edf7e73f4p+1,
    0x1.540520129e8c8p+1, 0x1.4e3456b0e1da8p+1, 0x1.48d61806d430cp+1,
    0x1.43d75b60bac8dp+1, 0x1.3f29848d395fep+1, 0x1.3ac11b8e1e839p+1,
    0x1.3694f3a3721bap+1, 0x1.329d9725e1358p+1, 0x1.2ed4df8097554p+1,
    0x1.2b35aa5ebcda5p+1, 0x1.27bba2b5d9b7ep+1, 0x1.246317a6b3232p+1,
    0x1.2128dd36bbd01p+1, 0x1.1e0a342cee675p+1, 0x1.1b04b731f48d3p+1,
    0x1.18164be0bf8c9p+1, 0x1.153d16d455057p+1, 0x1.1277720181096p+1,
    0x1.0fc3e4d95cda5p+1, 0x1.0d211dd288ac5p+1, 0x1.0a8ded0ec115ap+1,
    0x1.08093fe3e1aaap+1, 0x1.05921d1c4b0bbp+1, 0x1.0327a1cc4a837p+1,
    0x1.00c8fea16f934p+1, 0x1.fceaeb2ca0ee4p+0, 0x1.f858aff317acap+0,
    0x1.f3da09745b608p+0, 0x1.ef6dcddc7808p+0, 0x1.eb12e914817b2p+0,
    0x1.e6c85a8495b11p+0, 0x1.e28d331c61c3ap+0, 0x1.de609397db2b7p+0,
    0x1.da41aaf794b4p+0, 0x1.d62fb5257b27dp+0, 0x1.d229f9bfe95cbp+0,
    0x1.ce2fcb05f3119p+0, 0x1.ca4084e08c20bp+0, 0x1.c65b8c04d5d88p+0,
    0x1.c2804d2c65321p+0, 0x1.beae3c60c717dp+0, 0x1.bae4d457e8096p+0,
    0x1.b72395df55597p+0, 0x1.b36a075492a9cp+0, 0x1.afb7b428f83b1p+0,
    0x1.ac0c2c6fbfe65p+0, 0x1.a867047510801p+0, 0x1.a4c7d45cfb2abp+0,
    0x1.a12e37c97caa6p+0, 0x1.9d99cd86aeeadp+0, 0x1.9a0a373c6d3d1p+0,
    0x1.967f1924c0e67p+0, 0x1.92f819c67be01p+0, 0x1.8f74e1b375768p+0,
    0x1.8bf51b49e8284p+0, 0x1.8878727879e89p+0, 0x1.84fe94848002ap+0,
    0x1.81872fd21666bp+0, 0x1.7e11f3ada7508p+0, 0x1.7a9e9016840dap+0,
    0x1.772cb58a3242ep+0, 0x1.73bc14d012784p+0, 0x1.704c5ec504e94p+0,
    0x1.6cdd4426b0a06p+0, 0x1.696e755e0eb28p+0, 0x1.65ffa248d7f48p+0,
    0x1.62907a016eac5p+0, 0x1.5f20aaa4d763dp+0, 0x1.5bafe1164c049p+0,
    0x1.583dc8bfea84dp+0, 0x1.54ca0b4ff476fp+0, 0x1.515450720665dp+0,
    0x1.4ddc3d839cb5dp+0, 0x1.4a61754327465p+0, 0x1.46e39778d4ba7p+0,
    0x1.4362409821679p+0, 0x1.3fdd095913902p+0, 0x1.3c538647e5b5ap+0,
    0x1.38c54749af14dp+0, 0x1.3531d7146028fp+0, 0x1.3198ba982347ep+0,
    0x1.2df97057dd766p+0, 0x1.2a536fae2637cp+0, 0x1.26a627fb92324p+0,
    0x1.22f0ffba96cfp+0, 0x1.1f33537495c01p+0, 0x1.1b6c7492bde82p+0,
    0x1.179ba8045834dp+0, 0x1.13c024b2bbe07p+0, 0x1.0fd911b972d1fp+0,
    0x1.0be58456f2b03p+0, 0x1.07e47d8797275p+0, 0x1.03d4e7390f218p+0,
    0x1.ff6b21ffe30fdp-1, 0x1.f70a5866ad19ap-1, 0x1.ee848e954b86dp-1,
    0x1.e5d6909f34434p-1, 0x1.dcfccc51a7492p-1, 0x1.d3f340dd86c7ep-1,
    0x1.cab56ac6833b8p-1, 0x1.c13e2b012d15dp-1, 0x1.b787a7c4f44b9p-1,
    0x1.ad8b25067d399p-1, 0x1.a340d1bad03a7p-1, 0x1.989f85c72c99bp-1,
    0x1.8d9c6a9d0cf7fp-1, 0x1.822a858ac5ee4p-1, 0x1.763a1600c177ep-1,
    0x1.69b7b213c3f7fp-1, 0x1.5c8afdbecef89p-1, 0x1.4e94c08bd4d94p-1,
    0x1.3fabee18d684dp-1, 0x1.2f98d6bb0e75cp-1, 0x1.1e0ce6b54ec78p-1,
    0x1.0a936da5942fdp-1, 0x1.e8e576e38315ep-2, 0x1.b4c8fecd63b77p-2,
    0x1.73949183ade39p-2, 0x1.16db47dfb33b5p-2, 0x0p+0,
};
inline constexpr double kRatio[kLayers] = {
    0x1.dab48848d3909p-1, 0x1.df5993967cf54p-1, 0x1.e9c885d9a63cap-1,
    0x1.eea42f70cec67p-1, 0x1.f1803c6a0760fp-1, 0x1.f366d2afaec62p-1,
    0x1.f4c3825de9d6ep-1, 0x1.f5ca83ef26c69p-1, 0x1.f69868793c389p-1,
    0x1.f73e31c8987c2p-1, 0x1.f7c6a977e2ecep-1, 0x1.f838ffd4ebf6p-1,
    0x1.f89a30bcaa637p-1, 0x1.f8edcde8cdc93p-1, 0x1.f93677b627cf9p-1,
    0x1.f97628687bf8dp-1, 0x1.f9ae64ccb1debp-1, 0x1.f9e05ca2efc4bp-1,
    0x1.fa0d00cfbb555p-1, 0x1.fa3512e9cb7d9p-1, 0x1.fa59305b355a6p-1,
    0x1.fa79da7e00329p-1, 0x1.fa977c9ec1258p-1, 0x1.fab27081a255dp-1,
    0x1.facb01d436578p-1, 0x1.fae170d5cac3fp-1, 0x1.faf5f46a24779p-1,
    0x1.fb08bbbbc723p-1, 0x1.fb19ef88b627bp-1, 0x1.fb29b32d76f6fp-1,
    0x1.fb38257d09467p-1, 0x1.fb456170e1e79p-1, 0x1.fb517eb94bbb4p-1,
    0x1.fb5c92349c6afp-1, 0x1.fb66ae523532dp-1, 0x1.fb6fe3652f7p-1,
    0x1.fb783fe9bff15p-1, 0x1.fb7fd0bfb9573p-1, 0x1.fb86a15c186a6p-1,
    0x1.fb8cbbf323e62p-1, 0x1.fb92299c5d006p-1, 0x1.fb96f27141f07p-1,
    0x1.fb9b1da7b4212p-1, 0x1.fb9eb1a8adc19p-1, 0x1.fba1b423d3f0ap-1,
    0x1.fba42a205a284p-1, 0x1.fba6180b9794fp-1, 0x1.fba781c59eba9p-1,
    0x1.fba86aac1a699p-1, 0x1.fba8d5a3a7f98p-1, 0x1.fba8c51fdd95dp-1,
    0x1.fba83b2a23c42p-1, 0x1.fba7396782d7p-1, 0x1.fba5c11d7f93dp-1,
    0x1.fba3d3361daa7p-1, 0x1.fba170431a9d2p-1, 0x1.fb9e988070415p-1,
    0x1.fb9b4bd62aefp-1, 0x1.fb9789d99cc11p-1, 0x1.fb9351cdf4ccep-1,
    0x1.fb8ea2a43ef9cp-1, 0x1.fb897afacefaap-1, 0x1.fb83d91c16e93p-1,
    0x1.fb7dbafce8018p-1, 0x1.fb771e3a1a031p-1, 0x1.fb70001593b2ep-1,
    0x1.fb685d72acdfdp-1, 0x1.fb6032d1e00b1p-1, 0x1.fb577c4bbf69dp-1,
    0x1.fb4e358b1e517p-1, 0x1.fb4459c65d27cp-1, 0x1.fb39e3b7c2a5bp-1,
    0x1.fb2ecd94c9786p-1, 0x1.fb23110445012p-1, 0x1.fb16a7133b08dp-1,
    0x1.fb0988284a7abp-1, 0x1.fafbabf570985p-1, 0x1.faed0967f643ap-1,
    0x1.fadd969645d12p-1, 0x1.facd48ab5ef91p-1, 0x1.fabc13cf91a07p-1,
    0x1.faa9eb0e18d9p-1, 0x1.fa96c0371d219p-1, 0x1.fa8283bd8ee08p-1,
    0x1.fa6d24902f7a6p-1, 0x1.fa568fecff2ddp-1, 0x1.fa3eb12e1ea49p-1,
    0x1.fa25718f033acp-1, 0x1.fa0ab7e8a219bp-1, 0x1.f9ee6862ed966p-1,
    0x1.f9d06419a61a5p-1, 0x1.f9b088b20f62ep-1, 0x1.f98eafde8dd8p-1,
    0x1.f96aaecc7db9bp-1, 0x1.f9445577b3f0ep-1, 0x1.f91b6dddf7894p-1,
    0x1.f8efbb0b4f4eep-1, 0x1.f8c0f7f61d64ep-1, 0x1.f88ed61f8d974p-1,
    0x1.f858fbe99e9adp-1, 0x1.f81f028fc1ac9p-1, 0x1.f7e073a947e8fp-1,
    0x1.f79cc61505873p-1, 0x1.f7535a22e2902p-1, 0x1.f70374c143badp-1,
    0x1.f6ac395f773dep-1, 0x1.f64ca218da0e4p-1, 0x1.f5e37591f4ff3p-1,
    0x1.f56f39b2ae525p-1, 0x1.f4ee220c2e0d4p-1, 0x1.f45df82ccfe24p-1,
    0x1.f3bbfb4b650dcp-1, 0x1.f304b35b5a31ap-1, 0x1.f233b16d72b2cp-1,
    0x1.f143339d794f5p-1, 0x1.f02b9c88c259ap-1, 0x1.eee2a3186592ap-1,
    0x1.ed5a0a98b5965p-1, 0x1.eb7d8a7cc52d8p-1, 0x1.e92f397461914p-1,
    0x1.e641170f432fdp-1, 0x1.e26896f5e9c8ep-1, 0x1.dd2487adb1d55p-1,
    0x1.d5801474081bdp-1, 0x1.c96d1a87fdaf2p-1, 0x1.b3911e9b03316p-1,
    0x1.803c6d4e356c7p-1, 0x0p+0,
};

} // namespace zignor

/** Deterministic xoshiro256++ generator with distribution helpers. */
class Rng {
  public:
    /** Seeds the state with splitmix64 expansion of @p seed. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        uint64_t x = seed;
        for (auto& s : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            s = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit output. */
    uint64_t
    NextU64()
    {
        const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = Rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    Uniform()
    {
        return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    Uniform(double lo, double hi)
    {
        return lo + (hi - lo) * Uniform();
    }

    /** Uniform integer in [0, n). @p n must be > 0. */
    uint64_t
    UniformInt(uint64_t n)
    {
        // Lemire's nearly-divisionless bounded generation.
        __uint128_t m = static_cast<__uint128_t>(NextU64()) * n;
        return static_cast<uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    UniformInt(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(
            UniformInt(static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Bernoulli trial with success probability @p p. */
    bool
    Bernoulli(double p)
    {
        return Uniform() < p;
    }

    /** Exponential variate with mean @p mean. */
    double
    Exponential(double mean)
    {
        double u = Uniform();
        // Guard against log(0).
        if (u <= 0.0)
            u = std::numeric_limits<double>::min();
        return -mean * std::log(u);
    }

    /**
     * Standard normal by the ziggurat (see zignor). One NextU64 picks the
     * layer from its low 7 bits and u in [-1, 1) from its top 53; the
     * ~97 % of draws inside a layer's rectangle need nothing else.
     */
    double
    Normal()
    {
        const uint64_t bits = NextU64();
        const size_t i = bits & 0x7f;
        const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
        if (std::fabs(u) < zignor::kRatio[i]) [[likely]]
            return u * zignor::kX[i];
        return NormalOutsideRectangle(i, u);
    }

    /** Normal variate with the given mean and standard deviation. */
    double
    Normal(double mean, double stddev)
    {
        return mean + stddev * Normal();
    }

    /**
     * Log-normal variate parameterized directly by its own mean and the
     * coefficient of variation @p cv (stddev / mean). Used for service
     * demands, which are positive and right-skewed.
     */
    double
    LogNormal(double mean, double cv)
    {
        return LogNormal(LogNormalParams::FromMeanCv(mean, cv));
    }

    /** Log-normal variate from precomputed parameters. */
    double
    LogNormal(const LogNormalParams& p)
    {
        if (!p.positive)
            return 0.0;
        return std::exp(Normal(p.mu, p.sigma));
    }

    /** Poisson count with mean @p lambda (inversion for small, PTRS-ish loop). */
    int
    Poisson(double lambda)
    {
        if (lambda <= 0.0)
            return 0;
        if (lambda < 30.0) {
            // Knuth inversion.
            const double l = std::exp(-lambda);
            int k = 0;
            double p = 1.0;
            do {
                ++k;
                p *= Uniform();
            } while (p > l);
            return k - 1;
        }
        // Normal approximation with continuity correction for large rates.
        const double v = Normal(lambda, std::sqrt(lambda));
        return v < 0.0 ? 0 : static_cast<int>(v + 0.5);
    }

    /** Derives an independent child stream (for per-component RNGs). */
    Rng
    Fork()
    {
        return Rng(NextU64() ^ 0xd1b54a32d192ed03ULL);
    }

  private:
    static uint64_t
    Rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /**
     * Normal() past layer @p i's rectangle, kept out of line: layer 0
     * takes Marsaglia's tail beyond kR; any other layer keeps its wedge
     * point if a uniform height under the layer's box falls under the
     * curve, and draws afresh otherwise.
     */
    [[gnu::noinline]] double
    NormalOutsideRectangle(size_t i, double u)
    {
        if (i == 0) {
            double x = 0.0;
            double y = 0.0;
            do {
                // 1 - Uniform() is in (0, 1], so both logs are finite.
                x = std::log(1.0 - Uniform()) / zignor::kR;
                y = std::log(1.0 - Uniform());
            } while (-2.0 * y < x * x);
            return u < 0.0 ? x - zignor::kR : zignor::kR - x;
        }
        const double xi = zignor::kX[i];
        const double xn = zignor::kX[i + 1];
        const double x = u * xi;
        const double f0 = std::exp(-0.5 * (xi * xi - x * x));
        const double f1 = std::exp(-0.5 * (xn * xn - x * x));
        if (f1 + Uniform() * (f0 - f1) < 1.0)
            return x;
        return Normal();
    }

    uint64_t state_[4];
};

} // namespace sinan

#endif // SINAN_COMMON_RNG_H
