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

    /** Standard normal via Box-Muller (one value per call, cached pair). */
    double
    Normal()
    {
        if (has_cached_) {
            has_cached_ = false;
            return cached_;
        }
        double u1 = Uniform();
        if (u1 <= 0.0)
            u1 = std::numeric_limits<double>::min();
        const double u2 = Uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 6.283185307179586 * u2;
        cached_ = r * std::sin(theta);
        has_cached_ = true;
        return r * std::cos(theta);
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

    uint64_t state_[4];
    double cached_ = 0.0;
    bool has_cached_ = false;
};

} // namespace sinan

#endif // SINAN_COMMON_RNG_H
