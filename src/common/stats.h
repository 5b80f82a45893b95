/**
 * @file
 * Streaming statistics: percentile digests for per-interval tail-latency
 * reporting, running summaries, and small vector-math helpers used across
 * the simulator, the ML models, and the benchmark harness.
 */
#ifndef SINAN_COMMON_STATS_H
#define SINAN_COMMON_STATS_H

#include <cstddef>
#include <vector>

namespace sinan {

/**
 * Collects raw samples during one measurement interval and answers
 * percentile queries at interval roll-up. The sample buffer is cleared
 * by Reset() so the digest can be reused interval after interval without
 * reallocation.
 *
 * Contract: Seal() or SealFrom() must be called after the interval's
 * writes and before any Quantile()/Quantiles()/Max() query on a
 * non-empty digest — querying an unsealed digest raises a
 * ContractViolation (see common/check.h). Sealing orders the buffer in
 * place once, so queries are pure reads. SealFrom(p_min) orders only
 * the part at or above the p_min quantile; a Quantile(p) below that
 * floor is a ContractViolation too.
 *
 * Thread safety: because queries never touch an unsealed buffer, any
 * number of threads may query one sealed digest concurrently (e.g.
 * sweep workers reading a shared reference). Add()/Seal()/Reset()
 * still require external serialization against each other and against
 * queries, like any single-writer container.
 */
class PercentileDigest {
  public:
    /** Adds one sample (invalidates the sealed state). */
    void
    Add(double v)
    {
        samples_.push_back(v);
        sealed_from_ = kUnsealed;
    }

    /** Number of samples in the current interval. */
    size_t Count() const { return samples_.size(); }

    /**
     * Sorts the buffer in place so subsequent queries need no copy.
     * Idempotent; same as SealFrom(0.0).
     */
    void Seal() { SealFrom(0.0); }

    /**
     * Seals for queries at p >= @p p_min (in [0,1]) only: partitions the
     * buffer at the p_min quantile's lower index and sorts just the part
     * above it, so a tail-only roll-up (p95..p99) skips most of the
     * sort. Those quantiles equal the fully sorted ones bit for bit.
     * Idempotent for any p_min at or above the current floor.
     */
    void SealFrom(double p_min);

    /**
     * Returns the p-quantile (p in [0,1]) via linear interpolation.
     * Returns 0 for an empty digest (an idle interval has no latency).
     * The digest must be sealed from at most @p p (contract violation
     * otherwise).
     */
    double Quantile(double p) const;

    /** Returns several quantiles at once; cheaper than repeated calls. */
    std::vector<double> Quantiles(const std::vector<double>& ps) const;

    /** Arithmetic mean of the interval's samples (0 when empty). */
    double Mean() const;

    /** Largest sample (0 when empty); requires a sealed digest. */
    double Max() const;

    /** Clears the buffer for the next interval. */
    void Reset();

  private:
    /** Lowest sealed quantile; above 1 while unsealed. */
    static constexpr double kUnsealed = 2.0;

    std::vector<double> samples_;
    double sealed_from_ = 0.0;
};

/** Running mean / min / max / count over a stream of values. */
class RunningSummary {
  public:
    void Add(double v);

    size_t Count() const { return count_; }
    double
    Mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    double Min() const { return count_ ? min_ : 0.0; }
    double Max() const { return count_ ? max_ : 0.0; }
    double Sum() const { return sum_; }

    void Reset();

  private:
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    size_t count_ = 0;
};

/** Quantile of an arbitrary vector (copies and sorts; for offline use). */
double VectorQuantile(std::vector<double> values, double p);

/** Root-mean-squared error between two equally sized vectors. */
double Rmse(const std::vector<double>& a, const std::vector<double>& b);

/** Mean of a vector (0 when empty). */
double Mean(const std::vector<double>& values);

} // namespace sinan

#endif // SINAN_COMMON_STATS_H
