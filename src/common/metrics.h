/**
 * @file
 * Lightweight metrics registry: named counters, gauges, and fixed-bucket
 * histograms backing the scheduler's decision telemetry and the harness
 * reports. The registry spawns no threads and takes no locks; like a
 * ResourceManager, each concurrent run owns a private instance (the
 * sweep jobs attach one registry per run), which keeps the output
 * bit-identical regardless of the thread-pool size. Iteration order is
 * the lexicographic metric name, so serialized output is deterministic.
 */
#ifndef SINAN_COMMON_METRICS_H
#define SINAN_COMMON_METRICS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sinan {

/**
 * Fixed-bucket histogram: counts of observations falling at or below
 * each upper bound, plus an overflow bucket and running sum/min/max.
 * Bucket bounds are fixed at definition time; observations never
 * allocate.
 */
class FixedHistogram {
  public:
    FixedHistogram() = default;

    /** @param bounds ascending bucket upper bounds (inclusive). */
    explicit FixedHistogram(std::vector<double> bounds);

    void Observe(double v);

    /** Bucket upper bounds (the overflow bucket is implicit). */
    const std::vector<double>& Bounds() const { return bounds_; }

    /** Per-bucket counts; size is Bounds().size() + 1 (last = overflow). */
    const std::vector<uint64_t>& Counts() const { return counts_; }

    uint64_t Count() const { return count_; }
    double Sum() const { return sum_; }
    double
    Mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    double Min() const { return count_ ? min_ : 0.0; }
    double Max() const { return count_ ? max_ : 0.0; }

    void Reset();

  private:
    std::vector<double> bounds_;
    std::vector<uint64_t> counts_ = {0};
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A registry of named metrics. Unknown names are created on first use;
 * reads of undefined metrics return zero rather than throwing, so
 * report code never has to guard against a counter that was never hit.
 */
class MetricsRegistry {
  public:
    /** Increments counter @p name by @p by (creating it at 0). */
    void Inc(const std::string& name, uint64_t by = 1);

    /** Sets gauge @p name to @p value. */
    void Set(const std::string& name, double value);

    /**
     * Records @p value into histogram @p name, creating it with
     * @p bounds on first use (later bounds are ignored; empty bounds
     * create a summary-only histogram that tracks count/sum/min/max).
     */
    void Observe(const std::string& name, double value,
                 const std::vector<double>& bounds = {});

    /**
     * Histogram @p name, created with @p bounds on first use exactly
     * as Observe creates it. Observing into the returned reference is
     * Observe without the name lookup; the reference stays valid until
     * Clear().
     */
    FixedHistogram& HistogramFor(const std::string& name,
                                 const std::vector<double>& bounds = {});

    /** Counter value (0 when the counter was never incremented). */
    uint64_t Counter(const std::string& name) const;

    /** Gauge value (0 when the gauge was never set). */
    double Gauge(const std::string& name) const;

    /** Histogram by name, or nullptr when never observed. */
    const FixedHistogram* Histogram(const std::string& name) const;

    const std::map<std::string, uint64_t>& Counters() const
    {
        return counters_;
    }
    const std::map<std::string, double>& Gauges() const { return gauges_; }
    const std::map<std::string, FixedHistogram>& Histograms() const
    {
        return histograms_;
    }

    /**
     * Serializes every metric as `kind,name,field,value` CSV rows
     * (counters and gauges emit one row; histograms emit count/sum/
     * min/max/mean plus one row per bucket). Rows are ordered by kind
     * then name, so equal registries render byte-identical CSV.
     */
    std::string ToCsv() const;

    /** Drops every metric. */
    void Clear();

  private:
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, FixedHistogram> histograms_;
};

} // namespace sinan

#endif // SINAN_COMMON_METRICS_H
