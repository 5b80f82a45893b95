/**
 * @file
 * Fixed-width row of end-to-end latency percentiles (p95..p99), the
 * shape of every model prediction (models/hybrid.h) and every
 * decision-trace candidate (core/decision_trace.h).
 *
 * The values live inline next to a one-byte count, so a row costs no
 * heap allocation: the scheduler scores ~100 candidates per interval
 * and a managed run keeps every one of them in its decision trace,
 * which made a per-candidate std::vector the trace's dominant memory
 * cost. The interface is the subset of std::vector the readers use
 * (size/empty/[]/back/begin/end), so serializers read a row exactly
 * as they read the vector it replaced.
 *
 * The row is deliberately not a layout-POD (its members are private):
 * under the Itanium C++ ABI a [[no_unique_address]] row then lends its
 * tail padding to the members declared after it, which is what lets
 * CandidateTrace fit in 64 bytes.
 */
#ifndef SINAN_COMMON_PERCENTILE_ROW_H
#define SINAN_COMMON_PERCENTILE_ROW_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "common/check.h"

namespace sinan {

/** Up to kCapacity latency percentiles, ms, stored inline. */
class PercentileRow {
  public:
    /** p95, p96, p97, p98, p99 — the levels of LatencyQuantiles(). */
    static constexpr size_t kCapacity = 5;

    PercentileRow() = default;

    /** A row holding @p values (at most kCapacity of them). */
    PercentileRow(std::initializer_list<double> values)
    {
        resize(values.size());
        std::copy(values.begin(), values.end(), values_.begin());
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Sets the count to @p n (<= kCapacity); entries it adds read 0,
     *  as std::vector::resize would leave them. */
    void
    resize(size_t n)
    {
        SINAN_CHECK_LE(n, kCapacity);
        if (n > size_)
            std::fill(values_.begin() + size_, values_.begin() + n, 0.0);
        size_ = static_cast<uint8_t>(n);
    }

    double operator[](size_t i) const { return values_[i]; }
    double& operator[](size_t i) { return values_[i]; }
    double back() const { return values_[size_ - 1]; }

    const double* begin() const { return values_.data(); }
    const double* end() const { return values_.data() + size_; }

    friend bool
    operator==(const PercentileRow& a, const PercentileRow& b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    std::array<double, kCapacity> values_{};
    uint8_t size_ = 0;
};

} // namespace sinan

#endif // SINAN_COMMON_PERCENTILE_ROW_H
