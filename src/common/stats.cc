#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

#include "common/check.h"

namespace sinan {

namespace {

/** Lower index of quantile @p p in [0,1] over @p n > 0 sorted samples. */
size_t
QuantileIndex(size_t n, double p)
{
    return static_cast<size_t>(p * static_cast<double>(n - 1));
}

} // namespace

void
PercentileDigest::SealFrom(double p_min)
{
    SINAN_CHECK_BOUNDS(p_min, 0.0, 1.0);
    if (p_min >= sealed_from_)
        return;
    if (!samples_.empty()) {
        // Everything left of `first` is <= it and never read, so only
        // [first, end) needs its sorted order; those positions hold the
        // same values a full sort would put there.
        const auto first = samples_.begin() +
                           static_cast<std::ptrdiff_t>(
                               QuantileIndex(samples_.size(), p_min));
        if (first != samples_.begin())
            std::nth_element(samples_.begin(), first, samples_.end());
        std::sort(first, samples_.end());
    }
    sealed_from_ = p_min;
}

double
PercentileDigest::Quantile(double p) const
{
    if (samples_.empty())
        return 0.0;
    SINAN_CHECK_MSG(sealed_from_ <= 1.0,
                    "PercentileDigest: Seal() before querying an "
                    "interval's quantiles");
    SINAN_CHECK_MSG(p >= sealed_from_ || sealed_from_ == 0.0,
                    "PercentileDigest: quantile " << p
                        << " is below the sealed floor " << sealed_from_);
    if (p <= 0.0)
        return samples_.front();
    if (p >= 1.0)
        return samples_.back();
    const size_t n = samples_.size();
    const size_t lo = QuantileIndex(n, p);
    if (lo + 1 >= n)
        return samples_.back();
    const double frac =
        p * static_cast<double>(n - 1) - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

std::vector<double>
PercentileDigest::Quantiles(const std::vector<double>& ps) const
{
    std::vector<double> out;
    out.reserve(ps.size());
    for (double p : ps)
        out.push_back(Quantile(p));
    return out;
}

double
PercentileDigest::Mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double v : samples_)
        s += v;
    return s / static_cast<double>(samples_.size());
}

double
PercentileDigest::Max() const
{
    if (samples_.empty())
        return 0.0;
    SINAN_CHECK_MSG(sealed_from_ <= 1.0,
                    "PercentileDigest: Seal() before querying an "
                    "interval's maximum");
    return samples_.back();
}

void
PercentileDigest::Reset()
{
    samples_.clear();
    sealed_from_ = 0.0;
}

void
RunningSummary::Add(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

void
RunningSummary::Reset()
{
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
    count_ = 0;
}

double
VectorQuantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    if (p <= 0.0)
        return values.front();
    if (p >= 1.0)
        return values.back();
    const double pos = p * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= values.size())
        return values.back();
    return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

double
Rmse(const std::vector<double>& a, const std::vector<double>& b)
{
    SINAN_CHECK_EQ(a.size(), b.size());
    if (a.empty())
        return 0.0;
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(a.size()));
}

double
Mean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double s = 0.0;
    for (double v : values)
        s += v;
    return s / static_cast<double>(values.size());
}

} // namespace sinan
