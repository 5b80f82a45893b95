#include "common/metrics.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace sinan {

FixedHistogram::FixedHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0)
{
    if (!std::is_sorted(bounds_.begin(), bounds_.end()))
        throw std::invalid_argument(
            "FixedHistogram: bounds must be ascending");
}

void
FixedHistogram::Observe(double v)
{
    size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b])
        ++b;
    ++counts_[b];
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
FixedHistogram::Reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

void
MetricsRegistry::Inc(const std::string& name, uint64_t by)
{
    counters_[name] += by;
}

void
MetricsRegistry::Set(const std::string& name, double value)
{
    gauges_[name] = value;
}

void
MetricsRegistry::Observe(const std::string& name, double value,
                         const std::vector<double>& bounds)
{
    HistogramFor(name, bounds).Observe(value);
}

FixedHistogram&
MetricsRegistry::HistogramFor(const std::string& name,
                              const std::vector<double>& bounds)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, FixedHistogram(bounds)).first;
    return it->second;
}

uint64_t
MetricsRegistry::Counter(const std::string& name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
MetricsRegistry::Gauge(const std::string& name) const
{
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

const FixedHistogram*
MetricsRegistry::Histogram(const std::string& name) const
{
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

namespace {

/** Shortest round-trip-safe formatting keeps the CSV/JSON stable. */
std::string
FormatValue(double v)
{
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

} // namespace

std::string
MetricsRegistry::ToCsv() const
{
    std::ostringstream out;
    out << "kind,name,field,value\n";
    for (const auto& [name, v] : counters_)
        out << "counter," << name << ",value," << v << '\n';
    for (const auto& [name, v] : gauges_)
        out << "gauge," << name << ",value," << FormatValue(v) << '\n';
    for (const auto& [name, h] : histograms_) {
        out << "histogram," << name << ",count," << h.Count() << '\n';
        out << "histogram," << name << ",sum," << FormatValue(h.Sum())
            << '\n';
        out << "histogram," << name << ",min," << FormatValue(h.Min())
            << '\n';
        out << "histogram," << name << ",max," << FormatValue(h.Max())
            << '\n';
        for (size_t b = 0; b < h.Counts().size(); ++b) {
            out << "histogram," << name << ",le_";
            if (b < h.Bounds().size())
                out << FormatValue(h.Bounds()[b]);
            else
                out << "inf";
            out << ',' << h.Counts()[b] << '\n';
        }
    }
    return out.str();
}

void
MetricsRegistry::Clear()
{
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

} // namespace sinan
