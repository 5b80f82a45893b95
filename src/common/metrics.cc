#include "common/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "common/text_appender.h"

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

std::string
MetricsRegistry::ToCsv() const
{
    // Every row is a name plus at most 64 bytes: "histogram," and
    // ",le_", a %.17g bound (<= 24), ',' and a count (<= 20), '\n'.
    constexpr size_t kRowBytes = 64;
    size_t bytes = sizeof "kind,name,field,value\n";
    for (const auto& [name, v] : counters_)
        bytes += name.size() + kRowBytes;
    for (const auto& [name, v] : gauges_)
        bytes += name.size() + kRowBytes;
    for (const auto& [name, h] : histograms_)
        bytes += (4 + h.Counts().size()) * (name.size() + kRowBytes);
    std::string csv;
    csv.reserve(bytes);
    TextAppender out(csv);
    AppendCsv(out);
    return csv;
}

void
MetricsRegistry::AppendCsv(TextAppender& out) const
{
    out.Str("kind,name,field,value\n");
    for (const auto& [name, v] : counters_) {
        out.Str("counter,").Str(name).Str(",value,").Int(v).Char('\n');
        out.EndRow();
    }
    for (const auto& [name, v] : gauges_) {
        out.Str("gauge,").Str(name).Str(",value,").General17(v).Char('\n');
        out.EndRow();
    }
    for (const auto& [name, h] : histograms_) {
        out.Str("histogram,").Str(name).Str(",count,").Int(h.Count());
        out.Char('\n');
        out.Str("histogram,").Str(name).Str(",sum,").General17(h.Sum());
        out.Char('\n');
        out.Str("histogram,").Str(name).Str(",min,").General17(h.Min());
        out.Char('\n');
        out.Str("histogram,").Str(name).Str(",max,").General17(h.Max());
        out.Char('\n');
        for (size_t b = 0; b < h.Counts().size(); ++b) {
            out.Str("histogram,").Str(name).Str(",le_");
            if (b < h.Bounds().size())
                out.General17(h.Bounds()[b]);
            else
                out.Str("inf");
            out.Char(',').Int(h.Counts()[b]).Char('\n');
        }
        out.EndRow();
    }
}

void
MetricsRegistry::Clear()
{
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

} // namespace sinan
