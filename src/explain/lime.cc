#include "explain/lime.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>

namespace sinan {

/** Number of perturbed samples per explanation. */
constexpr int kSamples = 256;
/** Multipliers are drawn uniformly from [low, high]. */
constexpr double kMultiplierLow = 0.5;
constexpr double kMultiplierHigh = 1.5;
/** Ridge regularization of the linear surrogate. */
constexpr double kRidgeLambda = 1e-3;
constexpr uint64_t kSeed = 7;

std::vector<double>
SolveRidge(std::vector<std::vector<double>> a, std::vector<double> b,
           double lambda)
{
    const size_t n = a.size();
    if (b.size() != n)
        throw std::invalid_argument("SolveRidge: dimension mismatch");
    for (size_t i = 0; i < n; ++i) {
        if (a[i].size() != n)
            throw std::invalid_argument("SolveRidge: non-square matrix");
        a[i][i] += lambda;
    }
    // Gaussian elimination with partial pivoting.
    for (size_t col = 0; col < n; ++col) {
        size_t pivot = col;
        for (size_t r = col + 1; r < n; ++r) {
            if (std::abs(a[r][col]) > std::abs(a[pivot][col]))
                pivot = r;
        }
        if (std::abs(a[pivot][col]) < 1e-12)
            throw std::runtime_error("SolveRidge: singular system");
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);
        for (size_t r = col + 1; r < n; ++r) {
            const double f = a[r][col] / a[col][col];
            if (f == 0.0)
                continue;
            for (size_t c = col; c < n; ++c)
                a[r][c] -= f * a[col][c];
            b[r] -= f * b[col];
        }
    }
    std::vector<double> w(n, 0.0);
    for (size_t i = n; i-- > 0;) {
        double acc = b[i];
        for (size_t c = i + 1; c < n; ++c)
            acc -= a[i][c] * w[c];
        w[i] = acc / a[i][i];
    }
    return w;
}

std::vector<int>
LimeExplanation::TopK(int k) const
{
    std::vector<int> order(weights.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int x, int y) {
        return weights[x] > weights[y];
    });
    if (k < static_cast<int>(order.size()))
        order.resize(k);
    return order;
}

LimeExplainer::LimeExplainer(LatencyModel& model, const FeatureConfig& fcfg)
    : model_(model), fcfg_(fcfg)
{
}

LimeExplanation
LimeExplainer::Explain(
    const Sample& x, int n_groups,
    const std::function<void(Sample&, int, double)>& apply)
{
    Rng rng(kSeed);
    const int n = kSamples;

    // Perturbation design matrix: multipliers, centered at 1.
    std::vector<std::vector<double>> z(
        n, std::vector<double>(static_cast<size_t>(n_groups) + 1, 1.0));
    std::vector<Sample> perturbed;
    perturbed.reserve(n);
    for (int i = 0; i < n; ++i) {
        Sample s = x;
        for (int g = 0; g < n_groups; ++g) {
            const double m =
                rng.Uniform(kMultiplierLow, kMultiplierHigh);
            z[i][g] = m - 1.0; // centered so the intercept absorbs X
            apply(s, g, m);
        }
        z[i][n_groups] = 1.0; // intercept column
        perturbed.push_back(std::move(s));
    }

    // Model labels (predicted p99, normalized) in chunks.
    std::vector<double> y(n, 0.0);
    constexpr size_t kChunk = 128;
    for (size_t begin = 0; begin < perturbed.size(); begin += kChunk) {
        const size_t end =
            std::min(begin + kChunk, perturbed.size());
        std::vector<const Sample*> ptrs;
        for (size_t i = begin; i < end; ++i)
            ptrs.push_back(&perturbed[i]);
        const Tensor pred = model_.Forward(StackSamples(ptrs));
        const int m = pred.Dim(1);
        for (size_t i = begin; i < end; ++i)
            y[i] = pred.At(static_cast<int>(i - begin), m - 1);
    }

    // Ridge regression: w = (Z^T Z + lambda I)^-1 Z^T y.
    const size_t d = static_cast<size_t>(n_groups) + 1;
    std::vector<std::vector<double>> ata(d, std::vector<double>(d, 0.0));
    std::vector<double> aty(d, 0.0);
    for (int i = 0; i < n; ++i) {
        for (size_t r = 0; r < d; ++r) {
            aty[r] += z[i][r] * y[i];
            for (size_t c = r; c < d; ++c)
                ata[r][c] += z[i][r] * z[i][c];
        }
    }
    for (size_t r = 0; r < d; ++r)
        for (size_t c = 0; c < r; ++c)
            ata[r][c] = ata[c][r];
    const std::vector<double> w = SolveRidge(ata, aty, kRidgeLambda);

    LimeExplanation exp;
    exp.weights.resize(n_groups);
    for (int g = 0; g < n_groups; ++g)
        exp.weights[g] = std::abs(w[g]);
    return exp;
}

LimeExplanation
LimeExplainer::ExplainTiers(const Sample& x)
{
    const int t_len = fcfg_.history;
    return Explain(x, fcfg_.n_tiers, [&](Sample& s, int tier, double m) {
        for (int c = 0; c < FeatureConfig::kChannels; ++c)
            for (int t = 0; t < t_len; ++t)
                s.xrh.At(c, tier, t) *= static_cast<float>(m);
    });
}

LimeExplanation
LimeExplainer::ExplainResources(const Sample& x, int tier)
{
    const int t_len = fcfg_.history;
    return Explain(x, FeatureConfig::kChannels,
                   [&](Sample& s, int channel, double m) {
                       for (int t = 0; t < t_len; ++t)
                           s.xrh.At(channel, tier, t) *=
                               static_cast<float>(m);
                   });
}

LimeExplanation
LimeExplainer::ExplainTiersAveraged(const std::vector<Sample>& xs)
{
    if (xs.empty())
        throw std::invalid_argument("ExplainTiersAveraged: no samples");
    LimeExplanation total;
    total.weights.assign(fcfg_.n_tiers, 0.0);
    for (const Sample& x : xs) {
        const LimeExplanation e = ExplainTiers(x);
        for (size_t i = 0; i < total.weights.size(); ++i)
            total.weights[i] += e.weights[i];
    }
    for (double& w : total.weights)
        w /= static_cast<double>(xs.size());
    return total;
}

} // namespace sinan
