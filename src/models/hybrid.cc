#include "models/hybrid.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"

namespace sinan {

namespace {

using Clock = std::chrono::steady_clock;

double
Seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Width of a BT feature row: L_f, X_RC and four aggregates. */
int
BtRowWidth(int latent_dim, int n_tiers)
{
    return latent_dim + n_tiers + 4;
}

/** Writes one BT feature row, the one layout training and inference
 *  share: L_f (@p latent_dim values at @p latent), the normalized X_RC
 *  (@p n values at @p xrc), then the aggregates (total allocation,
 *  current p99, mean utilization, traffic) that anchor the trees
 *  without latent extrapolation. */
void
WriteBtRow(const float* latent, int latent_dim, const float* xrc, int n,
           float cur_p99, float util, float traffic, float* out)
{
    std::copy(latent, latent + latent_dim, out);
    float total_alloc = 0.0f;
    for (int j = 0; j < n; ++j) {
        out[latent_dim + j] = xrc[j];
        total_alloc += xrc[j];
    }
    out[latent_dim + n] = total_alloc;
    out[latent_dim + n + 1] = cur_p99;
    out[latent_dim + n + 2] = util;
    out[latent_dim + n + 3] = traffic;
}

/** Returns @p fcfg, or throws std::invalid_argument when its latency
 *  head is wider than a PercentileRow (or empty): every prediction is
 *  one row, so a wider head could never be reported. */
const FeatureConfig&
CheckPercentileWidth(const FeatureConfig& fcfg)
{
    if (fcfg.n_percentiles < 1 ||
        fcfg.n_percentiles > static_cast<int>(PercentileRow::kCapacity))
        throw std::invalid_argument(
            "HybridModel: n_percentiles must be in [1, " +
            std::to_string(PercentileRow::kCapacity) + "], got " +
            std::to_string(fcfg.n_percentiles));
    return fcfg;
}

} // namespace

HybridModel::HybridModel(const FeatureConfig& fcfg, const HybridConfig& cfg,
                         uint64_t seed)
    : fcfg_(CheckPercentileWidth(fcfg)), cfg_(cfg),
      cnn_(fcfg, cfg.cnn, seed), bt_(cfg.bt)
{
}

void
HybridModel::SharedAggregates(const Tensor& xrh, const Tensor& xlh, int row,
                              float* cur_p99, float* util,
                              float* traffic) const
{
    // Aggregates from the newest history step.
    const int n = fcfg_.n_tiers;
    const int t_last = fcfg_.history - 1;
    const int m = fcfg_.n_percentiles;
    *cur_p99 = xlh.At(row, fcfg_.history * m - 1);
    float u = 0.0f, tr = 0.0f;
    for (int i = 0; i < n; ++i) {
        const float limit = xrh.At(row, 0, i, t_last);
        const float used = xrh.At(row, 1, i, t_last);
        u += limit > 1e-6f ? used / limit : 0.0f;
        tr += xrh.At(row, 4, i, t_last);
    }
    *util = u / static_cast<float>(n);
    *traffic = tr;
}

void
HybridModel::ScoreCandidates(const Tensor& latent, const Tensor& xrc,
                             const Tensor& pred, float cur_p99, float util,
                             float traffic, std::vector<Prediction>& out)
{
    SINAN_CHECK_EQ(pred.Rank(), 2);
    SINAN_CHECK_EQ(latent.Rank(), 2);
    SINAN_CHECK_EQ(xrc.Rank(), 2);
    const int n_cands = pred.Dim(0);
    const int m = pred.Dim(1);
    const int latent_dim = latent.Dim(1);
    const int n = xrc.Dim(1);
    SINAN_CHECK_EQ(latent.Dim(0), n_cands);
    SINAN_CHECK_EQ(xrc.Dim(0), n_cands);
    const int nf = BtRowWidth(latent_dim, n);
    bt_rows_.EnsureShape({n_cands, nf});
    out.resize(static_cast<size_t>(n_cands));

    // Per-candidate BT scoring is the scheduler's per-interval hot
    // loop (one Predict per Table-1 action); candidates are
    // independent, so score them in parallel.
    ParallelFor(0, n_cands, 8, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            const size_t row = static_cast<size_t>(i);
            Prediction& p = out[row];
            const float* prow = pred.Data() + row * m;
            p.latency_ms.resize(static_cast<size_t>(m));
            for (int j = 0; j < m; ++j) {
                p.latency_ms[static_cast<size_t>(j)] =
                    static_cast<double>(prow[j]) * fcfg_.qos_ms;
            }
            float* fr = bt_rows_.Data() + row * nf;
            WriteBtRow(latent.Data() + row * latent_dim, latent_dim,
                       xrc.Data() + row * n, n, cur_p99, util, traffic,
                       fr);
            p.p_violation = bt_.Predict(fr);
        }
    });
}

void
HybridModel::TrainBt(const Dataset& train, const Dataset& valid,
                     HybridReport& report)
{
    auto build = [&](const Dataset& data) {
        GbtDataset out;
        std::vector<int> order(data.samples.size());
        std::iota(order.begin(), order.end(), 0);
        constexpr size_t kChunk = 256;
        for (size_t begin = 0; begin < order.size(); begin += kChunk) {
            const size_t end = std::min(begin + kChunk, order.size());
            const Batch batch = data.MakeBatch(order, begin, end);
            (void)cnn_.Forward(batch);
            const Tensor& latent = cnn_.Latent();
            const int latent_dim = latent.Dim(1);
            const int n = batch.xrc.Dim(1);
            SINAN_CHECK_EQ(latent.Dim(0), static_cast<int>(end - begin));
            SINAN_CHECK_EQ(batch.xrc.Dim(0), static_cast<int>(end - begin));
            std::vector<float> row(
                static_cast<size_t>(BtRowWidth(latent_dim, n)));
            for (size_t i = begin; i < end; ++i) {
                const int r = static_cast<int>(i - begin);
                float cur_p99 = 0.0f, util = 0.0f, traffic = 0.0f;
                SharedAggregates(batch.xrh, batch.xlh, r, &cur_p99, &util,
                                 &traffic);
                const size_t ri = static_cast<size_t>(r);
                WriteBtRow(latent.Data() + ri * latent_dim, latent_dim,
                           batch.xrc.Data() + ri * n, n, cur_p99, util,
                           traffic, row.data());
                out.AddRow(row, data.samples[order[i]].violation);
            }
        }
        return out;
    };

    const GbtDataset bt_train = build(train);
    const GbtDataset bt_valid = build(valid);

    const auto t0 = Clock::now();
    bt_ = BoostedTrees(cfg_.bt);
    bt_.Train(bt_train, bt_valid.n_rows ? &bt_valid : nullptr);
    report.bt_train_time_s = Seconds(t0, Clock::now());
    report.bt_trees = bt_.NumTrees();

    auto eval = [&](const GbtDataset& data, double* false_pos,
                    double* false_neg) {
        if (data.n_rows == 0)
            return 0.0;
        int correct = 0, fp = 0, fn = 0, neg = 0, pos = 0;
        for (int i = 0; i < data.n_rows; ++i) {
            const double p =
                bt_.Predict(&data.x[static_cast<size_t>(i) *
                                    data.n_features]);
            const bool pred = p >= 0.5;
            const bool truth = static_cast<double>(data.y[i]) >= 0.5;
            if (pred == truth)
                ++correct;
            if (truth) {
                ++pos;
                if (!pred)
                    ++fn;
            } else {
                ++neg;
                if (pred)
                    ++fp;
            }
        }
        if (false_pos)
            *false_pos = neg ? static_cast<double>(fp) / neg : 0.0;
        if (false_neg)
            *false_neg = pos ? static_cast<double>(fn) / pos : 0.0;
        return static_cast<double>(correct) / data.n_rows;
    };
    report.bt_train_accuracy = eval(bt_train, nullptr, nullptr);
    report.bt_val_accuracy =
        eval(bt_valid, &report.bt_val_false_pos, &report.bt_val_false_neg);
}

HybridReport
HybridModel::Train(const Dataset& train, const Dataset& valid)
{
    return FineTune(train, valid, cfg_.train);
}

HybridReport
HybridModel::FineTune(const Dataset& train, const Dataset& valid,
                      const TrainOptions& opts)
{
    HybridReport report;
    report.cnn = TrainLatencyModel(cnn_, train, valid, fcfg_, opts);
    val_rmse_ms_ = report.cnn.val_rmse_ms;
    val_rmse_subqos_ms_ = report.cnn.val_rmse_subqos_ms;
    TrainBt(train, valid, report);
    return report;
}

std::vector<Prediction>
HybridModel::Evaluate(const MetricWindow& window,
                      const std::vector<std::vector<double>>& allocations)
{
    return EvaluateTimed(window, allocations, nullptr);
}

std::vector<Prediction>
HybridModel::EvaluateTimed(const MetricWindow& window,
                           const std::vector<std::vector<double>>& allocations,
                           EvalStageTimes* stages)
{
    if (allocations.empty())
        return {};
    const int n = window.Config().n_tiers;
    const int n_cands = static_cast<int>(allocations.size());

    // Stage boundaries are read only when they are reported, so an
    // untimed Evaluate makes no clock reads.
    auto stamp = [stages] {
        return stages ? Clock::now() : Clock::time_point{};
    };

    // Feature build: the shared window row once, one allocation row
    // per candidate — no Sample materialization, no stacking copy.
    const auto t0 = stamp();
    ws_.xrh.EnsureShape(
        {1, FeatureConfig::kChannels, n, fcfg_.history});
    ws_.xlh.EnsureShape({1, fcfg_.LatFeatures()});
    BuildHistoryRow(window, ws_.xrh, ws_.xlh, 0);
    ws_.xrc.EnsureShape({n_cands, n});
    for (int i = 0; i < n_cands; ++i) {
        SINAN_CHECK_EQ(allocations[static_cast<size_t>(i)].size(),
                       static_cast<size_t>(n));
        BuildAllocRow(window.Config(), allocations[static_cast<size_t>(i)],
                      ws_.xrc, i);
    }
    const auto t1 = stamp();

    // Trunk once per interval, head once per candidate batch.
    cnn_.ForwardTrunk(ws_);
    const auto t2 = stamp();
    cnn_.ForwardHead(ws_);
    const auto t3 = stamp();
    SINAN_CHECK_EQ(ws_.pred.Dim(0), n_cands);

    float cur_p99 = 0.0f, util = 0.0f, traffic = 0.0f;
    SharedAggregates(ws_.xrh, ws_.xlh, 0, &cur_p99, &util, &traffic);
    std::vector<Prediction> out;
    ScoreCandidates(ws_.latent, ws_.xrc, ws_.pred, cur_p99, util, traffic,
                    out);
    const auto t4 = stamp();

    if (stages) {
        stages->feature_build_s = Seconds(t0, t1);
        stages->trunk_s = Seconds(t1, t2);
        stages->head_s = Seconds(t2, t3);
        stages->bt_s = Seconds(t3, t4);
        stages->kernel_id = ActiveKernelId();
    }
    return out;
}

std::vector<Prediction>
HybridModel::EvaluateFullBatch(
    const MetricWindow& window,
    const std::vector<std::vector<double>>& allocations)
{
    if (allocations.empty())
        return {};
    const int n = window.Config().n_tiers;
    const int n_cands = static_cast<int>(allocations.size());

    // Row-direct stacking: every candidate repeats the window history.
    Batch batch;
    batch.xrh =
        Tensor({n_cands, FeatureConfig::kChannels, n, fcfg_.history});
    batch.xlh = Tensor({n_cands, fcfg_.LatFeatures()});
    batch.xrc = Tensor({n_cands, n});
    for (int i = 0; i < n_cands; ++i) {
        SINAN_CHECK_EQ(allocations[static_cast<size_t>(i)].size(),
                       static_cast<size_t>(n));
        BuildHistoryRow(window, batch.xrh, batch.xlh, i);
        BuildAllocRow(window.Config(), allocations[static_cast<size_t>(i)],
                      batch.xrc, i);
    }

    const Tensor pred = cnn_.Forward(batch);
    const Tensor& latent = cnn_.Latent();
    SINAN_CHECK_EQ(pred.Dim(0), n_cands);

    float cur_p99 = 0.0f, util = 0.0f, traffic = 0.0f;
    SharedAggregates(batch.xrh, batch.xlh, 0, &cur_p99, &util, &traffic);
    std::vector<Prediction> out;
    ScoreCandidates(latent, batch.xrc, pred, cur_p99, util, traffic, out);
    return out;
}

std::unique_ptr<HybridModel>
HybridModel::Clone() const
{
    return std::unique_ptr<HybridModel>(new HybridModel(*this));
}

void
HybridModel::CalibrateInt8(const Dataset& calib, int max_samples)
{
    SINAN_CHECK_MSG(!calib.samples.empty(),
                    "CalibrateInt8: empty calibration set");
    const int count = std::min(
        max_samples, static_cast<int>(calib.samples.size()));
    CnnCalibration cal;
    for (int i = 0; i < count; ++i) {
        const Sample& s = calib.samples[static_cast<size_t>(i)];
        ws_.xrh.EnsureShape({1, s.xrh.Dim(0), s.xrh.Dim(1), s.xrh.Dim(2)});
        std::copy(s.xrh.Data(), s.xrh.Data() + s.xrh.Size(),
                  ws_.xrh.Data());
        ws_.xlh.EnsureShape({1, s.xlh.Dim(0)});
        std::copy(s.xlh.Data(), s.xlh.Data() + s.xlh.Size(),
                  ws_.xlh.Data());
        ws_.xrc.EnsureShape({1, s.xrc.Dim(0)});
        std::copy(s.xrc.Data(), s.xrc.Data() + s.xrc.Size(),
                  ws_.xrc.Data());
        cnn_.ForwardTrunk(ws_);
        cnn_.ForwardHead(ws_);
        SinanCnn::ObserveCalibration(ws_, cal);
    }
    cnn_.SetCalibration(cal);
}

void
HybridModel::Save(std::ostream& out) const
{
    out.write(reinterpret_cast<const char*>(&kModelMagic),
              sizeof(kModelMagic));
    out.write(reinterpret_cast<const char*>(&kModelVersion),
              sizeof(kModelVersion));
    cnn_.Save(out);
    bt_.Save(out);
    out.write(reinterpret_cast<const char*>(&val_rmse_ms_),
              sizeof(val_rmse_ms_));
    out.write(reinterpret_cast<const char*>(&val_rmse_subqos_ms_),
              sizeof(val_rmse_subqos_ms_));
    const std::optional<CnnCalibration>& cal = cnn_.Calibration();
    const int32_t has_cal = cal ? 1 : 0;
    out.write(reinterpret_cast<const char*>(&has_cal), sizeof(has_cal));
    if (cal) {
        const auto values = cal->Values();
        out.write(reinterpret_cast<const char*>(values.data()),
                  sizeof(float) * values.size());
    }
}

void
HybridModel::Load(std::istream& in)
{
    int32_t magic = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    if (!in)
        throw std::runtime_error("HybridModel::Load: truncated stream");
    if (magic != kModelMagic)
        throw std::runtime_error(
            "HybridModel::Load: not a SINN model container (no magic "
            "header; pre-container files are not supported)");
    int32_t version = 0;
    in.read(reinterpret_cast<char*>(&version), sizeof(version));
    if (!in)
        throw std::runtime_error("HybridModel::Load: truncated stream");
    if (version != kModelVersion)
        throw std::runtime_error(
            "HybridModel::Load: unsupported model format version " +
            std::to_string(version) + " (this build reads version " +
            std::to_string(kModelVersion) + ")");
    cnn_.Load(in);
    bt_.Load(in);
    // ScoreCandidates hands the trees rows of exactly this width.
    const int width = BtRowWidth(cnn_.LatentSize(), fcfg_.n_tiers);
    if (bt_.NumFeatures() != width)
        throw std::runtime_error(
            "HybridModel::Load: tree ensemble expects " +
            std::to_string(bt_.NumFeatures()) +
            " features, but the BT rows hold " + std::to_string(width));
    in.read(reinterpret_cast<char*>(&val_rmse_ms_), sizeof(val_rmse_ms_));
    in.read(reinterpret_cast<char*>(&val_rmse_subqos_ms_),
            sizeof(val_rmse_subqos_ms_));
    if (!in)
        throw std::runtime_error("HybridModel::Load: truncated stream");
    int32_t has_cal = 0;
    in.read(reinterpret_cast<char*>(&has_cal), sizeof(has_cal));
    if (!in)
        throw std::runtime_error(
            "HybridModel::Load: truncated calibration section");
    if (has_cal) {
        std::array<float, kCnnCalibrationSize> values{};
        in.read(reinterpret_cast<char*>(values.data()),
                sizeof(float) * values.size());
        if (!in)
            throw std::runtime_error(
                "HybridModel::Load: truncated calibration section");
        cnn_.SetCalibration(CnnCalibration::FromValues(values));
    }
}

} // namespace sinan
