/**
 * @file
 * Tests for featurization, datasets, the Sinan CNN, the MLP/LSTM
 * baselines, the trainer, and the hybrid CNN+BT model.
 */
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/thread_pool.h"
#include "models/baseline_nets.h"
#include "models/hybrid.h"
#include "models/multitask.h"
#include "models/sinan_cnn.h"
#include "models/trainer.h"
#include "test_util.h"

namespace sinan {
namespace {

using testutil::MakeObs;
using testutil::SmallFeatures;
using testutil::SyntheticDataset;

TEST(MetricWindow, ReadyOnlyWhenFull)
{
    const FeatureConfig f = SmallFeatures();
    MetricWindow w(f);
    EXPECT_FALSE(w.Ready());
    for (int t = 0; t < f.history; ++t)
        w.Push(MakeObs(f, t, 100, 2.0, 0.5, 120));
    EXPECT_TRUE(w.Ready());
    w.Clear();
    EXPECT_FALSE(w.Ready());
}

TEST(BuildInput, ShapesAndNormalization)
{
    const FeatureConfig f = SmallFeatures();
    MetricWindow w(f);
    for (int t = 0; t < f.history; ++t)
        w.Push(MakeObs(f, t, 100, 4.0, 0.5, 250));
    const std::vector<double> alloc(f.n_tiers, 8.0);
    const Sample s = BuildInput(w, alloc);
    EXPECT_EQ(s.xrh.Shape(),
              (std::vector<int>{FeatureConfig::kChannels, f.n_tiers,
                                f.history}));
    EXPECT_EQ(s.xlh.Dim(0), f.history * f.n_percentiles);
    EXPECT_EQ(s.xrc.Dim(0), f.n_tiers);
    // cpu_limit channel normalized by kCpuScale.
    EXPECT_FLOAT_EQ(s.xrh.At(0, 0, 0),
                    static_cast<float>(4.0 / FeatureConfig::kCpuScale));
    // p99 normalized by QoS: last percentile of each timestep.
    EXPECT_FLOAT_EQ(s.xlh[f.n_percentiles - 1],
                    static_cast<float>(250.0 / f.qos_ms));
    EXPECT_FLOAT_EQ(s.xrc[0],
                    static_cast<float>(8.0 / FeatureConfig::kCpuScale));
}

TEST(BuildInput, RequiresFullWindowAndMatchingAlloc)
{
    const FeatureConfig f = SmallFeatures();
    MetricWindow w(f);
    EXPECT_THROW(BuildInput(w, std::vector<double>(f.n_tiers, 1.0)),
                 std::logic_error);
    for (int t = 0; t < f.history; ++t)
        w.Push(MakeObs(f, t, 100, 4.0, 0.5, 100));
    EXPECT_THROW(BuildInput(w, {1.0}), std::invalid_argument);
}

TEST(StackSamples, BatchesAndValidates)
{
    const FeatureConfig f = SmallFeatures();
    const Dataset d = SyntheticDataset(f, 5, 1);
    std::vector<const Sample*> ptrs;
    for (const Sample& s : d.samples)
        ptrs.push_back(&s);
    const Batch b = StackSamples(ptrs);
    EXPECT_EQ(b.Size(), 5);
    EXPECT_EQ(b.xrh.Dim(1), FeatureConfig::kChannels);
    // First sample's data is copied verbatim.
    EXPECT_FLOAT_EQ(b.xrc.At(0, 0), d.samples[0].xrc[0]);
    EXPECT_THROW(StackSamples({}), std::invalid_argument);
}

TEST(Dataset, SplitIsDeterministicAndDisjoint)
{
    const FeatureConfig f = SmallFeatures();
    const Dataset d = SyntheticDataset(f, 100, 2);
    Rng rng1(7), rng2(7);
    const auto [train1, val1] = d.Split(0.9, rng1);
    const auto [train2, val2] = d.Split(0.9, rng2);
    EXPECT_EQ(train1.samples.size(), 90u);
    EXPECT_EQ(val1.samples.size(), 10u);
    EXPECT_EQ(train1.samples.size(), train2.samples.size());
    EXPECT_FLOAT_EQ(train1.samples[0].violation,
                    train2.samples[0].violation);
    EXPECT_THROW(d.Split(0.0, rng1), std::invalid_argument);
    EXPECT_THROW(d.Split(1.0, rng1), std::invalid_argument);
}

TEST(Dataset, ViolationRate)
{
    Dataset d;
    Sample s;
    s.violation = 1.0f;
    d.samples.push_back(s);
    s.violation = 0.0f;
    d.samples.push_back(s);
    EXPECT_DOUBLE_EQ(d.ViolationRate(), 0.5);
    EXPECT_DOUBLE_EQ(Dataset{}.ViolationRate(), 0.0);
}

TEST(SinanCnn, ForwardShapesAndLatent)
{
    const FeatureConfig f = SmallFeatures();
    SinanCnnConfig cfg;
    SinanCnn cnn(f, cfg, 3);
    const Dataset d = SyntheticDataset(f, 8, 3);
    std::vector<int> idx = {0, 1, 2, 3, 4, 5, 6, 7};
    const Batch b = d.MakeBatch(idx, 0, 8);
    const Tensor y = cnn.Forward(b);
    EXPECT_EQ(y.Shape(), (std::vector<int>{8, f.n_percentiles}));
    EXPECT_EQ(cnn.Latent().Shape(),
              (std::vector<int>{8, SinanCnnConfig::kLatent}));
    EXPECT_GT(cnn.NumParams(), 1000u);
}

TEST(SinanCnn, SaveLoadReproducesOutputs)
{
    const FeatureConfig f = SmallFeatures();
    SinanCnn a(f, SinanCnnConfig{}, 3);
    SinanCnn b(f, SinanCnnConfig{}, 99);
    const Dataset d = SyntheticDataset(f, 4, 3);
    std::vector<int> idx = {0, 1, 2, 3};
    const Batch batch = d.MakeBatch(idx, 0, 4);
    std::stringstream ss;
    a.Save(ss);
    b.Load(ss);
    const Tensor ya = a.Forward(batch);
    const Tensor yb = b.Forward(batch);
    for (size_t i = 0; i < ya.Size(); ++i)
        EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(BaselineNets, ForwardShapes)
{
    const FeatureConfig f = SmallFeatures();
    MlpPredictor mlp(f, 32, 16, 5);
    LstmPredictor lstm(f, 12, 5);
    const Dataset d = SyntheticDataset(f, 6, 5);
    std::vector<int> idx = {0, 1, 2, 3, 4, 5};
    const Batch b = d.MakeBatch(idx, 0, 6);
    EXPECT_EQ(mlp.Forward(b).Shape(),
              (std::vector<int>{6, f.n_percentiles}));
    EXPECT_EQ(lstm.Forward(b).Shape(),
              (std::vector<int>{6, f.n_percentiles}));
    EXPECT_STREQ(mlp.Name(), "MLP");
    EXPECT_STREQ(lstm.Name(), "LSTM");
}

/**
 * Every latency model must learn the synthetic allocation→latency law
 * well enough to beat the predict-the-mean baseline by a wide margin.
 */
class ModelLearnsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelLearnsTest, BeatsMeanPredictor)
{
    const FeatureConfig f = SmallFeatures();
    const Dataset all = SyntheticDataset(f, 600, 11);
    Rng rng(13);
    const auto [train, valid] = all.Split(0.9, rng);

    std::unique_ptr<LatencyModel> model;
    const std::string name = GetParam();
    if (name == "CNN") {
        model = std::make_unique<SinanCnn>(f, SinanCnnConfig{}, 21);
    } else if (name == "MLP") {
        model = std::make_unique<MlpPredictor>(f, 64, 32, 21);
    } else {
        model = std::make_unique<LstmPredictor>(f, 24, 21);
    }

    TrainOptions opts;
    opts.epochs = 50;
    opts.lr = 0.03;
    // Plain MSE: the test's success metric is unscaled RMSE, so the
    // training objective should match it (Eq. 2's scaling is exercised
    // separately below).
    opts.scaled_loss = false;
    const TrainReport report =
        TrainLatencyModel(*model, train, valid, f, opts);

    // Mean predictor RMSE (in ms) on the validation set.
    double mean = 0.0;
    size_t n = 0;
    for (const Sample& s : valid.samples) {
        for (float v : s.y_latency) {
            mean += static_cast<double>(v);
            ++n;
        }
    }
    mean /= static_cast<double>(n);
    double se = 0.0;
    for (const Sample& s : valid.samples) {
        for (float v : s.y_latency) {
            const double d = static_cast<double>(v) - mean;
            se += d * d;
        }
    }
    const double mean_rmse_ms =
        std::sqrt(se / static_cast<double>(n)) * f.qos_ms;

    // The law's 1/ratio^2 spikes carry irreducible noise, so even a
    // good fit keeps a sizable RMSE; beating the mean predictor by 20%
    // demonstrates the inputs were actually used.
    EXPECT_LT(report.val_rmse_ms, 0.8 * mean_rmse_ms)
        << name << " failed to learn the synthetic law";
    EXPECT_GT(report.n_params, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelLearnsTest,
                         ::testing::Values("CNN", "MLP", "LSTM"));

TEST(Trainer, ScaledLossFocusesBelowQos)
{
    // With heavy-tailed targets, the scaled loss should give a lower
    // RMSE *restricted to sub-QoS samples* than it does on the full
    // set including spikes. Smoke-level sanity of Eq. 2's intent.
    const FeatureConfig f = SmallFeatures();
    const Dataset all = SyntheticDataset(f, 400, 17);
    Rng rng(19);
    const auto [train, valid] = all.Split(0.9, rng);
    SinanCnn cnn(f, SinanCnnConfig{}, 23);
    TrainOptions opts;
    opts.epochs = 25;
    TrainLatencyModel(cnn, train, valid, f, opts);

    Dataset below;
    for (const Sample& s : valid.samples) {
        if (s.p99_ms <= f.qos_ms)
            below.samples.push_back(s);
    }
    ASSERT_FALSE(below.samples.empty());
    const double rmse_below = EvalRmseMs(cnn, below, f);
    const double rmse_all = EvalRmseMs(cnn, valid, f);
    EXPECT_LT(rmse_below, rmse_all + 1e-9);
}

TEST(Trainer, PredictP99MsAlignsWithDatasetOrder)
{
    const FeatureConfig f = SmallFeatures();
    const Dataset d = SyntheticDataset(f, 20, 29);
    SinanCnn cnn(f, SinanCnnConfig{}, 31);
    const std::vector<double> preds = PredictP99Ms(cnn, d, f, 7);
    EXPECT_EQ(preds.size(), d.samples.size());
}

TEST(MultiTaskNn, JointForwardAndBackward)
{
    const FeatureConfig f = SmallFeatures();
    MultiTaskNn net(f, 37);
    const Dataset d = SyntheticDataset(f, 6, 37);
    std::vector<int> idx = {0, 1, 2, 3, 4, 5};
    const Batch b = d.MakeBatch(idx, 0, 6);
    Tensor lat, viol;
    net.Forward(b, lat, viol);
    EXPECT_EQ(lat.Shape(), (std::vector<int>{6, f.n_percentiles}));
    EXPECT_EQ(viol.Shape(), (std::vector<int>{6, 1}));
    Tensor dlat(lat.Shape()), dviol(viol.Shape());
    dlat.Fill(0.1f);
    dviol.Fill(0.1f);
    net.Backward(dlat, dviol); // must not throw
    EXPECT_GT(net.Params().size(), 0u);
}

TEST(HybridModel, TrainEvaluateAndReport)
{
    const FeatureConfig f = SmallFeatures();
    const Dataset all = SyntheticDataset(f, 500, 41);
    Rng rng(43);
    const auto [train, valid] = all.Split(0.9, rng);
    HybridConfig cfg;
    cfg.train.epochs = 15;
    cfg.bt.n_trees = 80;
    HybridModel model(f, cfg, 47);
    const HybridReport report = model.Train(train, valid);

    EXPECT_GT(report.cnn.val_rmse_ms, 0.0);
    EXPECT_GT(report.bt_val_accuracy, 0.8);
    EXPECT_GT(report.bt_trees, 0);
    EXPECT_DOUBLE_EQ(model.ValRmseMs(), report.cnn.val_rmse_ms);

    // Evaluate candidate allocations on a fresh window.
    MetricWindow w(f);
    for (int t = 0; t < f.history; ++t)
        w.Push(MakeObs(f, t, 200, 2.0, 0.7, 150));
    const std::vector<std::vector<double>> allocs = {
        std::vector<double>(f.n_tiers, 0.4),
        std::vector<double>(f.n_tiers, 4.0),
    };
    const std::vector<Prediction> preds = model.Evaluate(w, allocs);
    ASSERT_EQ(preds.size(), 2u);
    for (const Prediction& p : preds) {
        EXPECT_EQ(p.latency_ms.size(),
                  static_cast<size_t>(f.n_percentiles));
        EXPECT_GE(p.p_violation, 0.0);
        EXPECT_LE(p.p_violation, 1.0);
    }
    // Starving the app must predict more violation risk than plenty.
    EXPECT_GT(preds[0].p_violation, preds[1].p_violation);
}

TEST(HybridModel, RejectsPercentileWidthOutsideTheRow)
{
    // Predictions are fixed-width PercentileRows (p95..p99), so a
    // latency head with no outputs or more than five fails at
    // construction, not later inside a trace serializer.
    FeatureConfig f = SmallFeatures();
    for (const int m : {0, 6}) {
        f.n_percentiles = m;
        EXPECT_THROW(HybridModel(f, HybridConfig{}, 1),
                     std::invalid_argument)
            << "n_percentiles=" << m;
    }
    for (const int m : {1, 5}) {
        f.n_percentiles = m;
        EXPECT_NO_THROW(HybridModel(f, HybridConfig{}, 1))
            << "n_percentiles=" << m;
    }
}

TEST(HybridModel, SaveLoadRoundTrip)
{
    const FeatureConfig f = SmallFeatures();
    const Dataset all = SyntheticDataset(f, 200, 51);
    Rng rng(53);
    const auto [train, valid] = all.Split(0.9, rng);
    HybridConfig cfg;
    cfg.train.epochs = 4;
    cfg.bt.n_trees = 30;
    HybridModel a(f, cfg, 55);
    a.Train(train, valid);

    std::stringstream ss;
    a.Save(ss);
    HybridModel b(f, cfg, 999);
    b.Load(ss);
    EXPECT_DOUBLE_EQ(a.ValRmseMs(), b.ValRmseMs());

    MetricWindow w(f);
    for (int t = 0; t < f.history; ++t)
        w.Push(MakeObs(f, t, 100, 2.0, 0.5, 100));
    const std::vector<std::vector<double>> allocs = {
        std::vector<double>(f.n_tiers, 1.0)};
    const auto pa = a.Evaluate(w, allocs);
    const auto pb = b.Evaluate(w, allocs);
    EXPECT_DOUBLE_EQ(pa[0].P99(), pb[0].P99());
    EXPECT_DOUBLE_EQ(pa[0].p_violation, pb[0].p_violation);
}

TEST(SinanCnn, ForwardBitIdenticalAcrossThreadCounts)
{
    // The conv/dense kernels run on the shared pool; forward outputs
    // must not depend on the thread count.
    const FeatureConfig f = SmallFeatures();
    SinanCnn cnn(f, SinanCnnConfig{}, 3);
    const Dataset d = SyntheticDataset(f, 16, 3);
    std::vector<int> idx(16);
    std::iota(idx.begin(), idx.end(), 0);
    const Batch b = d.MakeBatch(idx, 0, 16);

    const int saved = NumThreads();
    SetNumThreads(1);
    const Tensor serial = cnn.Forward(b);
    for (int threads : {2, 4, 8}) {
        SetNumThreads(threads);
        const Tensor parallel = cnn.Forward(b);
        ASSERT_EQ(parallel.Size(), serial.Size());
        for (size_t i = 0; i < serial.Size(); ++i)
            ASSERT_EQ(parallel[i], serial[i])
                << "threads=" << threads << " element " << i;
    }
    SetNumThreads(saved);
}

TEST(HybridModel, EvaluateBitIdenticalAcrossThreadCounts)
{
    const FeatureConfig f = SmallFeatures();
    const Dataset all = SyntheticDataset(f, 300, 61);
    Rng rng(63);
    const auto [train, valid] = all.Split(0.9, rng);
    HybridConfig cfg;
    cfg.train.epochs = 4;
    cfg.bt.n_trees = 40;
    HybridModel model(f, cfg, 65);
    model.Train(train, valid);

    MetricWindow w(f);
    for (int t = 0; t < f.history; ++t)
        w.Push(MakeObs(f, t, 150, 2.0, 0.6, 120));
    // Enough candidates to span several ParallelFor blocks.
    std::vector<std::vector<double>> allocs;
    for (int i = 0; i < 40; ++i)
        allocs.push_back(std::vector<double>(
            f.n_tiers, 0.4 + 0.1 * static_cast<double>(i)));

    const int saved = NumThreads();
    SetNumThreads(1);
    const std::vector<Prediction> serial = model.Evaluate(w, allocs);
    for (int threads : {2, 4, 8}) {
        SetNumThreads(threads);
        const std::vector<Prediction> parallel = model.Evaluate(w, allocs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            ASSERT_EQ(parallel[i].latency_ms, serial[i].latency_ms)
                << "threads=" << threads << " candidate " << i;
            ASSERT_EQ(parallel[i].p_violation, serial[i].p_violation)
                << "threads=" << threads << " candidate " << i;
        }
    }
    SetNumThreads(saved);
}

TEST(HybridModel, CloneEvaluatesIdentically)
{
    const FeatureConfig f = SmallFeatures();
    const Dataset all = SyntheticDataset(f, 200, 67);
    Rng rng(69);
    const auto [train, valid] = all.Split(0.9, rng);
    HybridConfig cfg;
    cfg.train.epochs = 3;
    cfg.bt.n_trees = 25;
    HybridModel model(f, cfg, 71);
    model.Train(train, valid);
    const std::unique_ptr<HybridModel> clone = model.Clone();

    MetricWindow w(f);
    for (int t = 0; t < f.history; ++t)
        w.Push(MakeObs(f, t, 100, 2.0, 0.5, 100));
    const std::vector<std::vector<double>> allocs = {
        std::vector<double>(f.n_tiers, 1.0),
        std::vector<double>(f.n_tiers, 3.0),
    };
    const auto pa = model.Evaluate(w, allocs);
    const auto pb = clone->Evaluate(w, allocs);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i].latency_ms, pb[i].latency_ms);
        EXPECT_DOUBLE_EQ(pa[i].p_violation, pb[i].p_violation);
    }
    EXPECT_DOUBLE_EQ(clone->ValRmseMs(), model.ValRmseMs());
}

TEST(HybridModel, EmptyEvaluationReturnsEmpty)
{
    const FeatureConfig f = SmallFeatures();
    HybridConfig cfg;
    HybridModel model(f, cfg, 57);
    MetricWindow w(f);
    for (int t = 0; t < f.history; ++t)
        w.Push(MakeObs(f, t, 100, 2.0, 0.5, 100));
    EXPECT_TRUE(model.Evaluate(w, {}).empty());
}


TEST(BuildInput, ClipsRunawayInputs)
{
    FeatureConfig f = SmallFeatures();
    MetricWindow w(f);
    for (int t = 0; t < f.history; ++t) {
        IntervalObservation obs =
            MakeObs(f, t, 100, 4.0, 0.5, 60.0 * f.qos_ms); // explosion
        obs.tiers[0].rss_mb = 1e9;
        w.Push(obs);
    }
    const Sample s =
        BuildInput(w, std::vector<double>(f.n_tiers, 1e6));
    for (size_t i = 0; i < s.xlh.Size(); ++i)
        EXPECT_LE(s.xlh[i], 4.0f);
    for (size_t i = 0; i < s.xrh.Size(); ++i)
        EXPECT_LE(s.xrh[i], 4.0f);
    for (size_t i = 0; i < s.xrc.Size(); ++i)
        EXPECT_LE(s.xrc[i], 4.0f);
}

TEST(PersistenceResidual, AddsNewestLatencyToOutput)
{
    const FeatureConfig f = SmallFeatures();
    const Dataset d = SyntheticDataset(f, 4, 61);
    std::vector<int> idx = {0, 1, 2, 3};
    const Batch b = d.MakeBatch(idx, 0, 4);
    Tensor zero({4, f.n_percentiles});
    AddPersistenceResidual(b, f, zero);
    const int base = (f.history - 1) * f.n_percentiles;
    for (int i = 0; i < 4; ++i)
        for (int p = 0; p < f.n_percentiles; ++p)
            EXPECT_FLOAT_EQ(zero.At(i, p), b.xlh.At(i, base + p));
}

TEST(PersistenceResidual, UntrainedModelPredictsRoughPersistence)
{
    // With small random weights the residual head dominates: an
    // untrained CNN's prediction is near the newest observed latency.
    const FeatureConfig f = SmallFeatures();
    SinanCnn cnn(f, SinanCnnConfig{}, 71);
    const Dataset d = SyntheticDataset(f, 16, 71);
    std::vector<int> idx(16);
    std::iota(idx.begin(), idx.end(), 0);
    const Batch b = d.MakeBatch(idx, 0, 16);
    const Tensor y = cnn.Forward(b);
    const int base = (f.history - 1) * f.n_percentiles;
    for (int i = 0; i < 16; ++i) {
        const double persist = b.xlh.At(i, base + f.n_percentiles - 1);
        EXPECT_NEAR(y.At(i, f.n_percentiles - 1), persist,
                    std::max(1.0, std::abs(persist)) * 2.0);
    }
}

} // namespace
} // namespace sinan
