/**
 * @file
 * Ablations of the design choices DESIGN.md calls out:
 *
 *  A. Scaled loss (Eq. 2) vs plain MSE — accuracy in the sub-QoS
 *     operating region (the paper's rationale for phi).
 *  B. Boosted Trees on the CNN latent vs on raw flattened inputs —
 *     accuracy and training cost (Sec. 3.2's rationale for L_f).
 *  C. Bandit exploration coefficients — dataset balance when the
 *     boundary-seeking bias is removed.
 *  D. Simulator tick size — latency quantile stability (fluid-model
 *     fidelity knob).
 *  E. CNN capacity sweep — channels vs accuracy (the paper sizes nets
 *     "until accuracy levels off").
 */
#include <cstdio>
#include <numeric>

#include "bench_util.h"
#include "collect/bandit.h"
#include "collect/collector.h"
#include "common/table.h"
#include "models/hybrid.h"
#include "models/trainer.h"
#include "workload/workload.h"

namespace sinan {
namespace {

Dataset
CollectSocial(const PipelineConfig& pcfg, const FeatureConfig& f,
              double duration)
{
    const Application app = BuildSocialNetwork();
    CollectionConfig col;
    col.duration_s = duration;
    col.users_min = pcfg.users_min;
    col.users_max = pcfg.users_max;
    col.features = f;
    col.seed = pcfg.seed;
    BanditConfig bcfg;
    bcfg.qos_ms = f.qos_ms;
    BanditExplorer bandit(bcfg);
    return Collect(app, bandit, col);
}

void
AblationScaledLoss(const Dataset& train, const Dataset& valid,
                   const FeatureConfig& f, const PipelineConfig& pcfg)
{
    std::printf("\n--- A. scaled loss (Eq. 2) vs plain MSE ---\n");
    TextTable t({"loss", "val RMSE all (ms)", "val RMSE sub-QoS (ms)"});
    for (bool scaled : {true, false}) {
        SinanCnn cnn(f, SinanCnnConfig{}, 5);
        TrainOptions opts = pcfg.hybrid.train;
        opts.scaled_loss = scaled;
        const TrainReport rep =
            TrainLatencyModel(cnn, train, valid, f, opts);
        t.Row()
            .Add(scaled ? "scaled (Eq. 2)" : "plain MSE")
            .Add(rep.val_rmse_ms, 1)
            .Add(rep.val_rmse_subqos_ms, 1);
    }
    std::printf("%s", t.Render().c_str());
    std::printf("expected: the scaled loss trades spike accuracy for "
                "the sub-QoS region the scheduler operates in.\n");
}

void
AblationBtInput(const Dataset& train, const Dataset& valid,
                const FeatureConfig& f, const PipelineConfig& pcfg)
{
    std::printf("\n--- B. BT on CNN latent vs raw inputs ---\n");

    // Latent-input BT: the standard hybrid.
    HybridModel hybrid(f, pcfg.hybrid, 7);
    const HybridReport rep = hybrid.Train(train, valid);

    // Raw-input BT: flattened (X_RH, X_LH, X_RC) per sample.
    auto raw_row = [&](const Sample& s) {
        std::vector<float> row;
        row.reserve(s.xrh.Size() + s.xlh.Size() + s.xrc.Size());
        for (size_t i = 0; i < s.xrh.Size(); ++i)
            row.push_back(s.xrh[i]);
        for (size_t i = 0; i < s.xlh.Size(); ++i)
            row.push_back(s.xlh[i]);
        for (size_t i = 0; i < s.xrc.Size(); ++i)
            row.push_back(s.xrc[i]);
        return row;
    };
    GbtDataset raw_train, raw_valid;
    for (const Sample& s : train.samples)
        raw_train.AddRow(raw_row(s), s.violation);
    for (const Sample& s : valid.samples)
        raw_valid.AddRow(raw_row(s), s.violation);
    BoostedTrees raw_bt(pcfg.hybrid.bt);
    bench::Stopwatch watch;
    raw_bt.Train(raw_train, &raw_valid);
    const double raw_time = watch.Seconds();
    int correct = 0;
    for (int i = 0; i < raw_valid.n_rows; ++i) {
        const double p = raw_bt.Predict(
            &raw_valid.x[static_cast<size_t>(i) * raw_valid.n_features]);
        correct += (p >= 0.5) == (raw_valid.y[i] >= 0.5f);
    }
    const double raw_acc =
        static_cast<double>(correct) / raw_valid.n_rows;

    TextTable t({"BT input", "features", "val acc(%)", "train time(s)"});
    t.Row()
        .Add("CNN latent + aggregates")
        .Add(static_cast<long long>(32 + f.n_tiers + 4))
        .Add(100.0 * rep.bt_val_accuracy, 1)
        .Add(rep.bt_train_time_s, 2);
    t.Row()
        .Add("raw flattened inputs")
        .Add(static_cast<long long>(raw_train.n_features))
        .Add(100.0 * raw_acc, 1)
        .Add(raw_time, 2);
    std::printf("%s", t.Render().c_str());
}

void
AblationBanditCoefficients(const PipelineConfig& pcfg,
                           const FeatureConfig& f)
{
    std::printf("\n--- C. bandit C_op coefficients ---\n");
    const Application app = BuildSocialNetwork();
    const double duration = bench::FastMode() ? 400.0 : 1000.0;
    TextTable t({"explorer", "samples", "violation-label rate",
                 "frac p99>QoS", "mean total alloc (cores)"});
    auto run = [&](const char* name, ResourceManager& policy) {
        CollectionConfig col;
        col.duration_s = duration;
        col.users_min = pcfg.users_min;
        col.users_max = pcfg.users_max;
        col.features = f;
        col.seed = 77;
        const Dataset d = Collect(app, policy, col);
        size_t viol = 0;
        double alloc = 0.0;
        for (const Sample& s : d.samples) {
            viol += s.p99_ms > f.qos_ms;
            double total = 0.0;
            for (int i = 0; i < f.n_tiers; ++i)
                total += static_cast<double>(s.xrc[i]) *
                         FeatureConfig::kCpuScale;
            alloc += total;
        }
        t.Row()
            .Add(name)
            .Add(static_cast<long long>(d.samples.size()))
            .Add(d.ViolationRate(), 2)
            .Add(static_cast<double>(viol) /
                     static_cast<double>(d.samples.size()),
                 3)
            .Add(alloc / static_cast<double>(d.samples.size()), 1);
    };
    {
        BanditConfig cfg;
        cfg.qos_ms = f.qos_ms;
        BanditExplorer bandit(cfg);
        run("boundary-seeking (default)", bandit);
    }
    {
        // Neutral coefficients: no preference for reclaiming.
        BanditConfig cfg;
        cfg.qos_ms = f.qos_ms;
        cfg.down_eligibility = 0.15;
        cfg.idle_down_eligibility = 0.15;
        BanditExplorer bandit(cfg);
        run("reclaim-averse C_op", bandit);
    }
    std::printf("%s", t.Render().c_str());
    std::printf("expected: the reclaim-averse explorer drifts to high "
                "allocations and sees few boundary samples.\n");
}

void
AblationTickSize()
{
    std::printf("\n--- D. simulator tick-size sweep ---\n");
    const Application app = BuildSocialNetwork();
    TextTable t({"tick(ms)", "p50(ms)", "p99(ms)", "sim cost(rel)"});
    for (double tick_ms : {5.0, 10.0, 20.0}) {
        Cluster cluster(app, ClusterConfig{}, 3);
        ConstantLoad load(250.0);
        WorkloadGenerator gen(cluster, load, 5);
        PercentileDigest all;
        const double dt = tick_ms / 1000.0;
        const int ticks = static_cast<int>(40.0 / dt);
        for (int i = 0; i < ticks; ++i) {
            gen.Tick(i * dt, dt);
            cluster.Tick(i * dt, dt);
            if ((i + 1) % (ticks / 40) == 0) {
                const IntervalObservation obs =
                    cluster.Harvest((i + 1) * dt, 1.0);
                if ((i + 1) * dt > 10.0 && !obs.latency_ms.empty()) {
                    all.Add(obs.latency_ms[0]);
                    all.Add(obs.P99());
                }
            }
        }
        all.Seal();
        t.Row()
            .Add(tick_ms, 0)
            .Add(all.Quantile(0.25), 1)
            .Add(all.Quantile(0.95), 1)
            .Add(10.0 / tick_ms, 2);
        (void)all;
    }
    std::printf("%s", t.Render().c_str());
    std::printf("expected: quantiles shift by at most the tick size; "
                "cost scales inversely with it.\n");
}

void
AblationCnnCapacity(const Dataset& train, const Dataset& valid,
                    const FeatureConfig& f, const PipelineConfig& pcfg)
{
    std::printf("\n--- E. CNN capacity sweep ---\n");
    TextTable t({"conv channels", "params", "val RMSE(ms)"});
    for (int ch : {4, 8, 16}) {
        SinanCnnConfig cfg;
        cfg.conv_channels1 = ch;
        cfg.conv_channels2 = ch;
        SinanCnn cnn(f, cfg, 9);
        const TrainReport rep = TrainLatencyModel(
            cnn, train, valid, f, pcfg.hybrid.train);
        t.Row()
            .Add(static_cast<long long>(ch))
            .Add(static_cast<long long>(rep.n_params))
            .Add(rep.val_rmse_ms, 1);
    }
    std::printf("%s", t.Render().c_str());
}

} // namespace
} // namespace sinan

int
main()
{
    using namespace sinan;
    bench::PrintHeader("Ablations", "design choices called out in "
                                    "DESIGN.md (not a paper exhibit)");

    const PipelineConfig pcfg = bench::SocialPipeline();
    FeatureConfig f;
    f.n_tiers = 28;
    f.history = pcfg.history;
    f.violation_lookahead = pcfg.violation_lookahead;
    f.qos_ms = 500.0;

    std::printf("collecting the shared dataset...\n");
    const Dataset all = CollectSocial(pcfg, f, pcfg.collect_s);
    Rng rng(3);
    const auto [train, valid] = all.Split(0.9, rng);

    AblationScaledLoss(train, valid, f, pcfg);
    AblationBtInput(train, valid, f, pcfg);
    AblationBanditCoefficients(pcfg, f);
    AblationTickSize();
    AblationCnnCapacity(train, valid, f, pcfg);
    return 0;
}
