#include "bench_util.h"

#include "collect/bandit.h"
#include "collect/collector.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace sinan {
namespace bench {

namespace {

/** The single wall-clock read of the bench suite (see Stopwatch's
 *  header comment and tools/analyze/timing_quarantine.txt). */
int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Stopwatch::Stopwatch() : start_ns_(NowNs()) {}

void
Stopwatch::Restart()
{
    start_ns_ = NowNs();
}

double
Stopwatch::Seconds() const
{
    return static_cast<double>(NowNs() - start_ns_) * 1e-9;
}

double
Stopwatch::Millis() const
{
    return static_cast<double>(NowNs() - start_ns_) * 1e-6;
}

bool
FastMode()
{
    const char* v = std::getenv("SINAN_BENCH_FAST");
    return v != nullptr && v[0] == '1';
}

double
RunSeconds(double full)
{
    return FastMode() ? std::max(30.0, full * 0.4) : full;
}

namespace {

void
ApplyFastMode(PipelineConfig& cfg)
{
    if (FastMode()) {
        cfg.collect_s = 600.0;
        cfg.hybrid.train.epochs = 6;
    }
}

} // namespace

PipelineConfig
SocialPipeline(uint64_t seed)
{
    PipelineConfig cfg;
    cfg.collect_s = 2200.0;
    cfg.users_min = 50.0;
    cfg.users_max = 450.0;
    cfg.hybrid = DefaultHybridConfig();
    cfg.seed = seed;
    ApplyFastMode(cfg);
    return cfg;
}

PipelineConfig
HotelPipeline(uint64_t seed)
{
    PipelineConfig cfg;
    cfg.collect_s = 2200.0;
    cfg.users_min = 500.0;
    cfg.users_max = 3700.0;
    cfg.hybrid = DefaultHybridConfig();
    cfg.seed = seed;
    ApplyFastMode(cfg);
    return cfg;
}

TrainedSinan
GetTrainedSinan(const Application& app, const PipelineConfig& cfg,
                const std::string& cache_key)
{
    const std::string path = "bench_cache/" + cache_key + ".model";
    if (!cache_key.empty() && std::filesystem::exists(path)) {
        // Re-collect the dataset (fast) and load the trained weights.
        TrainedSinan out;
        out.features = AppFeatures(app, cfg);
        out.model = std::make_unique<HybridModel>(out.features,
                                                  cfg.hybrid,
                                                  cfg.seed ^ 0xcafe);
        std::ifstream in(path, std::ios::binary);
        try {
            out.model->Load(in);
            if (out.model->Int8Calibrated()) {
                std::printf("[cache] loaded %s\n", path.c_str());
                return out;
            }
            // A container saved without the calibration section:
            // retrain so the cache picks up the record bench_e2e
            // requires of the bundled models.
            std::printf("[cache] %s lacks calibration; retraining\n",
                        path.c_str());
        } catch (const std::exception&) {
            std::printf("[cache] %s corrupt; retraining\n", path.c_str());
        }
    }
    TrainedSinan out = TrainSinanForApp(app, cfg);
    if (!cache_key.empty()) {
        std::filesystem::create_directories("bench_cache");
        std::ofstream outf(path, std::ios::binary);
        out.model->Save(outf);
    }
    return out;
}

TrainedSinan
GceFineTunedSinan(const Application& app, ClusterConfig gce)
{
    const PipelineConfig pcfg = SocialPipeline();
    TrainedSinan base = GetTrainedSinan(app, pcfg, "social");

    FeatureConfig f = base.features;
    CollectionConfig col;
    col.duration_s = FastMode() ? 300.0 : 800.0;
    col.users_min = 50;
    col.users_max = 450;
    col.features = f;
    col.cluster = gce;
    col.seed = 333;
    BanditConfig bcfg;
    bcfg.qos_ms = f.qos_ms;
    bcfg.seed = 334;
    BanditExplorer bandit(bcfg);
    std::printf("collecting GCE fine-tuning data...\n");
    const Dataset fresh = Collect(app, bandit, col);
    Rng rng(335);
    const auto [train, valid] = fresh.Split(0.9, rng);

    TrainOptions ft = pcfg.hybrid.train;
    ft.lr = pcfg.hybrid.train.lr / 100.0;
    const HybridReport rep = base.model->FineTune(train, valid, ft);
    std::printf("fine-tuned: CNN val RMSE %.1f ms, BT val acc %.1f%%\n",
                rep.cnn.val_rmse_ms, 100.0 * rep.bt_val_accuracy);
    return base;
}

std::vector<double>
HotelLoads()
{
    return {1000, 1300, 1600, 1900, 2200, 2500, 2800, 3100, 3400, 3700};
}

std::vector<double>
SocialLoads()
{
    return {50, 100, 150, 200, 250, 300, 350, 400, 450};
}

void
WriteInferenceJson(const std::string& path, const std::string& model_name,
                   const std::string& kernel_id, double interval_budget_ms,
                   const std::vector<InferenceBenchRow>& rows)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("WriteInferenceJson: cannot open " + path);

    char buf[512];
    out << "{\n";
    out << "  \"schema\": 4,\n";
    out << "  \"model\": \"" << model_name << "\",\n";
    out << "  \"kernel_id\": \"" << kernel_id << "\",\n";
    std::snprintf(buf, sizeof(buf), "  \"interval_budget_ms\": %.3f,\n",
                  interval_budget_ms);
    out << buf;
    out << "  \"sweep\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const InferenceBenchRow& r = rows[i];
        const double speedup =
            r.cached_ms > 0.0 ? r.legacy_ms / r.cached_ms : 0.0;
        std::snprintf(
            buf, sizeof(buf),
            "    {\"candidates\": %d, \"legacy_ms\": %.6f, "
            "\"cached_ms\": %.6f, \"speedup\": %.3f, \"stages_ms\": "
            "{\"feature_build\": %.6f, \"trunk\": %.6f, \"head\": %.6f, "
            "\"bt\": %.6f}, \"scalar_trunk_ms\": %.6f}%s\n",
            r.candidates, r.legacy_ms, r.cached_ms, speedup, r.feature_ms,
            r.trunk_ms, r.head_ms, r.bt_ms, r.scalar_trunk_ms,
            i + 1 < rows.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n";
    out << "}\n";
}

void
PrintHeader(const std::string& title, const std::string& paper_ref)
{
    std::printf("\n==========================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("==========================================================\n\n");
}

} // namespace bench
} // namespace sinan
