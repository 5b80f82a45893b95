/**
 * @file
 * Shared infrastructure for the reproduction benches: canonical
 * pipeline configurations for both applications, a disk cache for
 * trained hybrid models (several benches need the same model; training
 * it once keeps the suite's runtime reasonable), and small printing
 * helpers.
 *
 * Every bench binary regenerates one table or figure of the paper; see
 * DESIGN.md's experiment index for the mapping.
 */
#ifndef SINAN_BENCH_BENCH_UTIL_H
#define SINAN_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <string>
#include <vector>

#include "app/apps.h"
#include "harness/harness.h"

namespace sinan {
namespace bench {

/**
 * Wall-clock stopwatch for bench measurement. Every bench binary times
 * through this type so the actual clock reads stay inside
 * bench/bench_util.cc — the one bench file on the analyzer's timing
 * quarantine (tools/analyze/timing_quarantine.txt). Measured values
 * are reporting-only and must never reach a deterministic
 * serialization.
 */
class Stopwatch {
  public:
    /** Construction starts the watch. */
    Stopwatch();

    /** Restarts the watch (for lap-style segment timing). */
    void Restart();

    /** Seconds elapsed since construction / the last Restart(). */
    double Seconds() const;

    /** Milliseconds elapsed since construction / the last Restart(). */
    double Millis() const;

  private:
    int64_t start_ns_ = 0;
};

/** Canonical collection/training pipeline for the Social Network. */
PipelineConfig SocialPipeline(uint64_t seed = 42);

/** Canonical collection/training pipeline for Hotel Reservation. */
PipelineConfig HotelPipeline(uint64_t seed = 42);

/**
 * Returns a trained Sinan for @p app, loading the hybrid-model weights
 * from `bench_cache/<cache_key>.model` when present. On a cache hit the
 * returned datasets and report are empty — benches that need them
 * collect their own data. Pass an empty key to disable caching.
 */
TrainedSinan GetTrainedSinan(const Application& app,
                             const PipelineConfig& cfg,
                             const std::string& cache_key);

/**
 * Loads the cached base Social Network model and fine-tunes it for the
 * GCE platform (Sec. 5.4's transfer-learning step). Shared by the
 * Figure 14 and Figure 15 benches.
 */
TrainedSinan GceFineTunedSinan(const Application& app, ClusterConfig gce);

/** The paper's Figure 11 load points (emulated users). */
std::vector<double> HotelLoads();
std::vector<double> SocialLoads();

/** Prints a section header for bench output. */
void PrintHeader(const std::string& title, const std::string& paper_ref);

/** One candidate-count point of the inference-speed sweep. */
struct InferenceBenchRow {
    int candidates = 0;
    /** Legacy full-batch Evaluate, per call. */
    double legacy_ms = 0.0;
    /** Cached-trunk fast-path Evaluate, per call. */
    double cached_ms = 0.0;
    /** Fast-path stage breakdown, per call. */
    double feature_ms = 0.0;
    double trunk_ms = 0.0;
    double head_ms = 0.0;
    double bt_ms = 0.0;
    /** Trunk stage re-measured under forced-scalar dispatch (equals
     *  trunk_ms when the active kernel is already scalar). */
    double scalar_trunk_ms = 0.0;
};

/**
 * Writes the machine-readable inference-speed dump (consumed by the
 * CI perf-smoke job and the README perf table). Deterministic
 * formatting; one object with a "sweep" array ordered like @p rows.
 * Schema 2 adds the microkernel id that produced the timings (see
 * common/cpu_features.h) and the per-row forced-scalar trunk time.
 * Schema 3 added an int8 kernel id and per-row "int8" timings; schema
 * 4 drops them again with the int8 inference mode.
 */
void WriteInferenceJson(const std::string& path,
                        const std::string& model_name,
                        const std::string& kernel_id,
                        double interval_budget_ms,
                        const std::vector<InferenceBenchRow>& rows);

/**
 * True when SINAN_BENCH_FAST=1: benches shrink collection time, training
 * epochs, and run durations for quick iteration. The shipped numbers in
 * EXPERIMENTS.md come from full (non-fast) runs.
 */
bool FastMode();

/** Managed-run duration in seconds (shorter in fast mode). */
double RunSeconds(double full = 100.0);

} // namespace bench
} // namespace sinan

#endif // SINAN_BENCH_BENCH_UTIL_H
