/**
 * @file
 * The sinan_sim command-line surface, extracted into a library so the
 * strict flag-validation convention is testable at the argv level:
 * every malformed flag prints the usage text to stderr and exits 2
 * (never a throw, never a silently-misparsed number).
 *
 * Two modes share one option struct:
 *  - single-cluster (the original sinan_sim): one app, one manager,
 *    one load shape;
 *  - fleet (`--fleet N`): N concurrently-stepped clusters under the
 *    centralized FleetManager (src/fleet), with per-shard overrides
 *    (`--fleet-shard K:key=val[,...]`) and fleet trace/report outputs.
 *    Single-run-only flags (--diurnal, --mix, --log, --decision-log,
 *    --metrics, --faults, --model) are rejected in fleet mode; --app,
 *    --manager, --users act as fleet-wide shard defaults instead.
 */
#ifndef SINAN_CLI_SIM_CLI_H
#define SINAN_CLI_SIM_CLI_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "sim/fault_injector.h"

namespace sinan {

/** Parsed sinan_sim options (defaults = the tool's defaults). */
struct SimOptions {
    std::string app = "social";
    bool app_set = false;
    std::string manager = "cons";
    bool manager_set = false;
    double users = 200.0;
    bool users_set = false;
    bool diurnal = false;
    double diurnal_low = 100.0;
    double diurnal_high = 300.0;
    double diurnal_period = 600.0;
    double duration_s = 120.0;
    double warmup_s = 20.0;
    uint64_t seed = 1;
    double collect_s = 800.0;
    int epochs = 8;
    /** A saved model container (--model) the sinan manager loads
     *  instead of training; empty = train with --collect/--epochs. */
    std::string model_path;
    /** Request-mix weights (--mix), empty = the app's default mix. */
    std::vector<double> mix_weights;
    std::string log_path;
    /** Decision-trace / metrics CSV output. */
    std::string decision_log_path;
    std::string metrics_path;
    /** 0 = keep the default (SINAN_THREADS or hardware concurrency);
     *  --threads sets 1..kMaxThreads. */
    int threads = 0;
    /** Fault-injection schedule (see sim/fault_injector.h). */
    FaultSchedule faults;
    bool faults_set = false;
    /** Uncertainty-aware scheduling (--uncertainty on|off; default
     *  off, which reproduces the binary fresh/degraded ladder
     *  byte-for-byte). */
    UncertaintyConfig uncertainty;

    /** Fleet mode: number of clusters (0 = single-cluster mode). */
    int fleet = 0;
    /** Parsed --fleet-shard overrides, in argv order. */
    std::vector<ShardOverride> fleet_shards;
    /** Deterministic per-interval fleet trace CSV (--fleet-log). */
    std::string fleet_log_path;
    /** JSON fleet report (--fleet-report). */
    std::string fleet_report_path;
};

/**
 * Prints the usage text (prefixed with "error: <msg>" when @p msg is
 * non-null) to stderr and exits 2 — the strict flag-validation
 * convention every sinan_sim flag follows.
 */
[[noreturn]] void SimUsage(const char* msg);

/**
 * Formats the chaos scenario catalog exactly as `--faults list` prints
 * it (one header line plus one aligned row per scenario) — extracted so
 * tests can golden-pin the listing without spawning the binary.
 */
std::string FormatChaosCatalog();

/**
 * Parses and cross-validates argv. On any malformed or inconsistent
 * flag this calls SimUsage (exit 2). `--faults list` prints the chaos
 * scenario catalog and exits 0. Fleet-mode shard overrides are fully
 * resolved here (index range, duplicates, fault specs), so a bad
 * --fleet-shard also exits 2 before any simulation starts.
 */
SimOptions ParseSimArgs(int argc, const char* const* argv);

/** Trains Sinan for one app kind with the CLI's recipe (--collect,
 *  --epochs, --seed; the app's collection load range), printing
 *  progress; shared by single-run and fleet mode. */
std::unique_ptr<TrainedSinan> TrainForCli(const Application& app,
                                          bool hotel,
                                          const SimOptions& opt);

/** Loads the --model container for @p app through LoadSinanModel,
 *  printing what it loaded; an unreadable or mismatched file exits 2
 *  like a bad flag. */
std::unique_ptr<HybridModel> LoadModelForCli(const Application& app,
                                             const std::string& path);

/** Maps the parsed options onto a fleet configuration (fleet mode). */
FleetConfig BuildFleetConfig(const SimOptions& opt);

/**
 * Executes fleet mode end-to-end: opens the --fleet-log /
 * --fleet-report files, trains one Sinan model per app kind that has
 * sinan-managed shards (skipped when none do), runs the fleet, prints
 * the per-cluster and fleet-wide summary, and writes the two outputs.
 * Returns the process exit code: 0, or 1 (one line on stderr) when an
 * output file cannot be opened or written.
 */
int RunFleetMode(const SimOptions& opt);

/**
 * Executes single-cluster mode end-to-end: opens the --log,
 * --decision-log and --metrics files, builds the manager (training or
 * loading --model for sinan), steps one ManagedRun, and prints the run
 * summary. The decision log is streamed: each interval's
 * LastDecisions() is appended as it is decided, so the bytes equal
 * DecisionTraceToCsv(RunManaged(...).decision_trace) while the trace
 * is never held. Returns the process exit code: 0, or 1 (one line on
 * stderr) when an output file cannot be opened — checked before the
 * run starts — or written.
 */
int RunSingleMode(const SimOptions& opt);

} // namespace sinan

#endif // SINAN_CLI_SIM_CLI_H
