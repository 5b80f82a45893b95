#include "cli/sim_cli.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "app/apps.h"
#include "common/parse.h"
#include "common/text_appender.h"
#include "common/thread_pool.h"
#include "core/scheduler.h"
#include "fleet/fleet_log.h"
#include "harness/harness.h"
#include "harness/runlog.h"
#include "harness/telemetry_log.h"

namespace sinan {

namespace {

/** Exits 2: "<flag> expects <what>, got '<v>'". */
[[noreturn]] void
BadValue(const std::string& flag, const std::string& what,
         const std::string& v)
{
    SimUsage((flag + " expects " + what + ", got '" + v + "'").c_str());
}

/** One numeric flag value through the strict parser
 *  (common/parse.h); anything it rejects exits 2 naming the flag. */
template <typename T>
T
ParseArg(const char* flag, const std::string& v)
{
    T out{};
    if (ParseNumber(v, &out) != ParseStatus::kOk)
        BadValue(flag,
                 std::is_floating_point_v<T> ? "a number"
                 : std::is_unsigned_v<T>     ? "an unsigned integer"
                                             : "an integer",
                 v);
    return out;
}

[[noreturn]] void
ListChaosScenarios()
{
    std::fputs(FormatChaosCatalog().c_str(), stdout);
    std::exit(0);
}

/** The file behind an output flag, opened (and truncated) before the
 *  run so a bad path fails in seconds, not after it; null when the
 *  flag is unset. Throws what TextFile throws. */
std::unique_ptr<TextFile>
OpenOutput(const std::string& path)
{
    return path.empty() ? nullptr : std::make_unique<TextFile>(path);
}

/** Reports a failed open or write of an output file on one line and
 *  returns the exit code for it, 1. */
int
OutputFailed(const std::runtime_error& e)
{
    std::fprintf(stderr, "sinan_sim: %s\n", e.what());
    return 1;
}

} // namespace

std::unique_ptr<TrainedSinan>
TrainForCli(const Application& app, bool hotel, const SimOptions& opt)
{
    std::printf("training Sinan for %s (%.0f s collection, %d "
                "epochs)...\n",
                app.name.c_str(), opt.collect_s, opt.epochs);
    PipelineConfig pcfg;
    pcfg.collect_s = opt.collect_s;
    pcfg.users_min = hotel ? 500.0 : 50.0;
    pcfg.users_max = hotel ? 3700.0 : 450.0;
    pcfg.hybrid = DefaultHybridConfig();
    pcfg.hybrid.train.epochs = opt.epochs;
    pcfg.seed = opt.seed;
    auto trained =
        std::make_unique<TrainedSinan>(TrainSinanForApp(app, pcfg));
    std::printf("CNN val RMSE %.1f ms, BT val acc %.1f%%\n",
                trained->report.cnn.val_rmse_ms,
                100.0 * trained->report.bt_val_accuracy);
    return trained;
}

std::unique_ptr<HybridModel>
LoadModelForCli(const Application& app, const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        SimUsage(("--model: cannot open '" + path + "'").c_str());
    std::unique_ptr<HybridModel> model;
    try {
        model = LoadSinanModel(app, in);
    } catch (const std::exception& e) {
        SimUsage(("--model: '" + path + "' does not load for " +
                  app.name + ": " + e.what())
                     .c_str());
    }
    std::printf("loaded Sinan model %s (CNN val RMSE %.1f ms)\n",
                path.c_str(), model->ValRmseMs());
    return model;
}

std::string
FormatChaosCatalog()
{
    std::string out = "named chaos scenarios (--faults chaos:NAME):\n";
    for (const ChaosScenario& s : ChaosScenarios()) {
        char line[512];
        std::snprintf(line, sizeof line, "  %-18s %-40s %s\n",
                      s.name.c_str(), s.spec.c_str(),
                      s.description.c_str());
        out += line;
    }
    return out;
}

[[noreturn]] void
SimUsage(const char* msg)
{
    if (msg)
        std::fprintf(stderr, "error: %s\n", msg);
    std::fprintf(
        stderr,
        "usage: sinan_sim [--app hotel|social]\n"
        "                 [--manager sinan|opt|cons|powerchief|hold]\n"
        "                 [--users N | --diurnal LO:HI:PERIOD]\n"
        "                 [--duration S] [--warmup S] [--seed N]\n"
        "                 [--collect S] [--epochs N] [--model FILE]\n"
        "                 [--mix W,W,...]\n"
        "                 [--log FILE] [--threads N]\n"
        "                 [--decision-log FILE] [--metrics FILE]\n"
        "                 [--faults SPEC]\n"
        "                 [--uncertainty on|off]\n"
        "                 [--fleet N] [--fleet-shard K:key=val[,...]]\n"
        "                 [--fleet-log FILE] [--fleet-report FILE]\n"
        "\n"
        "  --faults accepts 'kind@start[+dur][:tier=N,mag=X]' events\n"
        "  joined with ';' (kinds: stall caploss spike steal drop delay\n"
        "  nan flash; correlated groups via tiers=A-B,jitter=N), a named\n"
        "  scenario 'chaos:NAME', or 'list' to print the scenario\n"
        "  catalog and exit.\n"
        "\n"
        "  --model loads a saved model container for the sinan manager\n"
        "  instead of training one (so it excludes --collect/--epochs),\n"
        "  e.g. bench_cache/social.model.\n"
        "\n"
        "  --uncertainty on grades telemetry confidence per tier and\n"
        "  scales the sinan scheduler's caution with it; off (default)\n"
        "  keeps the binary fresh/degraded ladder. Applies to the sinan\n"
        "  manager in single-run and fleet mode alike.\n"
        "\n"
        "  Numbers take no '+' sign, no blanks and no nan or inf.\n"
        "  --warmup must be shorter than --duration; --threads takes\n"
        "  1 to 256 (so does the SINAN_THREADS variable).\n"
        "\n"
        "  --fleet N steps N clusters concurrently under one fleet\n"
        "  manager; --app/--manager/--users become fleet-wide shard\n"
        "  defaults. --fleet-shard overrides one shard with keys app,\n"
        "  manager, users, seed, faults (faults last: its value runs to\n"
        "  the end of the override). Single-run flags (--diurnal, --mix,\n"
        "  --log, --decision-log, --metrics, --faults, --model) are\n"
        "  rejected in fleet mode; use --fleet-log (per-interval trace\n"
        "  CSV) and --fleet-report (JSON summary) instead.\n");
    std::exit(2);
}

SimOptions
ParseSimArgs(int argc, const char* const* argv)
{
    SimOptions opt;
    // Accept both `--flag value` and `--flag=value`.
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const size_t eq = a.find('=');
        if (a.rfind("--", 0) == 0 && eq != std::string::npos) {
            args.push_back(a.substr(0, eq));
            args.push_back(a.substr(eq + 1));
        } else {
            args.push_back(a);
        }
    }

    const size_t n = args.size();
    bool training_set = false; // --collect or --epochs given
    auto need = [&](size_t i) -> const std::string& {
        if (i + 1 >= n)
            SimUsage(("missing value for " + args[i]).c_str());
        return args[i + 1];
    };
    for (size_t i = 0; i < n; ++i) {
        const std::string& a = args[i];
        if (a == "--app") {
            opt.app = need(i++);
            opt.app_set = true;
        } else if (a == "--manager") {
            opt.manager = need(i++);
            opt.manager_set = true;
        } else if (a == "--users") {
            opt.users = ParseArg<double>("--users", need(i++));
            opt.users_set = true;
        } else if (a == "--diurnal") {
            opt.diurnal = true;
            const std::vector<std::string> f =
                SplitFields(need(i++), ':');
            if (f.size() != 3)
                SimUsage("--diurnal expects LO:HI:PERIOD");
            opt.diurnal_low = ParseArg<double>("--diurnal LO", f[0]);
            opt.diurnal_high = ParseArg<double>("--diurnal HI", f[1]);
            opt.diurnal_period =
                ParseArg<double>("--diurnal PERIOD", f[2]);
        } else if (a == "--duration") {
            opt.duration_s = ParseArg<double>("--duration", need(i++));
        } else if (a == "--warmup") {
            opt.warmup_s = ParseArg<double>("--warmup", need(i++));
        } else if (a == "--seed") {
            opt.seed = ParseArg<uint64_t>("--seed", need(i++));
        } else if (a == "--collect") {
            opt.collect_s = ParseArg<double>("--collect", need(i++));
            training_set = true;
        } else if (a == "--epochs") {
            opt.epochs = ParseArg<int>("--epochs", need(i++));
            training_set = true;
        } else if (a == "--model") {
            opt.model_path = need(i++);
            if (opt.model_path.empty())
                BadValue(a, "a file", opt.model_path);
        } else if (a == "--mix") {
            for (const std::string& w : SplitFields(need(i++), ','))
                opt.mix_weights.push_back(ParseArg<double>("--mix", w));
        } else if (a == "--log") {
            opt.log_path = need(i++);
        } else if (a == "--decision-log") {
            opt.decision_log_path = need(i++);
        } else if (a == "--metrics") {
            opt.metrics_path = need(i++);
        } else if (a == "--threads") {
            const std::string v = need(i++);
            if (!ParseThreadCount(v, &opt.threads))
                BadValue(a,
                         "an integer in [1, " +
                             std::to_string(kMaxThreads) + "]",
                         v);
        } else if (a == "--faults") {
            const std::string spec = need(i++);
            if (spec == "list")
                ListChaosScenarios();
            try {
                opt.faults = ParseFaultSpec(spec);
                opt.faults_set = true;
            } catch (const std::exception& e) {
                SimUsage(e.what());
            }
        } else if (a == "--uncertainty") {
            const std::string v = need(i++);
            if (v != "on" && v != "off")
                BadValue(a, "on or off", v);
            opt.uncertainty.enabled = v == "on";
        } else if (a == "--fleet") {
            opt.fleet = ParseArg<int>("--fleet", need(i++));
            if (opt.fleet < 1)
                SimUsage("--fleet must be >= 1");
        } else if (a == "--fleet-shard") {
            try {
                opt.fleet_shards.push_back(
                    ParseShardOverride(need(i++)));
            } catch (const std::exception& e) {
                SimUsage(e.what());
            }
        } else if (a == "--fleet-log") {
            opt.fleet_log_path = need(i++);
        } else if (a == "--fleet-report") {
            opt.fleet_report_path = need(i++);
        } else if (a == "--help" || a == "-h") {
            SimUsage(nullptr);
        } else {
            SimUsage(("unknown flag " + a).c_str());
        }
    }
    if (opt.app != "hotel" && opt.app != "social")
        SimUsage("--app must be hotel or social");
    if (!KnownManager(opt.manager))
        SimUsage(("unknown --manager " + opt.manager).c_str());
    if (opt.users_set && opt.diurnal)
        SimUsage("--users and --diurnal are mutually exclusive");
    if (opt.duration_s <= 0 || opt.users <= 0)
        SimUsage("durations and users must be positive");
    if (opt.diurnal &&
        (opt.diurnal_low <= 0 || opt.diurnal_high < opt.diurnal_low ||
         opt.diurnal_period <= 0))
        SimUsage("--diurnal expects 0 < LO <= HI and PERIOD > 0");
    if (opt.warmup_s < 0)
        SimUsage("--warmup must be >= 0");
    if (opt.warmup_s >= opt.duration_s)
        SimUsage("--warmup must be shorter than --duration");
    if (opt.epochs <= 0)
        SimUsage("--epochs must be > 0");
    if (opt.collect_s <= 0)
        SimUsage("--collect must be > 0");
    if (!opt.model_path.empty()) {
        if (training_set)
            SimUsage("--model loads a trained model; it excludes "
                     "--collect and --epochs");
        if (opt.manager != "sinan")
            SimUsage("--model requires --manager sinan");
    }

    if (opt.fleet == 0) {
        if (!opt.fleet_shards.empty())
            SimUsage("--fleet-shard requires --fleet");
        if (!opt.fleet_log_path.empty() ||
            !opt.fleet_report_path.empty())
            SimUsage("--fleet-log and --fleet-report require --fleet");
        if (opt.faults_set) {
            // Validate tier targets against the selected app now so a
            // bad spec exits 2 instead of throwing mid-run.
            const Application app = opt.app == "hotel"
                                        ? BuildHotelReservation()
                                        : BuildSocialNetwork();
            try {
                ValidateFaultSchedule(
                    opt.faults, static_cast<int>(app.tiers.size()));
            } catch (const std::exception& e) {
                SimUsage(e.what());
            }
        }
    } else {
        if (opt.diurnal)
            SimUsage("--diurnal is a single-run flag; fleet shards use "
                     "constant per-shard loads (--fleet-shard "
                     "K:users=N)");
        if (!opt.mix_weights.empty())
            SimUsage("--mix is a single-run flag and has no fleet "
                     "equivalent yet");
        if (!opt.log_path.empty() || !opt.decision_log_path.empty() ||
            !opt.metrics_path.empty())
            SimUsage("--log/--decision-log/--metrics are single-run "
                     "flags; use --fleet-log / --fleet-report");
        if (opt.faults_set)
            SimUsage("--faults is a single-run flag; use --fleet-shard "
                     "K:faults=SPEC for per-shard faults");
        if (!opt.model_path.empty())
            SimUsage("--model is a single-run flag; fleet mode trains "
                     "one model per app");
        // Resolve now so a bad shard override (index out of range,
        // duplicate index, malformed fault spec) exits 2 here rather
        // than throwing mid-run.
        try {
            const Application hotel = BuildHotelReservation();
            const Application social = BuildSocialNetwork();
            ResolveFleetShards(BuildFleetConfig(opt),
                               FleetApps{&hotel, &social});
        } catch (const std::exception& e) {
            SimUsage(e.what());
        }
    }
    return opt;
}

FleetConfig
BuildFleetConfig(const SimOptions& opt)
{
    FleetConfig cfg;
    cfg.n_clusters = opt.fleet;
    cfg.default_app = opt.app_set ? opt.app : "";
    cfg.default_manager = opt.manager_set ? opt.manager : "sinan";
    cfg.default_users = opt.users_set ? opt.users : 0.0;
    cfg.overrides = opt.fleet_shards;
    cfg.duration_s = opt.duration_s;
    cfg.warmup_s = opt.warmup_s;
    cfg.seed = opt.seed;
    cfg.scheduler.uncertainty = opt.uncertainty;
    return cfg;
}

int
RunFleetMode(const SimOptions& opt)
{
    const FleetConfig cfg = BuildFleetConfig(opt);
    std::unique_ptr<TextFile> fleet_log, fleet_report;
    try {
        fleet_log = OpenOutput(opt.fleet_log_path);
        fleet_report = OpenOutput(opt.fleet_report_path);
    } catch (const std::runtime_error& e) {
        return OutputFailed(e);
    }
    const Application hotel_app = BuildHotelReservation();
    const Application social_app = BuildSocialNetwork();
    const FleetApps apps{&hotel_app, &social_app};
    const std::vector<ShardSpec> specs = ResolveFleetShards(cfg, apps);

    bool sinan_hotel = false, sinan_social = false;
    for (const ShardSpec& spec : specs) {
        if (spec.manager != "sinan")
            continue;
        (spec.app == "hotel" ? sinan_hotel : sinan_social) = true;
    }

    std::unique_ptr<TrainedSinan> hotel_trained, social_trained;
    FleetModels models;
    if (sinan_hotel) {
        hotel_trained = TrainForCli(hotel_app, true, opt);
        models.hotel = hotel_trained->model.get();
    }
    if (sinan_social) {
        social_trained = TrainForCli(social_app, false, opt);
        models.social = social_trained->model.get();
    }

    FleetManager fleet(cfg, models, apps);
    const FleetResult r = fleet.Run();

    std::printf("\nfleet of %d clusters for %.0f s (%d threads):\n",
                cfg.n_clusters, cfg.duration_s, r.threads);
    for (const FleetClusterResult& c : r.clusters) {
        std::printf("  [%3d] %-6s %-10s users %6.0f  P(QoS) %.3f  "
                    "cpu %6.1f/%6.1f  p99 %7.1f ms",
                    c.spec.index, c.spec.app.c_str(),
                    c.spec.manager.c_str(), c.spec.users,
                    c.result.qos_meet_prob, c.result.mean_cpu,
                    c.result.max_cpu, c.result.mean_p99_ms);
        if (!c.spec.faults.empty()) {
            if (c.recovery_intervals < 0)
                std::printf("  faults: unrecovered");
            else
                std::printf("  faults: recovered +%d",
                            c.recovery_intervals);
        }
        std::printf("\n");
    }
    std::printf("  fleet P(meet QoS) : %.3f (%llu violations / %llu "
                "cluster-intervals)\n",
                r.qos_meet_prob,
                static_cast<unsigned long long>(
                    r.violation_cluster_intervals),
                static_cast<unsigned long long>(
                    r.measured_cluster_intervals));
    std::printf("  fleet CPU         : %.1f mean / %.1f max cores\n",
                r.mean_total_cpu, r.max_total_cpu);
    std::printf("  decide latency    : %.2f ms mean, %.2f p50, "
                "%.2f p95, %.2f p99, %.2f max\n",
                r.decide.mean_ms, r.decide.p50_ms, r.decide.p95_ms,
                r.decide.p99_ms, r.decide.max_ms);
    std::printf("  throughput        : %.0f shard-intervals/s "
                "(wall %.2f s, %d model clones)\n",
                r.shard_intervals_per_s, r.wall_s, r.model_clones);

    try {
        if (fleet_log) {
            AppendFleetTrace(fleet_log->Out(), r);
            fleet_log->Close();
            std::printf("  fleet trace       : %s\n",
                        opt.fleet_log_path.c_str());
        }
        if (fleet_report) {
            AppendFleetSummaryJson(fleet_report->Out(), r);
            fleet_report->Close();
            std::printf("  fleet report      : %s\n",
                        opt.fleet_report_path.c_str());
        }
    } catch (const std::runtime_error& e) {
        return OutputFailed(e);
    }
    return 0;
}

int
RunSingleMode(const SimOptions& opt)
{
    std::unique_ptr<TextFile> log, decision_log, metrics;
    try {
        log = OpenOutput(opt.log_path);
        decision_log = OpenOutput(opt.decision_log_path);
        metrics = OpenOutput(opt.metrics_path);
    } catch (const std::runtime_error& e) {
        return OutputFailed(e);
    }

    Application app = opt.app == "hotel" ? BuildHotelReservation()
                                         : BuildSocialNetwork();
    if (!opt.mix_weights.empty()) {
        try {
            SetRequestMix(app, opt.mix_weights);
        } catch (const std::exception& e) {
            SimUsage(e.what());
        }
    }

    RunConfig cfg;
    cfg.duration_s = opt.duration_s;
    cfg.warmup_s = opt.warmup_s;
    cfg.seed = opt.seed;
    cfg.faults = opt.faults;

    std::unique_ptr<ResourceManager> manager;
    std::unique_ptr<HybridModel> model;
    if (opt.manager == "sinan") {
        model = opt.model_path.empty()
                    ? std::move(TrainForCli(app, opt.app == "hotel", opt)
                                    ->model)
                    : LoadModelForCli(app, opt.model_path);
        SchedulerConfig scfg;
        scfg.uncertainty = opt.uncertainty;
        manager = std::make_unique<SinanScheduler>(*model, scfg);
    } else {
        manager = MakeBaselineManager(opt.manager);
    }

    std::unique_ptr<LoadShape> load;
    if (opt.diurnal) {
        load = std::make_unique<DiurnalLoad>(
            opt.diurnal_low, opt.diurnal_high, opt.diurnal_period);
    } else {
        load = std::make_unique<ConstantLoad>(opt.users);
    }

    // Stepped as RunManaged steps it, but the decision log takes each
    // interval's entries as they come: the run never holds its trace.
    ManagedRun run(app, *manager, *load, cfg);
    size_t decisions_logged = 0;
    try {
        if (decision_log)
            AppendDecisionTraceHeader(decision_log->Out());
        while (!run.Done()) {
            run.AdvanceInterval();
            run.DecideAndApply();
            if (decision_log) {
                const std::vector<DecisionTraceEntry>& last =
                    run.LastDecisions().intervals;
                AppendDecisionTraceEntries(decision_log->Out(), last);
                decisions_logged += last.size();
            }
        }
        if (decision_log)
            decision_log->Close();
    } catch (const std::runtime_error& e) {
        return OutputFailed(e);
    }
    const RunResult r = run.Finish();

    std::printf("\n%s on %s for %.0f s:\n", manager->Name(),
                app.name.c_str(), opt.duration_s);
    std::printf("  P(meet QoS)       : %.3f\n", r.qos_meet_prob);
    std::printf("  mean / max CPU    : %.1f / %.1f cores\n", r.mean_cpu,
                r.max_cpu);
    std::printf("  mean p99          : %.1f ms (QoS %.0f ms)\n",
                r.mean_p99_ms, app.qos_ms);

    const TelemetrySummary tel = SummarizeTelemetry(r.metrics);
    if (tel.decisions > 0) {
        std::printf("  decisions         : %llu (%llu warmup, %llu "
                    "model, %llu no-feasible)\n",
                    static_cast<unsigned long long>(tel.decisions),
                    static_cast<unsigned long long>(tel.warmup),
                    static_cast<unsigned long long>(tel.model_decisions),
                    static_cast<unsigned long long>(tel.no_feasible));
        std::printf("  fallbacks         : %llu (%llu escalated), rate "
                    "%.3f\n",
                    static_cast<unsigned long long>(tel.fallbacks),
                    static_cast<unsigned long long>(tel.escalations),
                    tel.FallbackRate());
        std::printf("  prediction acc.   : %.3f (%llu mispredictions / "
                    "%llu predictions)\n",
                    tel.PredictionAccuracy(),
                    static_cast<unsigned long long>(tel.mispredictions),
                    static_cast<unsigned long long>(tel.predictions));
        std::printf("  trust events      : %llu lost, %llu restored\n",
                    static_cast<unsigned long long>(tel.trust_lost),
                    static_cast<unsigned long long>(tel.trust_restored));
        if (tel.uncertain > 0) {
            std::printf("  uncertain decis.  : %llu (%llu model)\n",
                        static_cast<unsigned long long>(tel.uncertain),
                        static_cast<unsigned long long>(
                            tel.uncertain_model));
        }
    }
    if (!opt.faults.Empty()) {
        std::printf("  fault intervals   : %llu injected\n",
                    static_cast<unsigned long long>(r.metrics.Counter(
                        "sinan.faults.active_intervals")));
        if (tel.degraded > 0) {
            std::printf("  degraded decisions: %llu (%llu model, %llu "
                        "heuristic, %llu hold), %llu watchdog "
                        "upscales\n",
                        static_cast<unsigned long long>(tel.degraded),
                        static_cast<unsigned long long>(
                            tel.degraded_model),
                        static_cast<unsigned long long>(
                            tel.degraded_heuristic),
                        static_cast<unsigned long long>(
                            tel.degraded_hold),
                        static_cast<unsigned long long>(
                            tel.watchdog_upscales));
        }
        const double fault_end_s =
            static_cast<double>(opt.faults.EndInterval()) *
            cfg.sim.interval_s;
        const int rec = RecoveryIntervals(r, fault_end_s, app.qos_ms);
        if (rec < 0)
            std::printf("  recovery          : not within the run\n");
        else
            std::printf("  recovery          : %d interval%s after the "
                        "last fault\n",
                        rec, rec == 1 ? "" : "s");
    }

    try {
        if (log) {
            AppendRunLog(log->Out(), r, app);
            log->Close();
            std::printf("  execution log     : %s\n",
                        opt.log_path.c_str());
        }
        if (decision_log) {
            std::printf("  decision log      : %s (%zu intervals)\n",
                        opt.decision_log_path.c_str(), decisions_logged);
        }
        if (metrics) {
            r.metrics.AppendCsv(metrics->Out());
            metrics->Close();
            std::printf("  metrics           : %s\n",
                        opt.metrics_path.c_str());
        }
    } catch (const std::runtime_error& e) {
        return OutputFailed(e);
    }
    return 0;
}

} // namespace sinan
