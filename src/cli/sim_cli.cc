#include "cli/sim_cli.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "app/apps.h"
#include "common/parse.h"
#include "common/thread_pool.h"
#include "fleet/fleet_log.h"
#include "harness/harness.h"

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

    if (!opt.fleet_log_path.empty()) {
        WriteFleetTrace(opt.fleet_log_path, r);
        std::printf("  fleet trace       : %s\n",
                    opt.fleet_log_path.c_str());
    }
    if (!opt.fleet_report_path.empty()) {
        WriteFleetReport(opt.fleet_report_path, r);
        std::printf("  fleet report      : %s\n",
                    opt.fleet_report_path.c_str());
    }
    return 0;
}

} // namespace sinan
