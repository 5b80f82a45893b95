/**
 * @file
 * Command-line driver: run any resource manager against either
 * application under a configurable load and emit the execution log
 * (CSV) plus a summary — the equivalent of the paper artifact's
 * deployment scripts. With --fleet N it instead steps N clusters
 * concurrently under the centralized FleetManager (src/fleet).
 *
 * Flag parsing and validation live in src/cli/sim_cli.h (strict:
 * anything malformed prints usage and exits 2).
 *
 * Examples:
 *   sinan_sim --app social --manager cons --users 250 --duration 120
 *   sinan_sim --app hotel --manager sinan --users 2500 --collect 800 \
 *             --epochs 8 --log hotel_sinan.csv \
 *             --decision-log decisions.csv --metrics metrics.csv
 *   sinan_sim --manager sinan --faults chaos:telemetry-blackout
 *   sinan_sim --faults 'stall@10+5:tier=2;drop@12+3'
 *   sinan_sim --faults list
 *   sinan_sim --fleet 100 --manager sinan --duration 60 \
 *             --fleet-shard '7:app=hotel,users=2500' \
 *             --fleet-shard '12:faults=chaos:tier-stall' \
 *             --fleet-log fleet.csv --fleet-report fleet.json
 */
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/apps.h"
#include "cli/sim_cli.h"
#include "common/thread_pool.h"
#include "core/scheduler.h"
#include "fleet/fleet.h"
#include "harness/harness.h"
#include "harness/runlog.h"
#include "harness/telemetry_log.h"
#include "sim/fault_injector.h"

using namespace sinan;

int
main(int argc, char** argv)
{
    const SimOptions opt = ParseSimArgs(argc, argv);
    if (opt.threads > 0)
        SetNumThreads(opt.threads);

    if (opt.fleet > 0)
        return RunFleetMode(opt);

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
    std::unique_ptr<TrainedSinan> trained;
    if (opt.manager == "sinan") {
        trained = TrainForCli(app, opt.app == "hotel", opt);
        SchedulerConfig scfg;
        scfg.uncertainty = opt.uncertainty;
        manager = std::make_unique<SinanScheduler>(*trained->model,
                                                   scfg);
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

    const RunResult r = RunManaged(app, *manager, *load, cfg);

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

    if (!opt.log_path.empty()) {
        WriteRunLog(opt.log_path, r, app);
        std::printf("  execution log     : %s\n", opt.log_path.c_str());
    }
    if (!opt.decision_log_path.empty()) {
        WriteDecisionTrace(opt.decision_log_path, r.decision_trace);
        std::printf("  decision log      : %s (%zu intervals)\n",
                    opt.decision_log_path.c_str(),
                    r.decision_trace.intervals.size());
    }
    if (!opt.metrics_path.empty()) {
        WriteMetrics(opt.metrics_path, r.metrics);
        std::printf("  metrics           : %s\n",
                    opt.metrics_path.c_str());
    }
    return 0;
}
