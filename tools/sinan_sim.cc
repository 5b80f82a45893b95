/**
 * @file
 * Command-line driver: run any resource manager against either
 * application under a configurable load and emit the execution log
 * (CSV) plus a summary — the equivalent of the paper artifact's
 * deployment scripts. With --fleet N it instead steps N clusters
 * concurrently under the centralized FleetManager (src/fleet).
 *
 * Flag parsing, validation and both modes live in src/cli/sim_cli.h
 * (strict: anything malformed prints usage and exits 2; an output
 * file that cannot be opened or written exits 1).
 *
 * Examples:
 *   sinan_sim --app social --manager cons --users 250 --duration 120
 *   sinan_sim --app hotel --manager sinan --users 2500 --collect 800 \
 *             --epochs 8 --log hotel_sinan.csv \
 *             --decision-log decisions.csv --metrics metrics.csv
 *   sinan_sim --manager sinan --model bench_cache/social.model \
 *             --uncertainty on --faults chaos:flash-crowd
 *   sinan_sim --manager sinan --faults chaos:telemetry-blackout
 *   sinan_sim --faults 'stall@10+5:tier=2;drop@12+3'
 *   sinan_sim --faults list
 *   sinan_sim --fleet 100 --manager sinan --duration 60 \
 *             --fleet-shard '7:app=hotel,users=2500' \
 *             --fleet-shard '12:faults=chaos:tier-stall' \
 *             --fleet-log fleet.csv --fleet-report fleet.json
 */
#include "cli/sim_cli.h"
#include "common/thread_pool.h"

using namespace sinan;

int
main(int argc, char** argv)
{
    const SimOptions opt = ParseSimArgs(argc, argv);
    if (opt.threads > 0)
        SetNumThreads(opt.threads);
    return opt.fleet > 0 ? RunFleetMode(opt) : RunSingleMode(opt);
}
