/**
 * @file
 * Argv-level contract of the sinan_sim flag surface: every malformed
 * flag prints usage to stderr and exits 2 (the strict convention from
 * src/cli/sim_cli.h), `--faults list` prints the chaos catalog and
 * exits 0, and well-formed invocations populate SimOptions exactly.
 * Exit behavior is pinned with gtest death tests so a regression to
 * throwing (or to silently misparsing) fails loudly.
 */
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "app/apps.h"
#include "cli/sim_cli.h"
#include "common/cpu_features.h"
#include "golden_util.h"

namespace sinan {
namespace {

/** Runs ParseSimArgs on "sinan_sim <args...>". */
SimOptions
Parse(std::initializer_list<const char*> args)
{
    std::vector<const char*> argv = {"sinan_sim"};
    argv.insert(argv.end(), args.begin(), args.end());
    return ParseSimArgs(static_cast<int>(argv.size()), argv.data());
}

/** Asserts the invocation exits 2 with @p needle on stderr. */
void
ExpectUsageExit(std::initializer_list<const char*> args,
                const std::string& needle)
{
    SCOPED_TRACE(needle);
    EXPECT_EXIT(Parse(args), ::testing::ExitedWithCode(2), needle);
}

TEST(CliTest, DefaultsWhenNoFlags)
{
    const SimOptions opt = Parse({});
    EXPECT_EQ(opt.app, "social");
    EXPECT_FALSE(opt.app_set);
    EXPECT_EQ(opt.manager, "cons");
    EXPECT_FALSE(opt.manager_set);
    EXPECT_DOUBLE_EQ(opt.users, 200.0);
    EXPECT_FALSE(opt.users_set);
    EXPECT_EQ(opt.fleet, 0);
    EXPECT_FALSE(opt.faults_set);
}

TEST(CliTest, ParsesSingleRunFlagsBothSpellings)
{
    const SimOptions opt =
        Parse({"--app", "hotel", "--manager=sinan", "--users=2500",
               "--duration", "30", "--warmup=5", "--seed", "42",
               "--threads=4", "--faults", "stall@3+2:tier=1",
               "--decision-log", "trace.csv"});
    EXPECT_EQ(opt.app, "hotel");
    EXPECT_TRUE(opt.app_set);
    EXPECT_EQ(opt.manager, "sinan");
    EXPECT_DOUBLE_EQ(opt.users, 2500.0);
    EXPECT_DOUBLE_EQ(opt.duration_s, 30.0);
    EXPECT_DOUBLE_EQ(opt.warmup_s, 5.0);
    EXPECT_EQ(opt.seed, 42u);
    EXPECT_EQ(opt.threads, 4);
    EXPECT_TRUE(opt.faults_set);
    ASSERT_EQ(opt.faults.events.size(), 1u);
    EXPECT_EQ(opt.faults.events[0].start, 3);
    EXPECT_EQ(opt.faults.events[0].tier, 1);
    EXPECT_EQ(opt.decision_log_path, "trace.csv");
}

TEST(CliTest, ParsesFleetFlagsAndOverrides)
{
    const SimOptions opt =
        Parse({"--fleet", "32", "--manager", "sinan",
               "--fleet-shard", "7:app=hotel,users=2500",
               "--fleet-shard", "12:faults=stall@2+3:tier=1;drop@6",
               "--fleet-log", "fleet.csv", "--fleet-report",
               "fleet.json"});
    EXPECT_EQ(opt.fleet, 32);
    ASSERT_EQ(opt.fleet_shards.size(), 2u);
    EXPECT_EQ(opt.fleet_shards[0].index, 7);
    EXPECT_EQ(opt.fleet_shards[0].app, "hotel");
    EXPECT_DOUBLE_EQ(opt.fleet_shards[0].users, 2500.0);
    EXPECT_EQ(opt.fleet_shards[1].index, 12);
    EXPECT_TRUE(opt.fleet_shards[1].faults_set);
    EXPECT_EQ(opt.fleet_shards[1].faults,
              "stall@2+3:tier=1;drop@6");
    EXPECT_EQ(opt.fleet_log_path, "fleet.csv");
    EXPECT_EQ(opt.fleet_report_path, "fleet.json");

    // The parsed options resolve into a runnable fleet shape.
    const Application hotel = BuildHotelReservation();
    const Application social = BuildSocialNetwork();
    const std::vector<ShardSpec> shards = ResolveFleetShards(
        BuildFleetConfig(opt), FleetApps{&hotel, &social});
    ASSERT_EQ(shards.size(), 32u);
    EXPECT_EQ(shards[7].app, "hotel");
    EXPECT_EQ(shards[12].faults, "stall@2+3:tier=1;drop@6");
}

TEST(CliTest, ParsingLeavesSimdDispatchModeAlone)
{
    // SINAN_SIMD (read at startup into the dispatch mode) must survive
    // argument parsing; no flag may reset it to auto.
    const SimdMode entry = CurrentSimdMode();
    SetSimdMode(SimdMode::kOff);
    (void)Parse({"--app", "hotel"});
    EXPECT_EQ(CurrentSimdMode(), SimdMode::kOff);
    SetSimdMode(entry);
}

TEST(CliDeathTest, MalformedFlagsExitTwo)
{
    ExpectUsageExit({"--bogus"}, "unknown flag --bogus");
    // Dispatch is overridden by the SINAN_SIMD variable, not a flag.
    ExpectUsageExit({"--simd", "on"}, "unknown flag --simd");
    // Inference is fp32 only; the int8 mode and its flag are gone.
    ExpectUsageExit({"--quant", "int8"}, "unknown flag --quant");
    ExpectUsageExit({"--users"}, "missing value for --users");
    ExpectUsageExit({"--users", "abc"}, "expects a number");
    ExpectUsageExit({"--users", "12x"}, "expects a number");
    // strtod/strtoull tolerate leading whitespace and '+', and clamp
    // overflow instead of failing; the strict convention rejects all
    // three (a quoted " 5" or a 21-digit seed is a scripting bug).
    ExpectUsageExit({"--users", " 5"}, "expects a number");
    ExpectUsageExit({"--users", "+5"}, "expects a number");
    ExpectUsageExit({"--seed", " 7"}, "expects an unsigned integer");
    ExpectUsageExit({"--seed", "+7"}, "expects an unsigned integer");
    ExpectUsageExit({"--seed", "184467440737095516160"},
                    "expects an unsigned integer");
    ExpectUsageExit({"--epochs", "99999999999"}, "expects an integer");
    ExpectUsageExit({"--seed", "-3"}, "expects");
    ExpectUsageExit({"--threads", "-1"},
                    "--threads expects an integer in \\[1, 256\\]");
    ExpectUsageExit({"--threads", "0"}, "--threads expects");
    ExpectUsageExit({"--threads", "100000"}, "--threads expects");
    ExpectUsageExit({"--app", "bank"}, "--app must be hotel or social");
    ExpectUsageExit({"--manager", "llm"}, "unknown --manager llm");
    ExpectUsageExit({"--users", "100", "--diurnal", "50:200:600"},
                    "mutually exclusive");
    ExpectUsageExit({"--duration", "0"},
                    "durations and users must be positive");
    // No measured interval would remain.
    ExpectUsageExit({"--duration", "3", "--warmup", "5"},
                    "--warmup must be shorter than --duration");
    ExpectUsageExit({"--duration", "5", "--warmup", "5"},
                    "--warmup must be shorter than --duration");
    ExpectUsageExit({"--fleet", "2", "--duration", "3", "--warmup", "5"},
                    "--warmup must be shorter than --duration");
    ExpectUsageExit({"--mix", "5,80,15,"}, "--mix expects a number");
    ExpectUsageExit({"--mix", "5,,15"}, "--mix expects a number");
    ExpectUsageExit({"--diurnal", "50:200:600:1"}, "LO:HI:PERIOD");
    ExpectUsageExit({"--diurnal", "50:200:600 x"},
                    "--diurnal PERIOD expects a number");
}

TEST(CliDeathTest, EveryNumericFlagRejectsTheSameBadTokens)
{
    // One number contract for every flag (common/parse.h): each token
    // below is rejected wherever a number is read, including each
    // field of --diurnal and --mix.
    const std::vector<std::string> bad = {"nan", "inf", "-inf", "+5",
                                          " 5",  "5x",  "1e999", ""};
    // {flag, value template}; '#' is replaced by the bad token.
    const std::vector<std::pair<std::string, std::string>> flags = {
        {"--users", "#"},       {"--duration", "#"},
        {"--warmup", "#"},      {"--seed", "#"},
        {"--collect", "#"},     {"--epochs", "#"},
        {"--threads", "#"},     {"--fleet", "#"},
        {"--mix", "#,80,15"},   {"--mix", "5,#,15"},
        {"--diurnal", "#:300:600"}, {"--diurnal", "100:#:600"},
        {"--diurnal", "100:300:#"},
    };
    for (const auto& [flag, tmpl] : flags) {
        for (const std::string& token : bad) {
            std::string value = tmpl;
            value.replace(value.find('#'), 1, token);
            SCOPED_TRACE(flag + " '" + value + "'");
            const std::vector<const char*> argv = {
                "sinan_sim", flag.c_str(), value.c_str()};
            EXPECT_EXIT(ParseSimArgs(static_cast<int>(argv.size()),
                                     argv.data()),
                        ::testing::ExitedWithCode(2), "expects");
        }
    }
}

TEST(CliDeathTest, MalformedFaultSpecsExitTwo)
{
    ExpectUsageExit({"--faults", "bogus@3"}, "unknown fault kind");
    ExpectUsageExit({"--faults", "stall"}, "missing '@start'");
    ExpectUsageExit({"--faults", "caploss@2:mag=7"},
                    "mag must be in");
    ExpectUsageExit({"--faults", "chaos:nope"},
                    "unknown chaos scenario");
    ExpectUsageExit({"--faults", "stall@1:tier=1,,mag=2"},
                    "empty parameter");
    ExpectUsageExit({"--faults", "stall@1:"}, "empty parameter");
    ExpectUsageExit({"--faults", "drop@3;;drop@4"}, "empty event");
    // An infinite flash multiplier must fail in the grammar, not abort
    // the run in WorkloadGenerator::SetRateMultiplier.
    ExpectUsageExit({"--faults", "flash@1+2:mag=inf"},
                    "mag must be finite");
    // Tier validation happens against the selected app's tier count.
    ExpectUsageExit({"--app", "hotel", "--faults", "stall@1:tier=99"},
                    "targets tier 99");
}

TEST(CliDeathTest, FaultsListPrintsCatalogAndExitsZero)
{
    // The catalog goes to stdout; here we only pin the exit code.
    EXPECT_EXIT(Parse({"--faults", "list"}),
                ::testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, FleetFlagFamilyExitsTwo)
{
    ExpectUsageExit({"--fleet", "0"}, "--fleet must be >= 1");
    ExpectUsageExit({"--fleet", "two"}, "expects an integer");
    ExpectUsageExit({"--fleet-shard", "0:users=100"},
                    "--fleet-shard requires --fleet");
    ExpectUsageExit({"--fleet-log", "f.csv"},
                    "require --fleet");
    ExpectUsageExit({"--fleet-report", "f.json"},
                    "require --fleet");
    // Overrides are resolved at parse time: shape errors exit 2 here.
    ExpectUsageExit({"--fleet", "4", "--fleet-shard", "9:users=100"},
                    "index 9 outside fleet of 4");
    ExpectUsageExit({"--fleet", "4", "--fleet-shard", "1:users=100",
                     "--fleet-shard", "1:seed=7"},
                    "duplicate --fleet-shard index 1");
    ExpectUsageExit({"--fleet", "4", "--fleet-shard", "1:color=red"},
                    "unknown key 'color'");
    ExpectUsageExit({"--fleet", "4", "--fleet-shard",
                     "1:faults=bogus@3"},
                    "unknown fault kind");
    ExpectUsageExit({"--fleet", "4", "--fleet-shard", "nope"},
                    "ParseShardOverride");
}

TEST(CliDeathTest, SingleRunFlagsRejectedInFleetMode)
{
    ExpectUsageExit({"--fleet", "4", "--diurnal", "50:200:600"},
                    "single-run flag");
    ExpectUsageExit({"--fleet", "4", "--mix", "1,2,1"},
                    "single-run flag");
    ExpectUsageExit({"--fleet", "4", "--log", "run.csv"},
                    "single-run");
    ExpectUsageExit({"--fleet", "4", "--metrics", "m.txt"},
                    "single-run");
    ExpectUsageExit({"--fleet", "4", "--faults", "drop@3"},
                    "use --fleet-shard");
}

TEST(CliTest, ParsesUncertaintyFlag)
{
    EXPECT_FALSE(Parse({}).uncertainty.enabled);
    EXPECT_FALSE(Parse({"--uncertainty", "off"}).uncertainty.enabled);
    EXPECT_TRUE(Parse({"--uncertainty=on"}).uncertainty.enabled);

    // Fleet mode forwards the policy to every sinan shard.
    const SimOptions fleet = Parse({"--fleet", "4", "--uncertainty", "on"});
    EXPECT_TRUE(BuildFleetConfig(fleet).scheduler.uncertainty.enabled);
}

TEST(CliDeathTest, MalformedUncertaintyExitsTwo)
{
    ExpectUsageExit({"--uncertainty"},
                    "missing value for --uncertainty");
    ExpectUsageExit({"--uncertainty", ""},
                    "--uncertainty expects on or off, got ''");
    ExpectUsageExit({"--uncertainty", "margin=0.15"},
                    "--uncertainty expects on or off");
}

TEST(CliTest, ChaosCatalogMatchesGoldenListing)
{
    // `--faults list` prints exactly this string; golden-pinning it
    // means a scenario rename, reorder, or spec change shows up as a
    // reviewed diff. Regenerate with SINAN_REGEN_GOLDEN=1.
    const std::string rendered = FormatChaosCatalog();
    testutil::CheckGolden("chaos_catalog.txt", rendered);

    // The two PR-9 scenarios must be part of the catalog.
    EXPECT_NE(rendered.find("correlated-outage"), std::string::npos);
    EXPECT_NE(rendered.find("flash-crowd"), std::string::npos);
}

} // namespace
} // namespace sinan
