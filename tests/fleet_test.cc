/**
 * @file
 * Fleet harness contract tests (src/fleet):
 *
 *  - byte-identical fleet traces at 1, 3, and 8 threads across mixed
 *    hotel/social fleets, with and without chaos, and at 1 to 100
 *    clusters of bench_e2e's mixed-100 shard mix — the fleet
 *    determinism contract (any thread count, any shard-scheduling
 *    order);
 *  - shard-count independence: a cluster's full telemetry (run log,
 *    decision digest, metrics) is identical whether the cluster runs
 *    solo under RunManaged or inside a 32-shard fleet;
 *  - model-clone isolation: a chaotic neighbour that may share a
 *    decision block's clone must not perturb a clean shard's
 *    decisions;
 *  - the clone bound: one clone per decision block that decides a
 *    kind's Sinan shard, never one per shard;
 *  - trace retention: a shard keeps its decision digest and no
 *    decision-trace entries;
 *  - the --fleet-shard override grammar (parse + resolve validation).
 *
 * Sinan shards load the bundled bench_cache models (no training), so
 * the tests exercise the real cached-trunk Evaluate path.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/apps.h"
#include "bundled_model.h"
#include "common/thread_pool.h"
#include "fleet/fleet.h"
#include "fleet/fleet_log.h"
#include "harness/runlog.h"

namespace sinan {
namespace {

using testutil::LoadBundledModel;

class FleetFixture : public ::testing::Test {
  protected:
    static void
    SetUpTestSuite()
    {
        hotel_app_ = new Application(BuildHotelReservation());
        social_app_ = new Application(BuildSocialNetwork());
        hotel_model_ = LoadBundledModel(*hotel_app_, "hotel").release();
        social_model_ =
            LoadBundledModel(*social_app_, "social").release();
    }

    static void
    TearDownTestSuite()
    {
        delete hotel_model_;
        delete social_model_;
        delete hotel_app_;
        delete social_app_;
        hotel_model_ = social_model_ = nullptr;
        hotel_app_ = social_app_ = nullptr;
    }

    static bool
    HaveModels()
    {
        return hotel_model_ != nullptr && social_model_ != nullptr;
    }

    static FleetModels
    Models()
    {
        FleetModels m;
        m.hotel = hotel_model_;
        m.social = social_model_;
        return m;
    }

    static FleetApps
    Apps()
    {
        FleetApps a;
        a.hotel = hotel_app_;
        a.social = social_app_;
        return a;
    }

    static Application* hotel_app_;
    static Application* social_app_;
    static HybridModel* hotel_model_;
    static HybridModel* social_model_;
};

Application* FleetFixture::hotel_app_ = nullptr;
Application* FleetFixture::social_app_ = nullptr;
HybridModel* FleetFixture::hotel_model_ = nullptr;
HybridModel* FleetFixture::social_model_ = nullptr;

/** Short-horizon fleet base: 10 decision intervals, 3 s warmup. */
FleetConfig
BaseConfig(int n_clusters, uint64_t seed)
{
    FleetConfig cfg;
    cfg.n_clusters = n_clusters;
    cfg.duration_s = 10.0;
    cfg.warmup_s = 3.0;
    cfg.seed = seed;
    return cfg;
}

/** The deterministic byte surface of one fleet run. */
struct FleetBytes {
    std::string trace;
    std::string summary;
};

FleetBytes
RunAtThreads(const FleetConfig& cfg, const FleetModels& models,
             const FleetApps& apps, int threads)
{
    SetNumThreads(threads);
    const FleetResult result = RunFleet(cfg, models, apps);
    SetNumThreads(0); // restore the SINAN_THREADS / hardware default
    FleetBytes bytes;
    bytes.trace = FleetTraceToCsv(result);
    bytes.summary =
        FleetSummaryToJson(result, /*include_timing=*/false);
    return bytes;
}

ShardOverride
Override(const std::string& text)
{
    return ParseShardOverride(text);
}

/** Mixed default fleet: alternating social/hotel, all Sinan-managed. */
FleetConfig
MixedSinanConfig(uint64_t seed)
{
    return BaseConfig(6, seed);
}

/** Every manager kind plus chaos on two shards. */
FleetConfig
ManagersAndChaosConfig(uint64_t seed)
{
    FleetConfig cfg = BaseConfig(8, seed);
    cfg.overrides.push_back(Override("1:manager=opt"));
    cfg.overrides.push_back(Override("3:manager=powerchief"));
    cfg.overrides.push_back(Override("5:manager=hold"));
    cfg.overrides.push_back(
        Override("2:faults=stall@3+2:tier=1;spike@6:mag=300"));
    cfg.overrides.push_back(Override("6:faults=chaos:tier-stall"));
    cfg.overrides.push_back(Override("7:app=hotel,users=1500"));
    return cfg;
}

/** Hotel-only fleet with per-shard fault and seed overrides. */
FleetConfig
HotelChaosConfig(uint64_t seed)
{
    FleetConfig cfg = BaseConfig(5, seed);
    cfg.default_app = "hotel";
    cfg.overrides.push_back(
        Override("0:faults=caploss@2+3:tier=2,mag=0.6"));
    cfg.overrides.push_back(Override("3:manager=cons"));
    cfg.overrides.push_back(Override("4:seed=999,users=2500"));
    return cfg;
}

/** Uncertainty-aware scheduling fleet-wide, with the correlated and
 *  flash-crowd chaos scenarios on two shards. */
FleetConfig
UncertainChaosConfig(uint64_t seed)
{
    FleetConfig cfg = BaseConfig(6, seed);
    cfg.scheduler.uncertainty.enabled = true;
    cfg.overrides.push_back(
        Override("1:faults=chaos:correlated-outage"));
    cfg.overrides.push_back(Override("4:faults=chaos:flash-crowd"));
    cfg.overrides.push_back(Override("5:faults=chaos:stale-telemetry"));
    return cfg;
}

/** The shard mix of bench_e2e's mixed-100 workload at fleet size
 *  @p n_clusters: alternating social/hotel Sinan shards with one
 *  `cons` shard and one stalled-and-dropped shard in every 16. */
FleetConfig
ScaleMixConfig(int n_clusters, uint64_t seed)
{
    FleetConfig cfg = BaseConfig(n_clusters, seed);
    for (int k = 5; k < n_clusters; k += 16)
        cfg.overrides.push_back(
            Override(std::to_string(k) + ":manager=cons"));
    for (int k = 12; k < n_clusters; k += 16)
        cfg.overrides.push_back(Override(
            std::to_string(k) + ":faults=stall@4+2:tier=1;drop@8"));
    return cfg;
}

TEST_F(FleetFixture, TraceBytesIdenticalAcrossThreadCounts)
{
    if (!HaveModels())
        GTEST_SKIP() << "bundled bench_cache models not present";
    const FleetConfig configs[] = {
        MixedSinanConfig(7),     ManagersAndChaosConfig(21),
        HotelChaosConfig(33),    UncertainChaosConfig(47),
        ScaleMixConfig(1, 7),    ScaleMixConfig(8, 7),
        ScaleMixConfig(32, 7),   ScaleMixConfig(100, 7)};
    for (const FleetConfig& cfg : configs) {
        const FleetBytes serial = RunAtThreads(cfg, Models(), Apps(), 1);
        const FleetBytes par3 = RunAtThreads(cfg, Models(), Apps(), 3);
        const FleetBytes par8 = RunAtThreads(cfg, Models(), Apps(), 8);
        EXPECT_EQ(serial.trace, par3.trace);
        EXPECT_EQ(serial.trace, par8.trace);
        EXPECT_EQ(serial.summary, par3.summary);
        EXPECT_EQ(serial.summary, par8.summary);
        EXPECT_FALSE(serial.trace.empty());
    }
}

/** Reconstructs shard @p spec as a solo RunManaged with its own model
 *  clone, mirroring exactly what the fleet builds internally. */
RunResult
RunSolo(const ShardSpec& spec, const FleetConfig& cfg,
        const Application& app, const HybridModel* model)
{
    RunConfig rc;
    rc.duration_s = cfg.duration_s;
    rc.warmup_s = cfg.warmup_s;
    rc.sim = cfg.sim;
    rc.cluster = cfg.cluster;
    rc.bursts = cfg.bursts;
    if (!spec.faults.empty())
        rc.faults = ParseFaultSpec(spec.faults);
    rc.seed = spec.seed;
    const ConstantLoad load(spec.users);
    if (spec.manager == "sinan") {
        const std::unique_ptr<HybridModel> clone = model->Clone();
        SinanScheduler scheduler(*clone, cfg.scheduler);
        return RunManaged(app, scheduler, load, rc);
    }
    const std::unique_ptr<ResourceManager> manager =
        MakeBaselineManager(spec.manager);
    return RunManaged(app, *manager, load, rc);
}

TEST_F(FleetFixture, ClusterTraceIndependentOfFleetSize)
{
    if (!HaveModels())
        GTEST_SKIP() << "bundled bench_cache models not present";
    FleetConfig cfg = BaseConfig(32, 11);
    cfg.overrides.push_back(
        Override("7:faults=stall@2+3:tier=1;drop@6+2"));
    cfg.overrides.push_back(Override("30:manager=opt"));

    SetNumThreads(8);
    const FleetResult fleet = RunFleet(cfg, Models(), Apps());
    SetNumThreads(0);

    const std::vector<ShardSpec> specs =
        ResolveFleetShards(cfg, Apps());
    for (const int k : {0, 7, 30, 31}) {
        const ShardSpec& spec = specs[static_cast<size_t>(k)];
        const Application& app =
            spec.app == "hotel" ? *hotel_app_ : *social_app_;
        const HybridModel* model =
            spec.app == "hotel" ? hotel_model_ : social_model_;
        const RunResult solo = RunSolo(spec, cfg, app, model);
        const RunResult& in_fleet =
            fleet.clusters[static_cast<size_t>(k)].result;
        EXPECT_EQ(RunLogToCsv(solo, app), RunLogToCsv(in_fleet, app))
            << "run log diverged for cluster " << k;
        // The digest folds every field bit for bit, so this is
        // stricter than comparing the 4-decimal CSV.
        EXPECT_EQ(DecisionTraceDigest(solo.decision_trace),
                  solo.decision_digest);
        EXPECT_EQ(solo.decision_digest, in_fleet.decision_digest)
            << "decision trace diverged for cluster " << k;
        EXPECT_EQ(solo.metrics.ToCsv(), in_fleet.metrics.ToCsv())
            << "metrics diverged for cluster " << k;
    }
}

TEST_F(FleetFixture, CleanShardUnaffectedByChaoticNeighbour)
{
    if (!HaveModels())
        GTEST_SKIP() << "bundled bench_cache models not present";
    // The clean shard and its chaotic neighbour may be decided on one
    // block's social clone; faults that derail the neighbour's model
    // inputs (stalls, latency spikes, NaN telemetry) must not bleed
    // into the clean shard's decisions through workspace residue.
    const std::string clean = ":app=social,users=260,seed=4242";
    FleetConfig pair = BaseConfig(2, 5);
    pair.overrides.push_back(Override("0" + clean));
    pair.overrides.push_back(Override(
        "1:app=social,users=400,"
        "faults=stall@1+6:tier=2;spike@2+5:mag=800;nan@4+3"));
    FleetConfig alone = BaseConfig(1, 5);
    alone.overrides.push_back(Override("0" + clean));

    SetNumThreads(8);
    const FleetResult with_neighbour =
        RunFleet(pair, Models(), Apps());
    const FleetResult solo = RunFleet(alone, Models(), Apps());
    SetNumThreads(0);

    const RunResult& noisy = with_neighbour.clusters[0].result;
    const RunResult& quiet = solo.clusters[0].result;
    EXPECT_EQ(RunLogToCsv(quiet, *social_app_),
              RunLogToCsv(noisy, *social_app_));
    EXPECT_EQ(quiet.decision_digest, noisy.decision_digest);
    EXPECT_EQ(quiet.metrics.ToCsv(), noisy.metrics.ToCsv());
    // Sanity: the chaotic neighbour actually had a rough ride.
    EXPECT_GT(with_neighbour.clusters[1].spec.faults.size(), 0u);
}

TEST_F(FleetFixture, ModelClonesBoundedByDecisionBlocks)
{
    if (!HaveModels())
        GTEST_SKIP() << "bundled bench_cache models not present";
    // Mixed 32-cluster fleet whose only Sinan hotel shards are 1 and
    // 17: the other (odd) hotel shards run cons, every social shard
    // stays Sinan.
    FleetConfig cfg = BaseConfig(32, 23);
    for (int k = 3; k < 32; k += 2)
        if (k != 17)
            cfg.overrides.push_back(
                Override(std::to_string(k) + ":manager=cons"));
    const FleetConfig solo = BaseConfig(1, 23);

    SetNumThreads(8);
    const FleetResult fleet = RunFleet(cfg, Models(), Apps());
    const FleetResult one = RunFleet(solo, Models(), Apps());
    SetNumThreads(0);

    // At least slot 0 of both kinds; at most one clone per block per
    // kind, which is fewer than one per Sinan shard (18).
    EXPECT_GE(fleet.model_clones, 2);
    EXPECT_LE(fleet.model_clones, 2 * std::min(32, 8));
    EXPECT_EQ(one.model_clones, 1);
}

TEST_F(FleetFixture, ShardsKeepDigestNotDecisionEntries)
{
    if (!HaveModels())
        GTEST_SKIP() << "bundled bench_cache models not present";
    FleetConfig cfg = BaseConfig(32, 19);
    cfg.overrides.push_back(Override("5:faults=chaos:tier-stall"));
    cfg.overrides.push_back(Override("9:manager=cons"));

    SetNumThreads(1);
    const FleetResult serial = RunFleet(cfg, Models(), Apps());
    SetNumThreads(8);
    const FleetResult parallel = RunFleet(cfg, Models(), Apps());
    SetNumThreads(0);

    ASSERT_EQ(serial.clusters.size(), 32u);
    ASSERT_EQ(parallel.clusters.size(), serial.clusters.size());
    for (size_t k = 0; k < serial.clusters.size(); ++k) {
        SCOPED_TRACE(k);
        const FleetClusterResult& one = serial.clusters[k];
        EXPECT_TRUE(one.result.decision_trace.intervals.empty());
        EXPECT_TRUE(
            parallel.clusters[k].result.decision_trace.intervals.empty());
        if (one.spec.manager == "sinan") {
            EXPECT_NE(one.result.decision_digest, 0u);
            EXPECT_NE(one.result.decision_digest, kEmptyDecisionDigest);
        }
        EXPECT_EQ(one.result.decision_digest,
                  parallel.clusters[k].result.decision_digest);
    }
}

TEST(FleetOverride, ParsesEveryKeyAndSwallowsFaultCommas)
{
    const ShardOverride ov = ParseShardOverride(
        "12:app=hotel,manager=sinan,users=1800,seed=77,"
        "faults=caploss@3+2:tier=1,mag=0.6;spike@8:mag=250");
    EXPECT_EQ(ov.index, 12);
    EXPECT_EQ(ov.app, "hotel");
    EXPECT_EQ(ov.manager, "sinan");
    EXPECT_DOUBLE_EQ(ov.users, 1800.0);
    EXPECT_EQ(ov.seed, 77u);
    EXPECT_TRUE(ov.faults_set);
    EXPECT_EQ(ov.faults, "caploss@3+2:tier=1,mag=0.6;spike@8:mag=250");
}

void
ExpectOverrideError(const std::string& text, const std::string& what)
{
    try {
        ParseShardOverride(text);
        FAIL() << "expected ParseShardOverride to reject '" << text
               << "'";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << "message '" << e.what() << "' lacks '" << what << "'";
    }
}

TEST(FleetOverride, RejectsMalformedOverrides)
{
    ExpectOverrideError("nocolon", "expected 'INDEX:key=val");
    ExpectOverrideError("x:app=hotel", "bad shard index");
    ExpectOverrideError("-0:app=hotel", "bad shard index '-0'");
    ExpectOverrideError("3:", "expected at least one key=val");
    ExpectOverrideError("3:color=red", "unknown key 'color'");
    ExpectOverrideError("3:app=bank", "unknown app 'bank'");
    ExpectOverrideError("3:manager=llm", "unknown manager 'llm'");
    ExpectOverrideError("3:users=-5", "users must be > 0");
    ExpectOverrideError("3:users=12x", "bad number");
    ExpectOverrideError("3:seed=0", "seed must be > 0");
    ExpectOverrideError("3:users=5,", "trailing ','");
    // Out-of-range numbers are rejected, not truncated or saturated.
    ExpectOverrideError("4294967296:users=7",
                        "shard index '4294967296' out of range");
    ExpectOverrideError("2147483648:users=7", "out of range");
    ExpectOverrideError("99999999999999999999:users=7", "out of range");
    ExpectOverrideError("3:seed=99999999999999999999999",
                        "seed '99999999999999999999999' out of range");
    ExpectOverrideError("3:users=1e-310", "bad number");
    EXPECT_EQ(ParseShardOverride("2147483647:users=7").index, 2147483647);
    EXPECT_EQ(ParseShardOverride("3:seed=18446744073709551615").seed,
              18446744073709551615ULL);
}

TEST(FleetOverride, EveryNumericKeyRejectsTheSameBadTokens)
{
    // The shard index, users and seed share the one number contract
    // (common/parse.h); each rejection quotes the offending token.
    const std::vector<std::string> bad = {"nan", "inf", "-inf", "+5",
                                          " 5",  "5x",  "1e999", ""};
    for (const char* tmpl : {"#:users=100", "1:users=#", "1:seed=#"}) {
        for (const std::string& token : bad) {
            std::string text = tmpl;
            text.replace(text.find('#'), 1, token);
            SCOPED_TRACE(text);
            ExpectOverrideError(text, "'" + token + "'");
        }
    }
}

TEST(FleetResolve, ValidatesFleetShape)
{
    const Application hotel = BuildHotelReservation();
    const Application social = BuildSocialNetwork();
    const FleetApps apps{&hotel, &social};
    FleetConfig cfg;
    cfg.n_clusters = 4;
    cfg.overrides.push_back(ParseShardOverride("1:manager=hold"));
    cfg.overrides.push_back(ParseShardOverride("3:app=hotel"));
    const std::vector<ShardSpec> specs = ResolveFleetShards(cfg, apps);
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].app, "social"); // default mix alternates
    EXPECT_EQ(specs[1].app, "hotel");
    EXPECT_EQ(specs[1].manager, "hold");
    EXPECT_EQ(specs[3].app, "hotel");
    EXPECT_GT(specs[0].users, 0.0);
    EXPECT_NE(specs[0].seed, specs[1].seed); // derived seeds differ

    FleetConfig dup = cfg;
    dup.overrides.push_back(ParseShardOverride("1:users=99"));
    EXPECT_THROW(ResolveFleetShards(dup, apps),
                 std::invalid_argument);

    FleetConfig range = cfg;
    range.overrides.push_back(ParseShardOverride("9:users=99"));
    EXPECT_THROW(ResolveFleetShards(range, apps),
                 std::invalid_argument);

    FleetConfig badfault = cfg;
    badfault.overrides.push_back(
        ParseShardOverride("2:faults=warp@1"));
    EXPECT_THROW(ResolveFleetShards(badfault, apps),
                 std::invalid_argument);

    FleetConfig empty = cfg;
    empty.n_clusters = 0;
    EXPECT_THROW(ResolveFleetShards(empty, apps),
                 std::invalid_argument);
}

} // namespace
} // namespace sinan
