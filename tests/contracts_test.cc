/**
 * @file
 * Contract-layer tests: the SINAN_CHECK macro family's diagnostics and
 * exception type, plus death tests proving that a violated contract on
 * a hot path actually kills the process (under SINAN_CHECK_ABORT)
 * with the formatted diagnostic on stderr. Each death test pins a
 * specific contract — removing the corresponding SINAN_CHECK from the
 * source makes the test fail.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "app/apps.h"
#include "common/check.h"
#include "common/stats.h"
#include "core/scheduler.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace sinan {
namespace {

using testutil::MakeObs;
using testutil::SmallFeatures;

TEST(ContractViolation, IsAnInvalidArgument)
{
    // Pre-contract call sites (and ~40 existing tests) classify bad
    // inputs as std::invalid_argument; the contract layer must stay
    // compatible with that taxonomy.
    static_assert(
        std::is_base_of_v<std::invalid_argument, ContractViolation>);
    EXPECT_THROW(SINAN_CHECK(false), std::invalid_argument);
}

TEST(ContractViolation, DiagnosticCarriesExpressionOperandsAndLocation)
{
    const int lhs = 7, rhs = 9;
    try {
        SINAN_CHECK_EQ(lhs, rhs);
        FAIL() << "SINAN_CHECK_EQ(7, 9) did not throw";
    } catch (const ContractViolation& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("SINAN_CHECK_EQ failed"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("lhs == rhs"), std::string::npos) << msg;
        EXPECT_NE(msg.find("(7 vs 9)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("contracts_test.cc:"), std::string::npos)
            << msg;
    }
}

TEST(ContractViolation, BoundsReportsValueAndRange)
{
    try {
        const double v = 2.5;
        SINAN_CHECK_BOUNDS(v, 0.0, 1.0);
        FAIL() << "out-of-bounds value did not throw";
    } catch (const ContractViolation& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("SINAN_CHECK_BOUNDS failed"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("2.5 outside [0, 1]"), std::string::npos)
            << msg;
    }
}

TEST(ContractViolation, FiniteRejectsNanAndInf)
{
    EXPECT_THROW(SINAN_CHECK_FINITE(std::nan("")), ContractViolation);
    EXPECT_THROW(SINAN_CHECK_FINITE(1.0 / 0.0), ContractViolation);
    SINAN_CHECK_FINITE(0.0); // must not throw
}

TEST(ContractViolation, ShapeReportsActualVsExpected)
{
    Tensor t({2, 3});
    SINAN_CHECK_SHAPE(t, 2, 3); // must not throw
    try {
        SINAN_CHECK_SHAPE(t, 4, 5);
        FAIL() << "shape mismatch did not throw";
    } catch (const ContractViolation& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("[2, 3]"), std::string::npos) << msg;
        EXPECT_NE(msg.find("[4, 5]"), std::string::npos) << msg;
    }
}

TEST(ContractViolation, ChecksAreOnInReleaseBuilds)
{
    // Unlike assert(), SINAN_CHECK survives NDEBUG — ctest runs
    // Release, so a contract compiled out there is never exercised.
    EXPECT_THROW(SINAN_CHECK(false), ContractViolation);
    EXPECT_THROW(SINAN_CHECK_EQ(1, 2), ContractViolation);
}

/**
 * Death tests run with SINAN_CHECK_ABORT set, which makes a failed
 * check print the diagnostic and abort() instead of unwinding —
 * deterministic stderr for the matcher below. The threadsafe style
 * re-execs the test binary so the shared thread pool and sanitizer
 * runtimes are not forked mid-flight.
 */
class ContractDeathTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
        ::setenv("SINAN_CHECK_ABORT", "1", 1);
    }

    void TearDown() override { ::unsetenv("SINAN_CHECK_ABORT"); }
};

TEST_F(ContractDeathTest, MatmulShapeMismatchDies)
{
    Tensor a({2, 3}), b({4, 5}), c({2, 5});
    EXPECT_DEATH(MatMul(a, b, c),
                 "SINAN_CHECK failed.*inner dimension mismatch");
}

TEST_F(ContractDeathTest, MatmulWrongOutputShapeDies)
{
    Tensor a({2, 3}), b({3, 5}), c({2, 4});
    EXPECT_DEATH(MatMul(a, b, c), "SINAN_CHECK_SHAPE failed");
}

TEST_F(ContractDeathTest, SchedulerAllocationOutsideTierBoundsDies)
{
    const FeatureConfig f = SmallFeatures(3, 3);
    HybridModel model(f, HybridConfig{}, 1);

    Application app;
    app.qos_ms = f.qos_ms;
    for (int i = 0; i < f.n_tiers; ++i) {
        TierSpec t;
        t.name = "tier" + std::to_string(i);
        t.min_cpu = 0.2;
        t.max_cpu = 8.0;
        app.tiers.push_back(t);
    }

    SinanScheduler sched(model, SchedulerConfig{});
    const IntervalObservation obs = MakeObs(f, 0.0, 100, 2.0, 0.3, 100);
    // 100 cores on a tier capped at 8: outside the Table-1 action set.
    const std::vector<double> alloc(app.tiers.size(), 100.0);
    // The value and both bounds reach the diagnostic through the cold
    // failure path.
    EXPECT_DEATH(sched.Decide(obs, alloc, app),
                 "SINAN_CHECK_BOUNDS failed.*"
                 "\\(100 outside \\[0\\.2, 8\\]\\)");
}

TEST_F(ContractDeathTest, UnsealedDigestQueryDies)
{
    PercentileDigest d;
    d.Add(1.0);
    d.Add(2.0);
    EXPECT_DEATH((void)d.Quantile(0.99),
                 "Seal\\(\\) before querying");
}

} // namespace
} // namespace sinan
