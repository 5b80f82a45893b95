/**
 * @file
 * Golden-file pin of sinan_analyze's SARIF 2.1.0 rendering. CI uploads
 * the SARIF log as an artifact and code-scanning UIs consume it, so
 * its exact bytes are a contract like the telemetry serializations:
 * any drift (rule table, ordering, escaping, layout) must show up as a
 * reviewed diff of tests/golden/analyze.sarif, not as a silent change.
 *
 * The pinned report comes from the analyzer's own mini-tree fixture
 * (tools/analyze/fixtures/tree), which exercises findings from both
 * the per-file and the graph passes plus both suppression layers —
 * so the golden file also locks the finding order and message text.
 * Regenerate after an intentional format change with:
 *   SINAN_REGEN_GOLDEN=1 ./tests/analyze_sarif_test
 */
#include <gtest/gtest.h>

#include <string>

#include "analyze.h"
#include "golden_util.h"

namespace sinan {
namespace analyze {
namespace {

Report
FixtureReport()
{
    return AnalyzeTree(std::string(SINAN_REPO_ROOT) +
                       "/tools/analyze/fixtures/tree");
}

TEST(AnalyzeSarifTest, SarifBytesAreStable)
{
    testutil::CheckGolden("analyze.sarif", ToSarif(FixtureReport()));
}

TEST(AnalyzeSarifTest, MiniTreeReportShapeIsStable)
{
    const Report report = FixtureReport();
    // The mini tree is the self-test fixture: its findings fire on
    // purpose, its config errors do not.
    EXPECT_TRUE(report.errors.empty());
    EXPECT_FALSE(report.findings.empty());
    EXPECT_FALSE(report.Clean());
    // Findings arrive in (path, line, rule) order — the SARIF result
    // order the golden file pins.
    for (size_t i = 1; i < report.findings.size(); ++i)
        EXPECT_FALSE(FindingLess(report.findings[i],
                                 report.findings[i - 1]));
}

TEST(AnalyzeSarifTest, RenderingIsAPureFunctionOfTheReport)
{
    const Report report = FixtureReport();
    EXPECT_EQ(ToSarif(report), ToSarif(report));
}

} // namespace
} // namespace analyze
} // namespace sinan
