/**
 * @file
 * Exit codes are an external contract shared by three CLI tools, CI
 * scripts, and the README table. This test pins both halves: the
 * numeric constants (so a refactor cannot silently renumber a verdict
 * someone's regression farm matches on) and the README's "Exit codes"
 * table (so documentation drift — the table once predated codes 5 and
 * 6 — fails a test instead of confusing an operator).
 *
 * The README path is baked in at configure time (MTC_README_PATH), so
 * the test runs from any build directory.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/campaign.h"
#include "harness/campaign_report.h"
#include "harness/exit_codes.h"

namespace mtc
{
namespace
{

TEST(ExitCodes, NumericValuesAreFrozen)
{
    EXPECT_EQ(kExitClean, 0);
    EXPECT_EQ(kExitConfigError, 1);
    EXPECT_EQ(kExitViolation, 2);
    EXPECT_EQ(kExitCorruptionOnly, 3);
    EXPECT_EQ(kExitPlatformCrash, 4);
    EXPECT_EQ(kExitHang, 5);
    EXPECT_EQ(kExitBreakerTripped, 6);
    EXPECT_EQ(kExitTraceFault, 7);
}

TEST(ExitCodes, CampaignMappingHonorsSeverityPriority)
{
    CampaignTotals t;
    EXPECT_EQ(campaignExitCode(t), kExitClean);

    t.quarantined = 1;
    EXPECT_EQ(campaignExitCode(t), kExitCorruptionOnly);
    t.failed = 1;
    EXPECT_EQ(campaignExitCode(t), kExitPlatformCrash);
    t.hung = 1;
    EXPECT_EQ(campaignExitCode(t), kExitHang);
    t.tripped = true;
    EXPECT_EQ(campaignExitCode(t), kExitBreakerTripped);
    t.violations = 1;
    EXPECT_EQ(campaignExitCode(t), kExitViolation);

    CampaignTotals transient_only;
    transient_only.transient = 2;
    EXPECT_EQ(campaignExitCode(transient_only), kExitCorruptionOnly);
    CampaignTotals degraded_only;
    degraded_only.degraded = true;
    EXPECT_EQ(campaignExitCode(degraded_only), kExitPlatformCrash);
    CampaignTotals confirmed_only;
    confirmed_only.confirmed = 1;
    EXPECT_EQ(campaignExitCode(confirmed_only), kExitViolation);
}

/** Exit code of @p summaries through the shared report. */
int
exitCodeOf(const std::vector<ConfigSummary> &summaries)
{
    std::ostringstream out, err;
    return campaignExitCode(
        printCampaignReport(out, err, "test", summaries));
}

TEST(ExitCodes, CrashOnlyCampaignIsACrashNotAViolation)
{
    // Platform crashes are counted inside `violations` — the summary
    // digests fold them there — but a campaign whose only
    // "violations" are crashes earns the crash code, not 2.
    ConfigSummary s;
    s.cfg = parseConfigName("x86-2-50-32");
    s.tests = 6;
    s.violations = 1;
    s.platformCrashes = 1;
    EXPECT_EQ(exitCodeOf({s}), kExitPlatformCrash);

    // A real violation beside the crash still outranks it.
    s.violations = 2;
    EXPECT_EQ(exitCodeOf({s}), kExitViolation);
}

TEST(ExitCodes, ContainedWorkerCrashExitsWithTheCrashCode)
{
    // The containment drill: a real SIGSEGV in a sandbox worker,
    // retried on the respawn. Every unit completes; the campaign
    // reports the crash (4), not a violation (2).
    CampaignConfig campaign;
    campaign.iterations = 256;
    campaign.testsPerConfig = 6;
    campaign.seed = 11;
    campaign.runConventional = false;
    campaign.mode = ExecutionMode::Sandboxed;
    campaign.threads = 2;
    campaign.dieAfterRuns = 40;
    campaign.recovery.crashRetries = 1;
    const auto summaries =
        runCampaign({parseConfigName("x86-2-50-32")}, campaign);
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_EQ(summaries[0].tests, 6u);
    EXPECT_EQ(summaries[0].failedTests, 0u);
    EXPECT_EQ(summaries[0].platformCrashes, 1u);
    EXPECT_EQ(exitCodeOf(summaries), kExitPlatformCrash);
}

TEST(ExitCodes, ProtocolDeadlockExitsWithTheCrashCode)
{
    // The PUTX/GETX race deadlocks the coherent platform (the paper's
    // bug 3): crashes only, no MCM violation.
    CampaignConfig campaign;
    campaign.iterations = 4; // every lane of the batch deadlocks
    campaign.testsPerConfig = 2;
    campaign.runConventional = false;
    campaign.variant = PlatformVariant::Mesi;
    campaign.bug = BugKind::PutxGetxRace;
    campaign.bugProbability = 1.0;
    campaign.cacheLines = 2;
    const auto summaries =
        runCampaign({parseConfigName("x86-4-50-64")}, campaign);
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_GT(summaries[0].platformCrashes, 0u);
    EXPECT_EQ(summaries[0].violations, summaries[0].platformCrashes);
    EXPECT_EQ(exitCodeOf(summaries), kExitPlatformCrash);
}

/** Rows of the README's exit-code table: code -> full row text. */
std::map<int, std::string>
readmeExitCodeRows()
{
    std::ifstream readme(MTC_README_PATH);
    EXPECT_TRUE(readme.is_open())
        << "cannot open " << MTC_README_PATH;

    std::map<int, std::string> rows;
    std::string line;
    bool in_section = false;
    while (std::getline(readme, line)) {
        if (line.rfind("## ", 0) == 0)
            in_section = line == "## Exit codes";
        if (!in_section || line.rfind("| ", 0) != 0)
            continue;
        // A data row starts "| <integer> |".
        std::istringstream cells(line);
        char bar = 0;
        int code = -1;
        cells >> bar >> code;
        if (bar != '|' || cells.fail())
            continue;
        EXPECT_EQ(rows.count(code), 0u)
            << "duplicate README row for exit code " << code;
        rows[code] = line;
    }
    return rows;
}

TEST(ExitCodes, ReadmeTableCoversEveryCodeWithItsMeaning)
{
    const std::map<int, std::string> rows = readmeExitCodeRows();
    ASSERT_EQ(rows.size(), 8u)
        << "README '## Exit codes' table must document codes 0..7";

    const struct
    {
        int code;
        const char *keyword;
    } expected[] = {
        {kExitClean, "clean"},
        {kExitConfigError, "config error"},
        {kExitViolation, "violation"},
        {kExitCorruptionOnly, "corruption"},
        {kExitPlatformCrash, "crash"},
        {kExitHang, "hung"},
        {kExitBreakerTripped, "breaker"},
        {kExitTraceFault, "trace fault"},
    };
    for (const auto &e : expected) {
        const auto it = rows.find(e.code);
        ASSERT_NE(it, rows.end()) << "no README row for code "
                                  << e.code;
        EXPECT_NE(it->second.find(e.keyword), std::string::npos)
            << "README row for code " << e.code
            << " does not mention \"" << e.keyword
            << "\": " << it->second;
    }
    // Code 7 is mtc_check-only; the row must say which tool emits it.
    EXPECT_NE(rows.at(kExitTraceFault).find("mtc_check"),
              std::string::npos);
}

} // anonymous namespace
} // namespace mtc
