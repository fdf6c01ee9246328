/**
 * @file
 * Tests for the campaign runner: configuration aggregation, platform
 * variant selection and knobs, and environment-variable scaling.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "harness/campaign.h"
#include "harness/campaign_plan.h"
#include "harness/campaign_report.h"

namespace mtc
{
namespace
{

TEST(Campaign, RunConfigAggregates)
{
    CampaignConfig campaign;
    campaign.iterations = 128;
    campaign.testsPerConfig = 2;

    const ConfigSummary summary =
        runConfig(parseConfigName("x86-2-50-32"), campaign);
    EXPECT_EQ(summary.tests, 2u);
    EXPECT_GE(summary.avgUniqueSignatures, 1.0);
    EXPECT_GT(summary.avgSignatureBytes, 0.0);
    EXPECT_GT(summary.avgCodeRatio, 1.0);
    EXPECT_GT(summary.avgUnrelatedAccesses, 0.0);
    EXPECT_GT(summary.collectiveMs, 0.0);
    EXPECT_GT(summary.conventionalMs, 0.0);
    EXPECT_EQ(summary.violations, 0u);

    // The classification fractions partition the graphs.
    EXPECT_NEAR(summary.fracComplete + summary.fracNoResort +
                    summary.fracIncremental,
                1.0, 1e-9);

    // Collective is the headline: less work than conventional.
    EXPECT_LE(summary.workRatio(), 1.0);
}

TEST(Campaign, PlatformVariants)
{
    const TestConfig cfg = parseConfigName("ARM-2-50-32");
    const ExecutorConfig bare =
        platformFor(cfg, PlatformVariant::BareMetal);
    const ExecutorConfig linux_like =
        platformFor(cfg, PlatformVariant::Linux);
    EXPECT_EQ(bare.model, MemoryModel::RMO);
    EXPECT_EQ(bare.timing.preemptProbability, 0.0);
    EXPECT_GT(linux_like.timing.preemptProbability, 0.0);

    const ExecutorConfig x86 = platformFor(
        parseConfigName("x86-2-50-32"), PlatformVariant::BareMetal);
    EXPECT_EQ(x86.model, MemoryModel::TSO);

    const ExecutorConfig uniform =
        platformFor(cfg, PlatformVariant::Uniform);
    EXPECT_EQ(uniform.policy, SchedulingPolicy::UniformRandom);
    EXPECT_EQ(uniform.model, MemoryModel::RMO);
}

TEST(Campaign, FlowTemplateCarriesPlatformKnobs)
{
    const TestConfig x86 = parseConfigName("x86-2-50-32");
    CampaignConfig campaign;
    campaign.model = MemoryModel::SC;
    campaign.bug = BugKind::LsqNoSquash;
    campaign.bugProbability = 0.25;
    campaign.cacheLines = 4;
    const FlowConfig timed = flowTemplate(x86, campaign);
    EXPECT_FALSE(timed.coherent);
    EXPECT_EQ(timed.exec.policy, SchedulingPolicy::Timed);
    EXPECT_EQ(timed.exec.model, MemoryModel::SC);
    EXPECT_EQ(timed.exec.bug, BugKind::LsqNoSquash);
    EXPECT_EQ(timed.exec.bugProbability, 0.25);
    EXPECT_EQ(timed.exec.timing.cacheLines, 4u);

    campaign.variant = PlatformVariant::Mesi;
    const FlowConfig mesi = flowTemplate(x86, campaign);
    ASSERT_TRUE(mesi.coherent);
    EXPECT_EQ(mesi.coherent->model, MemoryModel::SC);
    EXPECT_EQ(mesi.coherent->bug, BugKind::LsqNoSquash);
    EXPECT_EQ(mesi.coherent->bugProbability, 0.25);
    EXPECT_EQ(mesi.coherent->cacheLines, 4u);

    CampaignConfig uniform;
    uniform.variant = PlatformVariant::Uniform;
    EXPECT_EQ(flowTemplate(x86, uniform).exec.reorderWindow, 8u);
    uniform.model = MemoryModel::SC;
    EXPECT_EQ(flowTemplate(x86, uniform).exec.reorderWindow, 1u);

    // Knob combinations no platform can run are config errors.
    uniform.bug = BugKind::LsqNoSquash;
    EXPECT_THROW(flowTemplate(x86, uniform), ConfigError);
    CampaignConfig bad_prob;
    bad_prob.bugProbability = 1.5;
    EXPECT_THROW(flowTemplate(x86, bad_prob), ConfigError);
    CampaignConfig mesi_drill;
    mesi_drill.variant = PlatformVariant::Mesi;
    mesi_drill.dieAfterRuns = 3;
    EXPECT_THROW(flowTemplate(x86, mesi_drill), ConfigError);
}

/** The campaign digest of @p summaries (every deterministic field). */
std::string
digestOf(const std::vector<ConfigSummary> &summaries)
{
    std::ostringstream out, err;
    printCampaignReport(out, err, "test", summaries);
    return out.str();
}

/** One small campaign per platform knob CampaignConfig carries. */
std::vector<std::pair<std::string, CampaignConfig>>
platformKnobCampaigns()
{
    CampaignConfig base;
    base.iterations = 64;
    base.testsPerConfig = 3;
    base.runConventional = false;
    std::vector<std::pair<std::string, CampaignConfig>> out;
    CampaignConfig c = base;
    c.variant = PlatformVariant::Uniform;
    out.emplace_back("uniform", c);
    c = base;
    c.variant = PlatformVariant::Mesi;
    out.emplace_back("mesi", c);
    c = base;
    c.bug = BugKind::LsqNoSquash;
    c.bugProbability = 0.5;
    out.emplace_back("lsq-bug", c);
    c = base;
    c.model = MemoryModel::SC;
    out.emplace_back("sc-model", c);
    c = base;
    c.cacheLines = 2;
    out.emplace_back("cache-lines", c);
    return out;
}

TEST(Campaign, PlatformKnobsBitIdenticalAcrossThreadsAndResume)
{
    const std::vector<TestConfig> configs = {
        parseConfigName("x86-2-50-32"), parseConfigName("ARM-2-50-32")};
    const std::string journal =
        (std::filesystem::temp_directory_path() /
         ("mtc_campaign_knobs_" + std::to_string(::getpid())))
            .string();
    for (const auto &[name, campaign] : platformKnobCampaigns()) {
        SCOPED_TRACE(name);
        const std::string serial = digestOf(runCampaign(configs, campaign));

        CampaignConfig parallel = campaign;
        parallel.threads = 4;
        parallel.journalPath = journal;
        EXPECT_EQ(digestOf(runCampaign(configs, parallel)), serial);

        // Keep a prefix of the journal (plus a torn tail) and resume.
        std::filesystem::resize_file(
            journal, std::filesystem::file_size(journal) / 2 + 3);
        CampaignConfig resumed = campaign;
        resumed.journalPath = journal;
        resumed.resume = true;
        const auto after = runCampaign(configs, resumed);
        EXPECT_EQ(digestOf(after), serial);
        EXPECT_GT(after[0].replayedUnits + after[1].replayedUnits, 0u);
    }
    std::filesystem::remove(journal);
}

TEST(Campaign, ReportingExtrasStayOutOfTheDigest)
{
    // The first witness and the summed phase profile ride beside the
    // summary for the CLIs to print; neither may move a digest.
    CampaignConfig campaign;
    campaign.iterations = 64;
    campaign.testsPerConfig = 2;
    campaign.runConventional = false;
    campaign.bug = BugKind::LsqNoSquash;
    campaign.bugProbability = 0.5;
    const std::vector<TestConfig> configs = {
        parseConfigName("ARM-2-50-32")};
    const auto plain = runCampaign(configs, campaign);
    campaign.profile = true;
    const auto profiled = runCampaign(configs, campaign);
    EXPECT_EQ(digestOf(profiled), digestOf(plain));
    EXPECT_GT(plain[0].violations, 0u);
    EXPECT_FALSE(plain[0].violationWitness.empty());
    EXPECT_FALSE(plain[0].profile.enabled());
    EXPECT_TRUE(profiled[0].profile.enabled());
}

TEST(Campaign, ResumeWithoutAJournalIsAConfigError)
{
    CampaignConfig campaign;
    campaign.iterations = 32;
    campaign.testsPerConfig = 1;
    campaign.resume = true;
    EXPECT_THROW(runCampaign({parseConfigName("x86-2-50-32")}, campaign),
                 ConfigError);
}

TEST(Campaign, EnvOverrides)
{
    setenv("MTC_ITERATIONS", "777", 1);
    setenv("MTC_TESTS", "9", 1);
    setenv("MTC_SEED", "123456", 1);
    const CampaignConfig cfg = CampaignConfig::fromEnv();
    EXPECT_EQ(cfg.iterations, 777u);
    EXPECT_EQ(cfg.testsPerConfig, 9u);
    EXPECT_EQ(cfg.seed, 123456u);
    unsetenv("MTC_ITERATIONS");
    unsetenv("MTC_TESTS");
    unsetenv("MTC_SEED");

    const CampaignConfig defaults = CampaignConfig::fromEnv();
    EXPECT_EQ(defaults.iterations, CampaignConfig{}.iterations);
}

TEST(Campaign, EnvOverridesRejectGarbage)
{
    // strtoull's silent 0 for garbage used to turn MTC_ITERATIONS=abc
    // into a campaign measuring nothing; now it must fail fast with a
    // ConfigError naming the variable.
    const auto expect_rejected = [](const char *name,
                                    const char *value) {
        setenv(name, value, 1);
        try {
            (void)CampaignConfig::fromEnv();
            ADD_FAILURE() << name << "=" << value << " was accepted";
        } catch (const ConfigError &err) {
            EXPECT_NE(std::string(err.what()).find(name),
                      std::string::npos)
                << "error must name the variable: " << err.what();
        }
        unsetenv(name);
    };

    expect_rejected("MTC_ITERATIONS", "abc");
    expect_rejected("MTC_ITERATIONS", "0");
    expect_rejected("MTC_ITERATIONS", "12x");
    expect_rejected("MTC_ITERATIONS", "-5");
    expect_rejected("MTC_ITERATIONS", "");
    expect_rejected("MTC_TESTS", "lots");
    expect_rejected("MTC_TESTS", "0");
    expect_rejected("MTC_SEED", "two");

    // Seed zero is a legitimate seed and must still be accepted.
    setenv("MTC_SEED", "0", 1);
    EXPECT_EQ(CampaignConfig::fromEnv().seed, 0u);
    unsetenv("MTC_SEED");
}

TEST(Campaign, LinuxVariantRuns)
{
    CampaignConfig campaign;
    campaign.iterations = 64;
    campaign.testsPerConfig = 1;
    campaign.variant = PlatformVariant::Linux;
    campaign.runConventional = false;
    const ConfigSummary summary =
        runConfig(parseConfigName("ARM-2-50-32"), campaign);
    EXPECT_EQ(summary.tests, 1u);
    EXPECT_EQ(summary.violations, 0u);
}

TEST(Campaign, RunCampaignCoversAllConfigs)
{
    CampaignConfig campaign;
    campaign.iterations = 32;
    campaign.testsPerConfig = 1;
    campaign.runConventional = false;
    const std::vector<TestConfig> configs = {
        parseConfigName("x86-2-50-32"), parseConfigName("ARM-2-50-32")};
    const auto summaries = runCampaign(configs, campaign);
    ASSERT_EQ(summaries.size(), 2u);
    EXPECT_EQ(summaries[0].cfg.isa, Isa::X86);
    EXPECT_EQ(summaries[1].cfg.isa, Isa::ARMv7);
}

} // anonymous namespace
} // namespace mtc
