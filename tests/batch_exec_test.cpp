/**
 * @file
 * Batched lockstep engine guarantees. The one hard promise of the
 * batch engine is bit-identity: lane i of runBatchInto() must consume
 * RNG stream i draw-for-draw exactly as scalar runInto() would, at
 * every batch width, on every policy/ISA/config, under crash drills,
 * injected protocol deadlocks, and cancellation. On top of that, the
 * flow's batched inner loop and the campaign layers must produce
 * bit-identical summaries at any --batch x --threads x execution-mode
 * combination, including journaled resume. These tests are also the
 * cross-lane aliasing regression net for the SoA run state: any lane
 * reading another lane's slice breaks per-lane equality with the
 * scalar engine immediately.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/campaign.h"
#include "harness/validation_flow.h"
#include "sim/coherent_executor.h"
#include "sim/executor.h"
#include "support/cancellation.h"
#include "support/error.h"
#include "testgen/generator.h"
#include "testgen/test_config.h"

namespace mtc
{
namespace
{

namespace fs = std::filesystem;

/** Unique scratch path that cleans up after itself. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : p((fs::temp_directory_path() /
             ("mtc_batch_" + name + "_" +
              std::to_string(static_cast<std::uint64_t>(::getpid()))))
                .string())
    {
        std::remove(p.c_str());
    }

    ~TempFile() { std::remove(p.c_str()); }

    const std::string &path() const { return p; }

  private:
    std::string p;
};

/** What one scalar runInto() produced for one lane seed. */
struct ScalarOutcome
{
    bool crashed = false;
    std::string crashWhat;
    Execution execution;
    std::uint64_t nextDraw = 0; ///< first RNG draw after the run
};

/** Reference results: one scalar run per lane seed, in lane order. */
std::vector<ScalarOutcome>
scalarReference(const TestProgram &program, Platform &platform,
                const std::vector<std::uint64_t> &seeds)
{
    std::vector<ScalarOutcome> outcomes(seeds.size());
    RunArena arena;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        Rng rng(seeds[i]);
        try {
            platform.runInto(program, rng, arena, nullptr);
            outcomes[i].execution = arena.execution;
        } catch (const ProtocolDeadlockError &err) {
            outcomes[i].crashed = true;
            outcomes[i].crashWhat = err.what();
        }
        outcomes[i].nextDraw = rng();
    }
    return outcomes;
}

std::vector<ScalarOutcome>
scalarReference(const TestProgram &program, const ExecutorConfig &exec,
                const std::vector<std::uint64_t> &seeds)
{
    OperationalExecutor platform(exec);
    return scalarReference(program, platform, seeds);
}

/** Lane seeds exactly as the flow derives them: one master draw per
 * iteration, in iteration order. */
std::vector<std::uint64_t>
laneSeeds(std::uint64_t master_seed, std::size_t lanes)
{
    Rng master(master_seed);
    std::vector<std::uint64_t> seeds(lanes);
    for (std::size_t i = 0; i < lanes; ++i)
        seeds[i] = master();
    return seeds;
}

struct EngineCase
{
    const char *label;
    const char *testConfig;
    ExecutorConfig exec;
};

/** Both policies, both ISAs, bare-metal and OS-jitter variants, plus
 * the SC reference simulator (UniformRandom with exported coherence
 * order). */
std::vector<EngineCase>
engineMatrix()
{
    return {
        {"bare-x86", "x86-4-50-16", bareMetalConfig(Isa::X86)},
        {"bare-arm", "ARM-4-50-16", bareMetalConfig(Isa::ARMv7)},
        {"os-x86", "x86-4-50-16", osConfig(Isa::X86)},
        {"os-arm", "ARM-4-50-16", osConfig(Isa::ARMv7)},
        {"sc-reference", "x86-4-50-16", scReferenceConfig()},
    };
}

// --- Engine-level bit-identity ----------------------------------------

TEST(BatchEngine, LanesBitIdenticalToScalarAcrossMatrix)
{
    for (const EngineCase &c : engineMatrix()) {
        const TestProgram program =
            generateTest(parseConfigName(c.testConfig), 7);
        for (std::uint32_t lanes : {1u, 2u, 7u, 32u}) {
            const std::vector<std::uint64_t> seeds =
                laneSeeds(2017, lanes);
            const std::vector<ScalarOutcome> scalar =
                scalarReference(program, c.exec, seeds);

            OperationalExecutor platform(c.exec);
            std::vector<Rng> rngs;
            for (std::uint64_t seed : seeds)
                rngs.emplace_back(seed);
            BatchRunArena batch;
            std::vector<LaneStatus> status(lanes);
            platform.runBatchInto(program, rngs.data(), lanes, batch,
                                  nullptr, status.data());

            for (std::uint32_t l = 0; l < lanes; ++l) {
                ASSERT_FALSE(scalar[l].crashed)
                    << c.label << " lane " << l;
                ASSERT_EQ(status[l], LaneStatus::Completed)
                    << c.label << " lane " << l << " of " << lanes;
                EXPECT_EQ(batch.executions[l].loadValues,
                          scalar[l].execution.loadValues)
                    << c.label << " lane " << l << " of " << lanes;
                EXPECT_EQ(batch.executions[l].duration,
                          scalar[l].execution.duration)
                    << c.label << " lane " << l << " of " << lanes;
                EXPECT_EQ(batch.executions[l].coherenceOrder,
                          scalar[l].execution.coherenceOrder)
                    << c.label << " lane " << l << " of " << lanes;
                // Draw-for-draw identity: the lane's stream must stand
                // exactly where the scalar run left it.
                EXPECT_EQ(rngs[l](), scalar[l].nextDraw)
                    << c.label << " lane " << l << " of " << lanes;
            }
        }
    }
}

TEST(BatchEngine, InjectedDeadlocksCrashTheSameLanesAsScalar)
{
    // Partial-probability PUTX/GETX races: some lanes deadlock, some
    // complete. The crash pattern, the crash messages, and every
    // surviving lane's results and RNG position must match the scalar
    // engine exactly.
    ExecutorConfig exec = bareMetalConfig(Isa::X86);
    exec.bug = BugKind::PutxGetxRace;
    exec.bugProbability = 0.02;
    exec.timing.cacheLines = 4; // tiny L1 intensifies evictions
    const TestProgram program = generateTest(
        parseConfigName("x86-7-200-64 (4 words/line)"), 11);

    const std::uint32_t lanes = 32;
    const std::vector<std::uint64_t> seeds = laneSeeds(31337, lanes);
    const std::vector<ScalarOutcome> scalar =
        scalarReference(program, exec, seeds);

    std::size_t crashed = 0;
    for (const ScalarOutcome &o : scalar)
        crashed += o.crashed ? 1 : 0;
    ASSERT_GT(crashed, 0u) << "bug probability too low for this seed";
    ASSERT_LT(crashed, static_cast<std::size_t>(lanes))
        << "bug probability too high for this seed";

    OperationalExecutor platform(exec);
    std::vector<Rng> rngs;
    for (std::uint64_t seed : seeds)
        rngs.emplace_back(seed);
    BatchRunArena batch;
    std::vector<LaneStatus> status(lanes);
    platform.runBatchInto(program, rngs.data(), lanes, batch, nullptr,
                          status.data());

    for (std::uint32_t l = 0; l < lanes; ++l) {
        if (scalar[l].crashed) {
            EXPECT_EQ(status[l], LaneStatus::Crashed) << "lane " << l;
            EXPECT_EQ(batch.crashMessage(l), scalar[l].crashWhat)
                << "lane " << l;
        } else {
            ASSERT_EQ(status[l], LaneStatus::Completed) << "lane " << l;
            EXPECT_EQ(batch.executions[l].loadValues,
                      scalar[l].execution.loadValues)
                << "lane " << l;
            EXPECT_EQ(rngs[l](), scalar[l].nextDraw) << "lane " << l;
        }
    }
}

TEST(BatchEngine, CrashDrillLaneConsumesNoRngAndLeavesOthersIntact)
{
    // crashOnRun counts platform runs; in a batch, lane N-1 is the Nth
    // run. The drilled lane must crash without touching its RNG stream
    // (scalar runInto throws before any draw) and every other lane
    // must match a drill-free scalar run.
    ExecutorConfig exec = bareMetalConfig(Isa::ARMv7);
    const TestProgram program =
        generateTest(parseConfigName("ARM-4-50-16"), 23);
    const std::uint32_t lanes = 6;
    const std::vector<std::uint64_t> seeds = laneSeeds(99, lanes);
    const std::vector<ScalarOutcome> clean =
        scalarReference(program, exec, seeds);

    ExecutorConfig drilled = exec;
    drilled.crashOnRun = 3;
    OperationalExecutor platform(drilled);
    std::vector<Rng> rngs;
    for (std::uint64_t seed : seeds)
        rngs.emplace_back(seed);
    BatchRunArena batch;
    std::vector<LaneStatus> status(lanes);
    platform.runBatchInto(program, rngs.data(), lanes, batch, nullptr,
                          status.data());

    for (std::uint32_t l = 0; l < lanes; ++l) {
        if (l == 2) {
            EXPECT_EQ(status[l], LaneStatus::Crashed);
            EXPECT_NE(batch.crashMessage(l).find("crash drill"),
                      std::string::npos);
            // The lane never ran: its stream is still at the origin.
            Rng untouched(seeds[l]);
            EXPECT_EQ(rngs[l](), untouched());
            continue;
        }
        ASSERT_EQ(status[l], LaneStatus::Completed) << "lane " << l;
        EXPECT_EQ(batch.executions[l].loadValues,
                  clean[l].execution.loadValues)
            << "lane " << l;
        EXPECT_EQ(rngs[l](), clean[l].nextDraw) << "lane " << l;
    }
}

TEST(BatchEngine, CancellationMarksOnlyActiveLanesHung)
{
    // A pre-fired watchdog token abandons every lane that actually
    // runs — but a lane retired at dispatch (here: the crash drill)
    // keeps its own status and message, and results of an earlier,
    // uncancelled dispatch are unaffected.
    ExecutorConfig exec = bareMetalConfig(Isa::X86);
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-16"), 5);
    const std::uint32_t lanes = 4;
    const std::vector<std::uint64_t> seeds = laneSeeds(4242, lanes);

    ExecutorConfig drilled = exec;
    drilled.crashOnRun = 2;
    OperationalExecutor platform(drilled);

    // Dispatch 1: no cancellation; everything but the drilled lane
    // completes.
    std::vector<Rng> rngs;
    for (std::uint64_t seed : seeds)
        rngs.emplace_back(seed);
    BatchRunArena batch;
    std::vector<LaneStatus> first(lanes);
    platform.runBatchInto(program, rngs.data(), lanes, batch, nullptr,
                          first.data());
    ASSERT_EQ(first[1], LaneStatus::Crashed);
    std::vector<Execution> kept;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        if (l != 1) {
            ASSERT_EQ(first[l], LaneStatus::Completed);
            kept.push_back(batch.executions[l]);
        }
    }

    // Dispatch 2: token already fired. The drill is spent, so every
    // lane is active — and every lane must be marked Hung with the
    // watchdog's message, while dispatch 1's statuses and copied
    // results stay what they were.
    CancellationToken cancel;
    cancel.requestStop();
    std::vector<Rng> rngs2;
    for (std::uint64_t seed : seeds)
        rngs2.emplace_back(seed);
    std::vector<LaneStatus> second(lanes);
    platform.runBatchInto(program, rngs2.data(), lanes, batch, &cancel,
                          second.data());
    for (std::uint32_t l = 0; l < lanes; ++l)
        EXPECT_EQ(second[l], LaneStatus::Hung) << "lane " << l;
    EXPECT_NE(batch.hangMessage().find("deadline"), std::string::npos);
    EXPECT_EQ(first[1], LaneStatus::Crashed);
    ASSERT_EQ(kept.size(), 3u);
    for (const Execution &e : kept)
        EXPECT_FALSE(e.loadValues.empty());

    // Crash drill + cancellation in one dispatch: the drilled lane is
    // retired before stepping and must stay Crashed, not Hung.
    OperationalExecutor fresh(drilled);
    std::vector<Rng> rngs3;
    for (std::uint64_t seed : seeds)
        rngs3.emplace_back(seed);
    std::vector<LaneStatus> third(lanes);
    fresh.runBatchInto(program, rngs3.data(), lanes, batch, &cancel,
                       third.data());
    for (std::uint32_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(third[l],
                  l == 1 ? LaneStatus::Crashed : LaneStatus::Hung)
            << "lane " << l;
    }
}

// --- Flow-level batch-width invariance --------------------------------

void
expectFlowsIdentical(const FlowResult &a, const FlowResult &b,
                     const std::string &label)
{
    EXPECT_EQ(a.iterationsRun, b.iterationsRun) << label;
    EXPECT_EQ(a.uniqueSignatures, b.uniqueSignatures) << label;
    EXPECT_EQ(a.signatureSetDigest, b.signatureSetDigest) << label;
    EXPECT_EQ(a.violatingSignatures, b.violatingSignatures) << label;
    EXPECT_EQ(a.assertionFailures, b.assertionFailures) << label;
    EXPECT_EQ(a.platformCrashes, b.platformCrashes) << label;
    EXPECT_EQ(a.fault.recordedIterations, b.fault.recordedIterations)
        << label;
    EXPECT_EQ(a.fault.quarantinedCount(), b.fault.quarantinedCount())
        << label;
    EXPECT_EQ(a.fault.transientViolations, b.fault.transientViolations)
        << label;
    EXPECT_EQ(a.collective.edgesProcessed, b.collective.edgesProcessed)
        << label;
}

TEST(BatchFlow, SummariesInvariantAcrossBatchWidths)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-100-64"), 13);
    FlowConfig base;
    base.iterations = 256;
    base.seed = 77;
    base.exec = bareMetalConfig(Isa::X86);
    base.runConventional = false;

    FlowConfig scalar_cfg = base;
    scalar_cfg.batch = 1;
    const FlowResult scalar = ValidationFlow(scalar_cfg).runTest(program);
    EXPECT_GT(scalar.uniqueSignatures, 1u);

    for (std::uint32_t width : {0u, 2u, 7u, 32u}) {
        FlowConfig cfg = base;
        cfg.batch = width;
        const FlowResult batched = ValidationFlow(cfg).runTest(program);
        expectFlowsIdentical(scalar, batched,
                             "batch " + std::to_string(width));
    }
}

TEST(BatchFlow, InvariantUnderFaultInjectionAndConfirmation)
{
    const TestProgram program =
        generateTest(parseConfigName("ARM-4-50-32"), 17);
    FlowConfig base;
    base.iterations = 192;
    base.seed = 3;
    base.exec = osConfig(Isa::ARMv7);
    base.runConventional = false;
    base.fault.bitFlipRate = 0.02;
    base.fault.dropRate = 0.01;
    base.fault.duplicateRate = 0.01;
    base.recovery.confirmationRuns = 2;

    FlowConfig scalar_cfg = base;
    scalar_cfg.batch = 1;
    const FlowResult scalar = ValidationFlow(scalar_cfg).runTest(program);
    EXPECT_TRUE(scalar.fault.injected.totalEvents() ||
                scalar.fault.quarantinedCount())
        << "fault rates too low to exercise the fault paths";

    for (std::uint32_t width : {7u, 32u}) {
        FlowConfig cfg = base;
        cfg.batch = width;
        const FlowResult batched = ValidationFlow(cfg).runTest(program);
        expectFlowsIdentical(scalar, batched,
                             "batch " + std::to_string(width));
    }
}

TEST(BatchFlow, CoherentPlatformBatchesThroughGenericFallback)
{
    // The message-level platform has no lockstep engine, and the flow
    // dispatches it one lane at a time; its batches run through
    // Platform's sequential per-lane fallback, which must be just as
    // bit-identical to scalar runs — crashed lanes included.
    const TestProgram program =
        generateTest(parseConfigName("x86-2-50-32"), 19);
    CoherentConfig racy = gem5LikeConfig();
    racy.bug = BugKind::PutxGetxRace;
    racy.bugProbability = 0.04;
    racy.cacheLines = 2;
    const struct
    {
        const char *label;
        CoherentConfig config;
    } cases[] = {{"clean", gem5LikeConfig()}, {"putx race", racy}};

    const std::uint32_t lanes = 8;
    const std::vector<std::uint64_t> seeds = laneSeeds(21, lanes);
    for (const auto &c : cases) {
        CoherentExecutor reference(c.config);
        const std::vector<ScalarOutcome> scalar =
            scalarReference(program, reference, seeds);
        std::size_t crashed = 0;
        for (const ScalarOutcome &o : scalar)
            crashed += o.crashed ? 1 : 0;
        if (c.config.bug != BugKind::None) {
            ASSERT_GT(crashed, 0u) << "no lane deadlocked at this seed";
            ASSERT_LT(crashed, static_cast<std::size_t>(lanes))
                << "every lane deadlocked at this seed";
        }

        CoherentExecutor platform(c.config);
        std::vector<Rng> rngs;
        for (std::uint64_t seed : seeds)
            rngs.emplace_back(seed);
        BatchRunArena batch;
        std::vector<LaneStatus> status(lanes);
        platform.runBatchInto(program, rngs.data(), lanes, batch,
                              nullptr, status.data());

        for (std::uint32_t l = 0; l < lanes; ++l) {
            if (scalar[l].crashed) {
                EXPECT_EQ(status[l], LaneStatus::Crashed)
                    << c.label << " lane " << l;
                EXPECT_EQ(batch.crashMessage(l), scalar[l].crashWhat)
                    << c.label << " lane " << l;
                continue;
            }
            ASSERT_EQ(status[l], LaneStatus::Completed)
                << c.label << " lane " << l;
            EXPECT_EQ(batch.executions[l].loadValues,
                      scalar[l].execution.loadValues)
                << c.label << " lane " << l;
            EXPECT_EQ(batch.executions[l].coherenceOrder,
                      scalar[l].execution.coherenceOrder)
                << c.label << " lane " << l;
            EXPECT_EQ(rngs[l](), scalar[l].nextDraw)
                << c.label << " lane " << l;
        }
    }
}

// --- Campaign-level invariance ----------------------------------------

/** Compare every deterministic field of two summaries (wall-clock ms
 * fields are the only legitimate divergence between runs). */
void
expectSummariesIdentical(const ConfigSummary &a, const ConfigSummary &b)
{
    EXPECT_EQ(a.tests, b.tests);
    EXPECT_EQ(a.avgUniqueSignatures, b.avgUniqueSignatures);
    EXPECT_EQ(a.avgSignatureBytes, b.avgSignatureBytes);
    EXPECT_EQ(a.avgUnrelatedAccesses, b.avgUnrelatedAccesses);
    EXPECT_EQ(a.avgCodeRatio, b.avgCodeRatio);
    EXPECT_EQ(a.collectiveWork, b.collectiveWork);
    EXPECT_EQ(a.conventionalWork, b.conventionalWork);
    EXPECT_EQ(a.collectiveGraphs, b.collectiveGraphs);
    EXPECT_EQ(a.collectiveCompleteSorts, b.collectiveCompleteSorts);
    EXPECT_EQ(a.avgComputationOverhead, b.avgComputationOverhead);
    EXPECT_EQ(a.avgSortingOverhead, b.avgSortingOverhead);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.injected.totalEvents(), b.injected.totalEvents());
    EXPECT_EQ(a.quarantinedSignatures, b.quarantinedSignatures);
    EXPECT_EQ(a.quarantinedIterations, b.quarantinedIterations);
    EXPECT_EQ(a.confirmedViolations, b.confirmedViolations);
    EXPECT_EQ(a.transientViolations, b.transientViolations);
    EXPECT_EQ(a.crashRetries, b.crashRetries);
    EXPECT_EQ(a.testRetriesUsed, b.testRetriesUsed);
    EXPECT_EQ(a.failedTests, b.failedTests);
    EXPECT_EQ(a.degraded, b.degraded);
}

std::vector<TestConfig>
campaignConfigs()
{
    return {parseConfigName("x86-2-50-32"),
            parseConfigName("ARM-2-50-32")};
}

CampaignConfig
baseCampaign()
{
    CampaignConfig campaign;
    campaign.iterations = 64;
    campaign.testsPerConfig = 2;
    campaign.runConventional = false;
    return campaign;
}

TEST(BatchCampaign, SummariesInvariantAcrossBatchThreadsAndMode)
{
    CampaignConfig baseline_cfg = baseCampaign();
    baseline_cfg.batch = 1;
    const auto baseline = runCampaign(campaignConfigs(), baseline_cfg);

    struct Variant
    {
        std::uint32_t batch;
        unsigned threads;
        ExecutionMode mode;
    };
    const std::vector<Variant> variants = {
        {8, 1, ExecutionMode::InProcess},
        {32, 4, ExecutionMode::InProcess},
        {8, 2, ExecutionMode::Sandboxed},
    };
    for (const Variant &v : variants) {
        CampaignConfig campaign = baseCampaign();
        campaign.batch = v.batch;
        campaign.threads = v.threads;
        campaign.mode = v.mode;
        const auto run = runCampaign(campaignConfigs(), campaign);
        ASSERT_EQ(run.size(), baseline.size());
        for (std::size_t i = 0; i < baseline.size(); ++i)
            expectSummariesIdentical(baseline[i], run[i]);
    }
}

TEST(BatchCampaign, JournaledResumeInvariantAcrossBatchWidths)
{
    // A journal written at one batch width must resume — and replay to
    // a bit-identical summary — at another: batch is operational, not
    // part of the campaign identity.
    const auto baseline = runCampaign(campaignConfigs(), [] {
        CampaignConfig c = baseCampaign();
        c.batch = 1;
        return c;
    }());

    TempFile journal("resume_width");
    CampaignConfig writer = baseCampaign();
    writer.batch = 8;
    writer.journalPath = journal.path();
    const auto first = runCampaign(campaignConfigs(), writer);
    ASSERT_EQ(first.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i)
        expectSummariesIdentical(baseline[i], first[i]);

    CampaignConfig resumer = baseCampaign();
    resumer.batch = 32;
    resumer.threads = 2;
    resumer.journalPath = journal.path();
    resumer.resume = true;
    const auto resumed = runCampaign(campaignConfigs(), resumer);
    ASSERT_EQ(resumed.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i)
        expectSummariesIdentical(baseline[i], resumed[i]);
}

TEST(BatchCampaign, DistributedSummaryMatchesScalarInProcess)
{
    // Distributed workers rebuild their flows from the shipped spec
    // (which excludes operational knobs), so their default batched
    // loop must reproduce the coordinator-side scalar summary.
    const auto baseline = runCampaign(campaignConfigs(), [] {
        CampaignConfig c = baseCampaign();
        c.batch = 1;
        return c;
    }());

    CampaignConfig dist = baseCampaign();
    dist.batch = 8;
    dist.mode = ExecutionMode::Distributed;
    dist.distWorkers = 2;
    const auto run = runCampaign(campaignConfigs(), dist);
    ASSERT_EQ(run.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i)
        expectSummariesIdentical(baseline[i], run[i]);
}

} // anonymous namespace
} // namespace mtc
