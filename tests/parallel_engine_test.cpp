/**
 * @file
 * Parallel validation engine tests: the engine's one hard promise is
 * that parallelism never changes results. Campaign summaries, flow
 * verdicts, and checker stats must be bit-identical at 1, 2, and 8
 * workers — with and without active fault injection. Plus unit
 * coverage for the ThreadPool itself (exception capture, bounded
 * queue, index coverage, in-order commits).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/signature_accumulator.h"
#include "harness/campaign.h"
#include "harness/validation_flow.h"
#include "sim/executor.h"
#include "support/thread_pool.h"
#include "testgen/generator.h"

namespace mtc
{
namespace
{

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
    EXPECT_EQ(a.avgOriginalKB, b.avgOriginalKB);
    EXPECT_EQ(a.avgInstrumentedKB, b.avgInstrumentedKB);
    EXPECT_EQ(a.collectiveWork, b.collectiveWork);
    EXPECT_EQ(a.conventionalWork, b.conventionalWork);
    EXPECT_EQ(a.collectiveGraphs, b.collectiveGraphs);
    EXPECT_EQ(a.collectiveCompleteSorts, b.collectiveCompleteSorts);
    EXPECT_EQ(a.fracComplete, b.fracComplete);
    EXPECT_EQ(a.fracNoResort, b.fracNoResort);
    EXPECT_EQ(a.fracIncremental, b.fracIncremental);
    EXPECT_EQ(a.avgAffectedFraction, b.avgAffectedFraction);
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

std::vector<ConfigSummary>
campaignAt(unsigned threads, CampaignConfig campaign)
{
    campaign.threads = threads;
    const std::vector<TestConfig> configs = {
        parseConfigName("x86-2-50-32"),
        parseConfigName("ARM-2-50-32"),
        parseConfigName("x86-4-50-64"),
    };
    return runCampaign(configs, campaign);
}

TEST(ParallelCampaign, SummariesBitIdenticalAcrossThreadCounts)
{
    CampaignConfig campaign;
    campaign.iterations = 96;
    campaign.testsPerConfig = 3;

    const auto serial = campaignAt(1, campaign);
    for (unsigned threads : {2u, 8u}) {
        const auto parallel = campaignAt(threads, campaign);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectSummariesIdentical(serial[i], parallel[i]);
    }
}

TEST(ParallelCampaign, IdenticalUnderActiveFaultInjection)
{
    // Fault injection plus K-re-execution confirmation exercises the
    // quarantine, reclassification, and crash-retry paths; they must
    // all stay scheduling-independent.
    CampaignConfig campaign;
    campaign.iterations = 128;
    campaign.testsPerConfig = 2;
    campaign.runConventional = false;
    campaign.fault.bitFlipRate = 0.02;
    campaign.fault.tornStoreRate = 0.01;
    campaign.fault.dropRate = 0.01;
    campaign.fault.duplicateRate = 0.01;
    campaign.recovery.confirmationRuns = 2;

    const auto serial = campaignAt(1, campaign);
    bool any_fault_activity = false;
    for (const ConfigSummary &s : serial)
        any_fault_activity = any_fault_activity ||
            s.injected.totalEvents() || s.quarantinedSignatures;
    EXPECT_TRUE(any_fault_activity)
        << "fault rates too low to exercise the fault paths";

    for (unsigned threads : {2u, 8u}) {
        const auto parallel = campaignAt(threads, campaign);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectSummariesIdentical(serial[i], parallel[i]);
    }
}

TEST(ParallelCampaign, RunConfigMatchesAcrossThreadCounts)
{
    CampaignConfig campaign;
    campaign.iterations = 64;
    campaign.testsPerConfig = 4;
    campaign.runConventional = false;
    const TestConfig cfg = parseConfigName("x86-2-100-32");

    campaign.threads = 1;
    const ConfigSummary serial = runConfig(cfg, campaign);
    campaign.threads = 8;
    const ConfigSummary parallel = runConfig(cfg, campaign);
    expectSummariesIdentical(serial, parallel);
}

TEST(ParallelCampaign, EnvOverridesParseParallelKnobs)
{
    setenv("MTC_THREADS", "4", 1);
    const CampaignConfig cfg = CampaignConfig::fromEnv();
    EXPECT_EQ(cfg.threads, 4u);
    unsetenv("MTC_THREADS");

    // Zero is meaningful (all hardware threads).
    setenv("MTC_THREADS", "0", 1);
    EXPECT_EQ(CampaignConfig::fromEnv().threads, 0u);
    unsetenv("MTC_THREADS");

    setenv("MTC_THREADS", "many", 1);
    EXPECT_THROW((void)CampaignConfig::fromEnv(), ConfigError);
    unsetenv("MTC_THREADS");
}

/** Flow-level determinism: the overlapped decode→check channel must
 * give one answer at any worker count. */
TEST(ParallelFlow, RunTestVerdictsAndStatsIdenticalAcrossThreads)
{
    const TestProgram program = generateTest(
        parseConfigName("x86-7-100-32 (16 words/line)"), 3);
    FlowConfig cfg;
    cfg.iterations = 96;
    cfg.exec = bareMetalConfig(Isa::X86);
    cfg.exec.bug = BugKind::LsqNoSquash; // make violations appear
    cfg.exec.bugProbability = 0.5;

    cfg.threads = 1;
    const FlowResult serial = ValidationFlow(cfg).runTest(program);
    ASSERT_TRUE(serial.anyViolation());

    for (unsigned threads : {2u, 8u}) {
        cfg.threads = threads;
        const FlowResult parallel =
            ValidationFlow(cfg).runTest(program);
        EXPECT_EQ(parallel.uniqueSignatures, serial.uniqueSignatures);
        EXPECT_EQ(parallel.violatingSignatures,
                  serial.violatingSignatures);
        EXPECT_EQ(parallel.assertionFailures,
                  serial.assertionFailures);
        EXPECT_EQ(parallel.collective.graphsChecked,
                  serial.collective.graphsChecked);
        EXPECT_EQ(parallel.collective.completeSorts,
                  serial.collective.completeSorts);
        EXPECT_EQ(parallel.collective.noResortNeeded,
                  serial.collective.noResortNeeded);
        EXPECT_EQ(parallel.collective.incrementalResorts,
                  serial.collective.incrementalResorts);
        EXPECT_EQ(parallel.collective.verticesProcessed,
                  serial.collective.verticesProcessed);
        EXPECT_EQ(parallel.collective.edgesProcessed,
                  serial.collective.edgesProcessed);
        EXPECT_EQ(parallel.violationWitness, serial.violationWitness);
        EXPECT_EQ(parallel.originalCycles, serial.originalCycles);
        EXPECT_EQ(parallel.sortCycles, serial.sortCycles);
    }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { ++hits[i]; });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstException)
{
    ThreadPool pool(3);
    std::atomic<int> completed{0};
    try {
        pool.parallelFor(100, [&](std::size_t i) {
            if (i == 17)
                throw std::runtime_error("boom");
            ++completed;
        });
        FAIL() << "exception was swallowed";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "boom");
    }
    // Every non-throwing index still ran (slots stay populated).
    EXPECT_EQ(completed.load(), 99);
}

TEST(ThreadPoolTest, ParallelForOrderedCommitsInIndexOrder)
{
    ThreadPool pool(4);
    std::vector<std::size_t> squares(200, 0);
    std::vector<std::size_t> committed;
    pool.parallelForOrdered(
        squares.size(),
        [&](std::size_t i) {
            // Some bodies finish after later ones, so completion order
            // is not index order.
            if (i % 7 == 0)
                std::this_thread::yield();
            squares[i] = i * i;
        },
        [&](std::size_t i) {
            EXPECT_EQ(squares[i], i * i); // its body has finished
            committed.push_back(i);
        });
    ASSERT_EQ(committed.size(), squares.size());
    for (std::size_t i = 0; i < committed.size(); ++i)
        EXPECT_EQ(committed[i], i);
}

TEST(ThreadPoolTest, ParallelForOrderedFailsAtTheFailingSlot)
{
    ThreadPool pool(3);
    for (const bool in_body : {true, false}) {
        std::vector<std::size_t> committed;
        try {
            pool.parallelForOrdered(
                1000,
                [&](std::size_t i) {
                    if (in_body && i == 40)
                        throw std::runtime_error("body 40");
                },
                [&](std::size_t i) {
                    if (!in_body && i == 40)
                        throw std::runtime_error("commit 40");
                    committed.push_back(i);
                });
            FAIL() << "exception was swallowed";
        } catch (const std::runtime_error &err) {
            EXPECT_STREQ(err.what(), in_body ? "body 40" : "commit 40");
        }
        // Exactly the slots before the failure committed.
        ASSERT_EQ(committed.size(), 40u);
        EXPECT_EQ(committed.back(), 39u);
    }
    // The pool stays usable after a failed ordered loop.
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, BoundedQueueSubmitDoesNotDeadlock)
{
    ThreadPool pool(2, /*queue_capacity=*/2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 64; ++i)
        pool.submit([&] { ++ran; });
    // Destructor drains the queue; recreate scope to force it.
    while (ran.load() < 64)
        std::this_thread::yield();
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, ResolveThreadsMapsZeroToHardware)
{
    EXPECT_GE(ThreadPool::resolveThreads(0), 1u);
    EXPECT_EQ(ThreadPool::resolveThreads(3), 3u);
}

TEST(SignatureAccumulatorTest, CountsAndSortsLikeAMap)
{
    SignatureAccumulator acc;
    const auto sig = [](std::uint64_t a, std::uint64_t b) {
        return Signature{{a, b}};
    };
    EXPECT_TRUE(acc.record(sig(2, 1)));
    EXPECT_TRUE(acc.record(sig(1, 9)));
    EXPECT_FALSE(acc.record(sig(2, 1), 3));
    EXPECT_TRUE(acc.record(sig(1, 2)));
    EXPECT_EQ(acc.uniqueCount(), 3u);

    const auto unique = acc.takeSortedUnique();
    ASSERT_EQ(unique.size(), 3u);
    EXPECT_EQ(unique[0].signature, sig(1, 2));
    EXPECT_EQ(unique[1].signature, sig(1, 9));
    EXPECT_EQ(unique[2].signature, sig(2, 1));
    EXPECT_EQ(unique[2].iterations, 4u);
    EXPECT_EQ(acc.uniqueCount(), 0u);
}

TEST(SignatureAccumulatorTest, SurvivesGrowthPastInitialCapacity)
{
    SignatureAccumulator acc;
    const std::size_t n = 10000;
    for (std::size_t i = 0; i < n; ++i)
        acc.record(Signature{{i * 2654435761u, i}});
    // Duplicates of every other entry.
    for (std::size_t i = 0; i < n; i += 2)
        acc.record(Signature{{i * 2654435761u, i}});
    EXPECT_EQ(acc.uniqueCount(), n);

    const auto unique = acc.takeSortedUnique();
    ASSERT_EQ(unique.size(), n);
    std::uint64_t total = 0;
    for (std::size_t i = 1; i < n; ++i)
        EXPECT_LT(unique[i - 1].signature, unique[i].signature);
    for (const SignatureCount &entry : unique)
        total += entry.iterations;
    EXPECT_EQ(total, n + n / 2);
}

} // anonymous namespace
} // namespace mtc
