/**
 * @file
 * The Timed engine against an independent reference scheduler
 * (timed_reference.h). The engine caches candidate times and re-times
 * only what a perform can change; the reference re-times everything
 * every step. Lane i of both must agree draw for draw — load values,
 * duration, coherence order, crash status and the next RNG draw —
 * through scalar runInto() and through a 32-lane runBatchInto(). The
 * cases cover what exercises the caches: capacity evictions (a second
 * dirty line per perform), false sharing, more lines than the 64-bit
 * line summary has bits, the widest reorder window, OS noise, and
 * every injected bug, including PUTX deadlocks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/executor.h"
#include "support/error.h"
#include "testgen/generator.h"
#include "testgen/test_config.h"
#include "timed_reference.h"

namespace mtc
{
namespace
{

constexpr std::uint32_t kLanes = 32;

struct OracleCase
{
    std::string label;
    std::string testConfig;
    ExecutorConfig exec;
};

/** What a case exercised, summed over its lanes. */
struct Coverage
{
    std::uint64_t crashed = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bugGates = 0;
    std::uint64_t preemptions = 0;
};

void
expectSameRun(const ReferenceTimedOutcome &ref, bool crashed,
              const Execution &execution, std::uint64_t next_draw,
              std::uint64_t ref_next_draw, const std::string &where)
{
    ASSERT_EQ(crashed, ref.crashed) << where;
    if (!crashed) {
        EXPECT_EQ(execution.loadValues, ref.execution.loadValues)
            << where;
        EXPECT_EQ(execution.duration, ref.execution.duration) << where;
        EXPECT_EQ(execution.coherenceOrder,
                  ref.execution.coherenceOrder)
            << where;
    }
    EXPECT_EQ(next_draw, ref_next_draw) << where;
}

/** Run @p c's lanes through the reference, scalar runInto() and one
 * kLanes-wide runBatchInto(), and compare every lane. */
Coverage
checkAgainstReference(const OracleCase &c, std::uint64_t program_seed)
{
    const TestProgram program =
        generateTest(parseConfigName(c.testConfig), program_seed);
    Rng master(program_seed ^ 0x5eedULL);
    std::vector<std::uint64_t> seeds(kLanes);
    for (std::uint64_t &seed : seeds)
        seed = master();

    Coverage coverage;
    std::vector<ReferenceTimedOutcome> ref(kLanes);
    std::vector<std::uint64_t> ref_next(kLanes);
    ReferenceTimedExecutor reference(c.exec);
    for (std::uint32_t l = 0; l < kLanes; ++l) {
        Rng rng(seeds[l]);
        ref[l] = reference.run(program, rng);
        ref_next[l] = rng();
        coverage.crashed += ref[l].crashed ? 1 : 0;
        coverage.evictions += ref[l].evictions;
        coverage.bugGates += ref[l].bugGates;
        coverage.preemptions += ref[l].preemptions;
    }

    OperationalExecutor scalar(c.exec);
    RunArena arena;
    for (std::uint32_t l = 0; l < kLanes; ++l) {
        Rng rng(seeds[l]);
        bool crashed = false;
        try {
            scalar.runInto(program, rng, arena, nullptr);
        } catch (const ProtocolDeadlockError &) {
            crashed = true;
        }
        expectSameRun(ref[l], crashed, arena.execution, rng(),
                      ref_next[l],
                      c.label + " scalar lane " + std::to_string(l));
    }

    OperationalExecutor batched(c.exec);
    std::vector<Rng> rngs(seeds.begin(), seeds.end());
    BatchRunArena batch;
    std::vector<LaneStatus> status(kLanes);
    batched.runBatchInto(program, rngs.data(), kLanes, batch, nullptr,
                         status.data());
    for (std::uint32_t l = 0; l < kLanes; ++l) {
        EXPECT_NE(status[l], LaneStatus::Hung) << c.label;
        expectSameRun(ref[l], status[l] == LaneStatus::Crashed,
                      batch.executions[l], rngs[l](), ref_next[l],
                      c.label + " batch lane " + std::to_string(l));
    }
    return coverage;
}

ExecutorConfig
withGroundTruth(ExecutorConfig exec)
{
    exec.exportCoherenceOrder = true;
    return exec;
}

TEST(TimedOracle, MatchesEngineAcrossPlatformMatrix)
{
    for (const bool os : {false, true}) {
        for (const Isa isa : {Isa::X86, Isa::ARMv7}) {
            const std::string prefix = isa == Isa::X86 ? "x86" : "ARM";
            ExecutorConfig exec = withGroundTruth(
                os ? osConfig(isa) : bareMetalConfig(isa));
            for (const std::uint32_t cache_lines : {0u, 2u}) {
                exec.timing.cacheLines = cache_lines;
                const OracleCase c{
                    std::string(os ? "os-" : "bare-") + prefix +
                        " cacheLines=" + std::to_string(cache_lines),
                    prefix + "-4-60-16 (4 words/line)", exec};
                const Coverage cov = checkAgainstReference(c, 3);
                EXPECT_EQ(cov.crashed, 0u) << c.label;
                if (cache_lines != 0) {
                    EXPECT_GT(cov.evictions, 0u) << c.label;
                }
                if (os) {
                    EXPECT_GT(cov.preemptions, 0u) << c.label;
                }
            }
        }
    }
}

TEST(TimedOracle, MatchesEngineWithAliasedLinesAndWidestWindow)
{
    for (const Isa isa : {Isa::X86, Isa::ARMv7}) {
        const std::string prefix = isa == Isa::X86 ? "x86" : "ARM";
        ExecutorConfig exec = withGroundTruth(bareMetalConfig(isa));
        // 128 one-word lines: lines l and l+64 share a summary bit.
        for (const std::uint32_t cache_lines : {0u, 2u}) {
            exec.timing.cacheLines = cache_lines;
            checkAgainstReference(
                {prefix + " 128 lines cacheLines=" +
                     std::to_string(cache_lines),
                 prefix + "-4-100-128", exec},
                5);
        }
        exec.timing.cacheLines = 2;
        exec.reorderWindow = kMaxReorderWindow;
        checkAgainstReference(
            {prefix + " window 32", prefix + "-3-80-32 (4 words/line)",
             exec},
            7);
    }
}

TEST(TimedOracle, MatchesEngineUnderEveryInjectedBug)
{
    struct BugCase
    {
        BugKind bug;
        double probability;
    };
    for (const BugCase b : {BugCase{BugKind::StaleLoadOnUpgrade, 0.5},
                            BugCase{BugKind::LsqNoSquash, 0.5},
                            BugCase{BugKind::PutxGetxRace, 0.05}}) {
        for (const Isa isa : {Isa::X86, Isa::ARMv7}) {
            const std::string prefix = isa == Isa::X86 ? "x86" : "ARM";
            ExecutorConfig exec = withGroundTruth(bareMetalConfig(isa));
            exec.bug = b.bug;
            exec.bugProbability = b.probability;
            exec.timing.cacheLines = 2;
            const OracleCase c{
                prefix + " bug " +
                    std::to_string(static_cast<int>(b.bug)),
                prefix + "-4-60-16 (4 words/line)", exec};
            const Coverage cov = checkAgainstReference(c, 11);
            EXPECT_GT(cov.bugGates, 0u) << c.label;
            if (b.bug == BugKind::PutxGetxRace) {
                // Some lanes deadlock and some finish.
                EXPECT_GT(cov.crashed, 0u) << c.label;
                EXPECT_LT(cov.crashed, kLanes) << c.label;
            } else {
                EXPECT_EQ(cov.crashed, 0u) << c.label;
            }
        }
    }
}

} // anonymous namespace
} // namespace mtc
