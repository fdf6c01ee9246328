/**
 * @file
 * Tests for the message-level MESI directory-coherence platform:
 * model soundness under protocol races, litmus reachability, data
 * correctness, capacity evictions, determinism, and the protocol-level
 * bug injections.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "core/conventional_checker.h"
#include "graph/graph_builder.h"
#include "sim/coherent_executor.h"
#include "support/error.h"
#include "testgen/generator.h"
#include "testgen/litmus.h"

namespace mtc
{
namespace
{

// std::string, not const char *: see ExecutorSoundness in executor_test.
using SoundnessParam = std::tuple<std::string, MemoryModel,
                                  std::uint32_t /*cacheLines*/>;

class CoherentSoundness
    : public ::testing::TestWithParam<SoundnessParam>
{
};

TEST_P(CoherentSoundness, NeverViolatesOwnModel)
{
    const auto [config_name, model, cache_lines] = GetParam();
    const TestProgram program =
        generateTest(parseConfigName(config_name), 21);

    CoherentConfig cfg;
    cfg.model = model;
    cfg.reorderWindow = model == MemoryModel::SC ? 1 : 8;
    cfg.cacheLines = cache_lines;
    CoherentExecutor platform(cfg);

    ConventionalChecker checker(program, model);
    ConventionalStats stats;
    Rng rng(31);
    for (int run = 0; run < 40; ++run) {
        const Execution execution = platform.run(program, rng);
        const DynamicEdgeSet edges = dynamicEdges(program, execution);
        EXPECT_FALSE(checker.checkOne(edges, stats))
            << config_name << " under " << modelName(model);
    }
    EXPECT_EQ(stats.violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoherentSoundness,
    ::testing::Values(
        SoundnessParam{"x86-2-50-8", MemoryModel::TSO, 0},
        SoundnessParam{"x86-4-50-16", MemoryModel::TSO, 0},
        SoundnessParam{"x86-7-100-32 (16 words/line)", MemoryModel::TSO,
                       0},
        SoundnessParam{"x86-4-100-64 (4 words/line)", MemoryModel::TSO,
                       4},
        SoundnessParam{"ARM-4-50-16", MemoryModel::RMO, 0},
        SoundnessParam{"x86-2-50-8", MemoryModel::SC, 0}),
    [](const ::testing::TestParamInfo<SoundnessParam> &info) {
        std::string name = std::get<0>(info.param);
        std::string clean;
        for (char c : name)
            if (std::isalnum(static_cast<unsigned char>(c)))
                clean += c;
        return clean + modelName(std::get<1>(info.param)) + "c" +
            std::to_string(std::get<2>(info.param));
    });

TEST(CoherentExecutor, DeterministicGivenSeed)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-16"), 5);
    CoherentConfig cfg = gem5LikeConfig();
    CoherentExecutor a(cfg), b(cfg);
    Rng ra(9), rb(9);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(a.run(program, ra).loadValues,
                  b.run(program, rb).loadValues);
}

TEST(CoherentExecutor, StoreBufferingReachableUnderTso)
{
    const TestProgram sb = litmus::storeBuffering();
    CoherentExecutor platform(gem5LikeConfig());
    Rng rng(1);
    std::set<std::vector<std::uint32_t>> outcomes;
    for (int i = 0; i < 1000; ++i)
        outcomes.insert(platform.run(sb, rng).loadValues);
    EXPECT_TRUE(outcomes.count({kInitValue, kInitValue}))
        << "TSO store buffering must be observable";
}

TEST(CoherentExecutor, FencedStoreBufferingForbidden)
{
    const TestProgram fenced = litmus::storeBufferingFenced();
    CoherentExecutor platform(gem5LikeConfig());
    Rng rng(2);
    for (int i = 0; i < 500; ++i) {
        const Execution e = platform.run(fenced, rng);
        EXPECT_FALSE(e.loadValues[0] == kInitValue &&
                     e.loadValues[1] == kInitValue)
            << "fences must forbid the relaxed outcome";
    }
}

TEST(CoherentExecutor, MessagePassingIntactUnderTso)
{
    const TestProgram mp = litmus::messagePassing();
    const std::uint32_t flag = mp.op(OpId{0, 1}).value;
    CoherentExecutor platform(gem5LikeConfig());
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const Execution e = platform.run(mp, rng);
        if (e.loadValues[0] == flag) {
            EXPECT_NE(e.loadValues[1], kInitValue)
                << "TSO forbids flag-set/data-stale";
        }
    }
}

TEST(CoherentExecutor, SingleThreadReadsOwnStores)
{
    // Sequential per-thread semantics: a single core must observe its
    // own writes through any number of evictions.
    TestConfig cfg;
    cfg.numThreads = 1;
    cfg.opsPerThread = 60;
    cfg.numLocations = 16;
    cfg.wordsPerLine = 4;
    const TestProgram program = generateTest(cfg, 8);

    CoherentConfig coh = gem5LikeConfig();
    coh.cacheLines = 2; // force evictions
    CoherentExecutor platform(coh);
    Rng rng(4);
    const Execution e = platform.run(program, rng);

    // Replay sequentially to compute expected values.
    std::vector<std::uint32_t> mem(cfg.numLocations, kInitValue);
    const auto &body = program.threadBodies()[0];
    for (std::uint32_t idx = 0; idx < body.size(); ++idx) {
        if (body[idx].kind == OpKind::Store) {
            mem[body[idx].loc] = body[idx].value;
        } else if (body[idx].kind == OpKind::Load) {
            EXPECT_EQ(e.loadValues[program.loadOrdinal(OpId{0, idx})],
                      mem[body[idx].loc])
                << "op " << idx;
        }
    }
}

TEST(CoherentExecutor, CoherenceOrderExportConsistent)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-8"), 11);
    CoherentConfig cfg = gem5LikeConfig();
    cfg.exportCoherenceOrder = true;
    CoherentExecutor platform(cfg);
    Rng rng(12);
    const Execution e = platform.run(program, rng);
    ASSERT_EQ(e.coherenceOrder.size(), 8u);
    for (std::uint32_t loc = 0; loc < 8; ++loc) {
        std::multiset<OpId> got(e.coherenceOrder[loc].begin(),
                                e.coherenceOrder[loc].end());
        const auto &want = program.storesTo(loc);
        EXPECT_EQ(got, std::multiset<OpId>(want.begin(), want.end()));
    }
}

TEST(CoherentExecutor, ConfigValidation)
{
    CoherentConfig cfg;
    cfg.reorderWindow = 0;
    EXPECT_THROW(CoherentExecutor{cfg}, ConfigError);
    cfg = CoherentConfig{};
    cfg.bugProbability = -1.0;
    EXPECT_THROW(CoherentExecutor{cfg}, ConfigError);
}

TEST(CoherentBugs, LsqNoSquashDetected)
{
    const TestProgram program = generateTest(
        parseConfigName("x86-7-200-32 (16 words/line)"), 3);
    CoherentConfig cfg = gem5LikeConfig();
    cfg.bug = BugKind::LsqNoSquash;
    cfg.bugProbability = 0.5;
    CoherentExecutor platform(cfg);
    ConventionalChecker checker(program, cfg.model);
    ConventionalStats stats;
    Rng rng(1);
    bool detected = false;
    for (int i = 0; i < 30 && !detected; ++i) {
        const Execution e = platform.run(program, rng);
        detected = checker.checkOne(dynamicEdges(program, e), stats);
    }
    EXPECT_TRUE(detected);
}

TEST(CoherentBugs, StaleLoadOnUpgradeDetected)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-8 (4 words/line)"), 4);
    CoherentConfig cfg = gem5LikeConfig();
    cfg.bug = BugKind::StaleLoadOnUpgrade;
    cfg.bugProbability = 1.0;
    CoherentExecutor platform(cfg);
    ConventionalChecker checker(program, cfg.model);
    ConventionalStats stats;
    Rng rng(2);
    bool detected = false;
    for (int i = 0; i < 150 && !detected; ++i) {
        const Execution e = platform.run(program, rng);
        detected = checker.checkOne(dynamicEdges(program, e), stats);
    }
    EXPECT_TRUE(detected);
}

TEST(CoherentBugs, PutxGetxRaceDeadlocks)
{
    const TestProgram program = generateTest(
        parseConfigName("x86-7-200-64 (4 words/line)"), 5);
    CoherentConfig cfg = gem5LikeConfig();
    cfg.bug = BugKind::PutxGetxRace;
    cfg.bugProbability = 1.0;
    cfg.cacheLines = 4;
    CoherentExecutor platform(cfg);
    Rng rng(3);
    bool crashed = false;
    for (int i = 0; i < 10 && !crashed; ++i) {
        try {
            platform.run(program, rng);
        } catch (const ProtocolDeadlockError &) {
            crashed = true;
        }
    }
    EXPECT_TRUE(crashed);
}

TEST(CoherentBugs, ControlStaysClean)
{
    // Same contended configurations, no bug, tiny cache: no
    // violations, no crashes.
    for (const char *name :
         {"x86-7-100-32 (16 words/line)", "x86-4-50-8 (4 words/line)"}) {
        const TestProgram program =
            generateTest(parseConfigName(name), 7);
        CoherentConfig cfg = gem5LikeConfig();
        cfg.cacheLines = 4;
        CoherentExecutor platform(cfg);
        ConventionalChecker checker(program, cfg.model);
        ConventionalStats stats;
        Rng rng(5);
        for (int i = 0; i < 40; ++i) {
            const Execution e = platform.run(program, rng);
            EXPECT_FALSE(checker.checkOne(dynamicEdges(program, e),
                                          stats))
                << name;
        }
    }
}

} // anonymous namespace
} // namespace mtc
