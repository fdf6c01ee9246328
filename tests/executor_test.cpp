/**
 * @file
 * Tests for the platform substitute (operational executor): model
 * soundness, litmus-test reachability per memory model, store
 * forwarding, coherence-order export, determinism, and configuration
 * validation.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "core/conventional_checker.h"
#include "graph/graph_builder.h"
#include "sim/executor.h"
#include "testgen/generator.h"
#include "testgen/litmus.h"

namespace mtc
{
namespace
{

/** Collect the set of (load0, load1, ...) outcomes over many runs. */
std::set<std::vector<std::uint32_t>>
outcomes(const TestProgram &program, const ExecutorConfig &cfg,
         unsigned runs, std::uint64_t seed = 1)
{
    OperationalExecutor platform(cfg);
    Rng rng(seed);
    std::set<std::vector<std::uint32_t>> seen;
    for (unsigned i = 0; i < runs; ++i)
        seen.insert(platform.run(program, rng).loadValues);
    return seen;
}

ExecutorConfig
uniformConfig(MemoryModel model, unsigned window = 8)
{
    ExecutorConfig cfg;
    cfg.model = model;
    cfg.policy = SchedulingPolicy::UniformRandom;
    cfg.reorderWindow = model == MemoryModel::SC ? 1 : window;
    return cfg;
}

TEST(Executor, DeterministicGivenSeed)
{
    const TestProgram program =
        generateTest(parseConfigName("ARM-4-100-64"), 3);
    for (SchedulingPolicy policy : {SchedulingPolicy::UniformRandom,
                                    SchedulingPolicy::Timed}) {
        ExecutorConfig cfg = uniformConfig(MemoryModel::RMO);
        cfg.policy = policy;
        OperationalExecutor a(cfg), b(cfg);
        Rng ra(5), rb(5);
        for (int i = 0; i < 5; ++i) {
            EXPECT_EQ(a.run(program, ra).loadValues,
                      b.run(program, rb).loadValues);
        }
    }
}

TEST(Executor, StoreBufferingOutcomeReachableUnderTsoNotSc)
{
    const TestProgram sb = litmus::storeBuffering();
    const std::vector<std::uint32_t> relaxed{kInitValue, kInitValue};

    const auto tso = outcomes(sb, uniformConfig(MemoryModel::TSO), 500);
    EXPECT_TRUE(tso.count(relaxed))
        << "TSO store buffering must allow r0=r1=0";

    const auto sc = outcomes(sb, uniformConfig(MemoryModel::SC), 500);
    EXPECT_FALSE(sc.count(relaxed))
        << "SC must forbid the store-buffering outcome";
}

TEST(Executor, FenceRestoresScForStoreBuffering)
{
    const TestProgram fenced = litmus::storeBufferingFenced();
    const std::vector<std::uint32_t> relaxed{kInitValue, kInitValue};
    for (MemoryModel m :
         {MemoryModel::SC, MemoryModel::TSO, MemoryModel::RMO}) {
        EXPECT_FALSE(outcomes(fenced, uniformConfig(m), 500).count(
            relaxed))
            << modelName(m);
    }
}

TEST(Executor, LoadBufferingOutcomeOnlyUnderRmo)
{
    const TestProgram lb = litmus::loadBuffering();
    // Both loads observe the other thread's store.
    const std::vector<std::uint32_t> relaxed{
        lb.op(OpId{1, 1}).value, lb.op(OpId{0, 1}).value};

    EXPECT_TRUE(
        outcomes(lb, uniformConfig(MemoryModel::RMO), 500).count(
            relaxed))
        << "RMO must allow load buffering";
    EXPECT_FALSE(
        outcomes(lb, uniformConfig(MemoryModel::TSO), 500).count(
            relaxed))
        << "TSO must forbid load buffering (paper Figure 2)";
    EXPECT_FALSE(
        outcomes(lb, uniformConfig(MemoryModel::SC), 500).count(
            relaxed));
}

TEST(Executor, MessagePassingRelaxationOnlyUnderRmo)
{
    const TestProgram mp = litmus::messagePassing();
    // flag observed (1), data stale (init).
    const std::vector<std::uint32_t> relaxed{
        mp.op(OpId{0, 1}).value, kInitValue};

    EXPECT_TRUE(
        outcomes(mp, uniformConfig(MemoryModel::RMO), 500).count(
            relaxed));
    EXPECT_FALSE(
        outcomes(mp, uniformConfig(MemoryModel::TSO), 500).count(
            relaxed));
}

TEST(Executor, CorrNeverViolatedOnAnyPlatform)
{
    const TestProgram corr = litmus::corr();
    const std::uint32_t v = corr.op(OpId{0, 0}).value;
    const std::vector<std::uint32_t> bad{v, kInitValue};
    for (MemoryModel m :
         {MemoryModel::SC, MemoryModel::TSO, MemoryModel::RMO}) {
        EXPECT_FALSE(outcomes(corr, uniformConfig(m), 500).count(bad))
            << modelName(m) << " platform broke read-read coherence";
    }
}

TEST(Executor, StoreForwardingObserved)
{
    // T0: st x=V; ld x. Under TSO the load always sees V (own store),
    // even though another thread may overwrite x around it... with no
    // other writers the value is always V.
    TestConfig cfg;
    cfg.numThreads = 1;
    cfg.opsPerThread = 2;
    cfg.numLocations = 1;
    std::vector<std::vector<MemOp>> threads(1);
    MemOp store;
    store.kind = OpKind::Store;
    store.loc = 0;
    store.value = storeValue(OpId{0, 0});
    MemOp load;
    load.kind = OpKind::Load;
    load.loc = 0;
    threads[0] = {store, load};
    const TestProgram program(cfg, std::move(threads));

    const auto seen = outcomes(program, uniformConfig(MemoryModel::TSO),
                               100);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(*seen.begin(), std::vector<std::uint32_t>{store.value});
}

TEST(Executor, CoherenceOrderExportConsistent)
{
    TestConfig tc = parseConfigName("x86-4-50-16");
    const TestProgram program = generateTest(tc, 6);

    ExecutorConfig cfg = uniformConfig(MemoryModel::TSO);
    cfg.exportCoherenceOrder = true;
    OperationalExecutor platform(cfg);
    Rng rng(9);

    for (int run = 0; run < 10; ++run) {
        const Execution execution = platform.run(program, rng);
        ASSERT_EQ(execution.coherenceOrder.size(), 16u);
        for (std::uint32_t loc = 0; loc < 16; ++loc) {
            const auto &order = execution.coherenceOrder[loc];
            // Exactly the stores to this location, once each.
            std::multiset<OpId> a(order.begin(), order.end());
            const auto &expect = program.storesTo(loc);
            std::multiset<OpId> b(expect.begin(), expect.end());
            EXPECT_EQ(a, b);
            // Same-thread stores appear in program order.
            for (std::size_t i = 0; i + 1 < order.size(); ++i) {
                for (std::size_t j = i + 1; j < order.size(); ++j) {
                    if (order[i].tid == order[j].tid) {
                        EXPECT_LT(order[i].idx, order[j].idx);
                    }
                }
            }
        }
    }
}

TEST(Executor, DurationPopulated)
{
    const TestProgram program =
        generateTest(parseConfigName("ARM-2-50-32"), 2);
    ExecutorConfig cfg = bareMetalConfig(Isa::ARMv7);
    OperationalExecutor platform(cfg);
    Rng rng(4);
    const Execution execution = platform.run(program, rng);
    EXPECT_GT(execution.duration, 0u);
}

TEST(Executor, ConfigValidation)
{
    ExecutorConfig cfg;
    cfg.reorderWindow = 0;
    EXPECT_THROW(OperationalExecutor{cfg}, ConfigError);
    cfg = ExecutorConfig{};
    cfg.reorderWindow = 64;
    EXPECT_THROW(OperationalExecutor{cfg}, ConfigError);
    cfg = ExecutorConfig{};
    cfg.bugProbability = 2.0;
    EXPECT_THROW(OperationalExecutor{cfg}, ConfigError);
    cfg = ExecutorConfig{};
    cfg.bug = BugKind::LsqNoSquash;
    cfg.policy = SchedulingPolicy::UniformRandom;
    EXPECT_THROW(OperationalExecutor{cfg}, ConfigError);
}

TEST(Executor, PresetConfigs)
{
    EXPECT_EQ(bareMetalConfig(Isa::X86).model, MemoryModel::TSO);
    EXPECT_EQ(bareMetalConfig(Isa::ARMv7).model, MemoryModel::RMO);
    EXPECT_GT(osConfig(Isa::ARMv7).timing.preemptProbability, 0.0);
    EXPECT_EQ(scReferenceConfig().model, MemoryModel::SC);
    EXPECT_TRUE(scReferenceConfig().exportCoherenceOrder);
}

// ---------------------------------------------------------------------
// Platform soundness sweep: a bug-free platform must never produce an
// execution its own memory model forbids.
// ---------------------------------------------------------------------

// The config name is a std::string, not a const char *: gtest prints a
// pointer inside a tuple as its address, which would put a per-process
// value into the discovered test names.
using SoundnessParam =
    std::tuple<std::string, MemoryModel, SchedulingPolicy>;

class ExecutorSoundness
    : public ::testing::TestWithParam<SoundnessParam>
{
};

TEST_P(ExecutorSoundness, NeverViolatesOwnModel)
{
    const auto [config_name, model, policy] = GetParam();
    const TestProgram program =
        generateTest(parseConfigName(config_name), 13);

    ExecutorConfig cfg;
    cfg.model = model;
    cfg.policy = policy;
    cfg.reorderWindow = model == MemoryModel::SC ? 1 : 8;
    OperationalExecutor platform(cfg);

    ConventionalChecker checker(program, model);
    ConventionalStats stats;
    Rng rng(17);
    for (int run = 0; run < 60; ++run) {
        const Execution execution = platform.run(program, rng);
        const DynamicEdgeSet edges = dynamicEdges(program, execution);
        EXPECT_FALSE(checker.checkOne(edges, stats))
            << config_name << " under " << modelName(model);
    }
    EXPECT_EQ(stats.violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExecutorSoundness,
    ::testing::Combine(
        ::testing::Values("x86-2-50-32", "x86-4-50-16", "ARM-4-50-16",
                          "ARM-7-50-64"),
        ::testing::Values(MemoryModel::SC, MemoryModel::TSO,
                          MemoryModel::RMO),
        ::testing::Values(SchedulingPolicy::UniformRandom,
                          SchedulingPolicy::Timed)),
    [](const ::testing::TestParamInfo<SoundnessParam> &info) {
        std::string name = std::get<0>(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name + "_" + modelName(std::get<1>(info.param)) +
            (std::get<2>(info.param) == SchedulingPolicy::Timed
                 ? "_timed"
                 : "_uniform");
    });

} // anonymous namespace
} // namespace mtc
