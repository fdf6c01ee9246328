/**
 * @file
 * Tests for the conventional and collective checkers. The central
 * property: for any batch of unique executions in ascending-signature
 * order, the collective checker's verdicts equal the conventional
 * checker's, graph by graph — including batches containing genuine
 * violations (obtained by checking a weak platform against a stronger
 * model, exactly how silicon reordering bugs manifest).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "core/collective_checker.h"
#include "core/conventional_checker.h"
#include "core/instr_plan.h"
#include "core/load_analysis.h"
#include "core/signature_codec.h"
#include "graph/graph_builder.h"
#include "sim/executor.h"
#include "testgen/generator.h"
#include "testgen/litmus.h"

namespace mtc
{
namespace
{

/** Unique executions of @p program under @p platform_model, as edge
 * sets in ascending signature order (the collective checker's input
 * contract). */
std::vector<DynamicEdgeSet>
orderedEdgeSets(const TestProgram &program, MemoryModel platform_model,
                unsigned runs, std::uint64_t seed)
{
    LoadValueAnalysis analysis(program);
    InstrumentationPlan plan(program, analysis);
    SignatureCodec codec(program, analysis, plan);

    ExecutorConfig exec;
    exec.model = platform_model;
    exec.policy = SchedulingPolicy::UniformRandom;
    exec.reorderWindow = platform_model == MemoryModel::SC ? 1 : 8;
    OperationalExecutor platform(exec);
    Rng rng(seed);

    std::map<Signature, Execution> unique;
    for (unsigned i = 0; i < runs; ++i) {
        Execution execution = platform.run(program, rng);
        EncodeResult encoded = codec.encode(execution);
        unique.emplace(std::move(encoded.signature),
                       std::move(execution));
    }

    std::vector<DynamicEdgeSet> sets;
    sets.reserve(unique.size());
    for (const auto &[signature, execution] : unique)
        sets.push_back(dynamicEdges(program, execution));
    return sets;
}

// std::string, not const char *: see ExecutorSoundness in executor_test.
using Param = std::tuple<std::string, MemoryModel /*platform*/,
                         MemoryModel /*checked*/, std::uint64_t>;

class CheckerEquivalence : public ::testing::TestWithParam<Param>
{
};

TEST_P(CheckerEquivalence, CollectiveMatchesConventional)
{
    const auto [config_name, platform_model, checked_model, seed] =
        GetParam();
    const TestProgram program =
        generateTest(parseConfigName(config_name), seed);

    const auto sets =
        orderedEdgeSets(program, platform_model, 150, seed * 7 + 1);
    ASSERT_FALSE(sets.empty());

    ConventionalChecker conventional(program, checked_model);
    ConventionalStats conv_stats;
    const std::vector<bool> expected =
        conventional.check(sets, conv_stats);

    CollectiveChecker collective(program, checked_model);
    const std::vector<bool> actual = collective.check(sets);

    EXPECT_EQ(actual, expected);
    EXPECT_EQ(collective.stats().violations, conv_stats.violations);
    EXPECT_EQ(collective.stats().graphsChecked, sets.size());

    // When the platform is weaker than the checked model, violations
    // must actually occur (otherwise this test proves nothing).
    if (atLeastAsWeak(platform_model, checked_model) &&
        platform_model != checked_model) {
        EXPECT_GT(conv_stats.violations, 0u)
            << "expected violations when checking "
            << modelName(platform_model) << " behaviour against "
            << modelName(checked_model);
    } else if (platform_model == checked_model) {
        EXPECT_EQ(conv_stats.violations, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CheckerEquivalence,
    ::testing::Values(
        // Matching platform/checker: all pass.
        Param{"x86-4-50-16", MemoryModel::TSO, MemoryModel::TSO, 1},
        Param{"ARM-4-50-16", MemoryModel::RMO, MemoryModel::RMO, 2},
        Param{"x86-2-100-32", MemoryModel::SC, MemoryModel::SC, 3},
        // Weak platform vs strong model: violations detected.
        Param{"x86-4-50-16", MemoryModel::RMO, MemoryModel::TSO, 4},
        Param{"x86-4-50-16", MemoryModel::RMO, MemoryModel::SC, 5},
        Param{"x86-2-50-8", MemoryModel::TSO, MemoryModel::SC, 6},
        Param{"ARM-7-50-32", MemoryModel::RMO, MemoryModel::TSO, 7},
        // Strong platform vs weak model: all pass.
        Param{"x86-2-50-8", MemoryModel::SC, MemoryModel::RMO, 8}),
    [](const ::testing::TestParamInfo<Param> &info) {
        std::string name = std::get<0>(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name + "_on" + modelName(std::get<1>(info.param)) +
            "_vs" + modelName(std::get<2>(info.param)) + "_s" +
            std::to_string(std::get<3>(info.param));
    });

TEST(CollectiveChecker, FirstGraphIsCompleteSort)
{
    const TestProgram program = litmus::storeBuffering();
    const auto sets =
        orderedEdgeSets(program, MemoryModel::TSO, 50, 3);
    CollectiveChecker checker(program, MemoryModel::TSO);
    checker.check(sets);
    EXPECT_GE(checker.stats().completeSorts, 1u);
    EXPECT_EQ(checker.stats().completeSorts +
                  checker.stats().noResortNeeded +
                  checker.stats().incrementalResorts,
              checker.stats().graphsChecked);
}

TEST(CollectiveChecker, AffectedFractionWithinUnit)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-100-32"), 11);
    const auto sets =
        orderedEdgeSets(program, MemoryModel::TSO, 200, 12);
    CollectiveChecker checker(program, MemoryModel::TSO);
    checker.check(sets);
    const auto &fraction = checker.stats().affectedFraction;
    if (fraction.count()) {
        EXPECT_GT(fraction.minimum(), 0.0);
        EXPECT_LE(fraction.maximum(), 1.0);
    }
}

TEST(CollectiveChecker, WorkBelowConventionalOnRealBatches)
{
    // The headline claim (Figure 9): collective checking performs
    // less sorting work than conventional checking on batches with
    // structural similarity.
    const TestProgram program =
        generateTest(parseConfigName("ARM-4-100-64"), 13);
    const auto sets =
        orderedEdgeSets(program, MemoryModel::RMO, 300, 14);
    ASSERT_GT(sets.size(), 10u);

    ConventionalChecker conventional(program, MemoryModel::RMO);
    ConventionalStats conv_stats;
    conventional.check(sets, conv_stats);

    CollectiveChecker collective(program, MemoryModel::RMO);
    collective.check(sets);

    const std::uint64_t conv_work =
        conv_stats.verticesProcessed + conv_stats.edgesProcessed;
    const std::uint64_t coll_work =
        collective.stats().verticesProcessed +
        collective.stats().edgesProcessed;
    EXPECT_LT(coll_work, conv_work);
}

TEST(CollectiveChecker, RecoversAfterViolation)
{
    // Alternate violating and clean graphs: every verdict must still
    // match the conventional checker (recovery via complete sort).
    const TestProgram program = litmus::loadBuffering();
    LoadValueAnalysis analysis(program);

    const std::uint32_t v0 = program.op(OpId{0, 1}).value; // st y by t0
    const std::uint32_t v1 = program.op(OpId{1, 1}).value; // st x by t1

    std::vector<Execution> executions;
    // LB outcomes: (ld x, ld y) pairs.
    for (auto values : {std::vector<std::uint32_t>{v1, v0},      // cycle
                        std::vector<std::uint32_t>{0, 0},        // ok
                        std::vector<std::uint32_t>{v1, 0},       // ok
                        std::vector<std::uint32_t>{0, v0}}) {    // ok
        Execution e;
        e.loadValues = values;
        executions.push_back(e);
    }

    std::vector<DynamicEdgeSet> sets;
    for (const auto &e : executions)
        sets.push_back(dynamicEdges(program, e));

    ConventionalChecker conventional(program, MemoryModel::TSO);
    ConventionalStats conv_stats;
    const auto expected = conventional.check(sets, conv_stats);

    CollectiveChecker collective(program, MemoryModel::TSO);
    const auto actual = collective.check(sets);
    EXPECT_EQ(actual, expected);
    EXPECT_TRUE(expected[0]);
    EXPECT_FALSE(expected[1]);
    EXPECT_GT(collective.stats().completeSorts, 1u)
        << "a violating graph forces the next check to re-sort fully";
}

TEST(ConventionalChecker, CoherenceViolationShortCircuits)
{
    const TestProgram program = litmus::corr();
    Execution bad;
    bad.loadValues = {program.op(OpId{0, 0}).value, kInitValue};
    const DynamicEdgeSet edges = dynamicEdges(program, bad);
    EXPECT_TRUE(edges.coherenceViolation);

    ConventionalChecker checker(program, MemoryModel::RMO);
    ConventionalStats stats;
    EXPECT_TRUE(checker.checkOne(edges, stats));
    EXPECT_EQ(stats.violations, 1u);

    CollectiveChecker collective(program, MemoryModel::RMO);
    EXPECT_TRUE(collective.checkNext(edges));
}

} // anonymous namespace
} // namespace mtc
