/**
 * @file
 * Tests for write-serialization inference: soundness against the
 * executor's ground-truth coherence order, and detection of
 * contradictory (coherence-violating) observations.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "graph/ws_inference.h"
#include "sim/executor.h"
#include "testgen/generator.h"
#include "testgen/litmus.h"
#include "ws_reference.h"

namespace mtc
{
namespace
{

/** Position of a store in the ground-truth order of @p loc. */
std::int64_t
positionIn(const std::vector<OpId> &order, OpId store)
{
    for (std::size_t i = 0; i < order.size(); ++i)
        if (order[i] == store)
            return static_cast<std::int64_t>(i);
    return -1;
}

using Param = std::tuple<MemoryModel, std::uint64_t /*seed*/>;

class WsInferenceSoundness : public ::testing::TestWithParam<Param>
{
};

TEST_P(WsInferenceSoundness, InferredOrderIsSubsetOfGroundTruth)
{
    const auto [model, seed] = GetParam();

    TestConfig cfg;
    cfg.numThreads = 4;
    cfg.opsPerThread = 40;
    cfg.numLocations = 8;
    const TestProgram program = generateTest(cfg, seed);

    ExecutorConfig exec;
    exec.model = model;
    exec.policy = SchedulingPolicy::UniformRandom;
    exec.reorderWindow = model == MemoryModel::SC ? 1 : 8;
    exec.exportCoherenceOrder = true;
    OperationalExecutor platform(exec);

    Rng rng(seed * 31 + 7);
    for (int run = 0; run < 20; ++run) {
        const Execution execution = platform.run(program, rng);
        WsOrder inferred(program, execution);
        EXPECT_FALSE(inferred.coherenceViolation())
            << "bug-free platform must not contradict itself";

        for (std::uint32_t loc = 0; loc < cfg.numLocations; ++loc) {
            const auto &truth = execution.coherenceOrder[loc];
            for (const auto &[w1, w2] : inferred.orderedPairs(loc)) {
                const std::int64_t p1 = positionIn(truth, w1);
                const std::int64_t p2 = positionIn(truth, w2);
                ASSERT_GE(p1, 0);
                ASSERT_GE(p2, 0);
                EXPECT_LT(p1, p2)
                    << "inferred ws edge contradicts ground truth at loc "
                    << loc;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, WsInferenceSoundness,
    ::testing::Combine(::testing::Values(MemoryModel::SC,
                                         MemoryModel::TSO,
                                         MemoryModel::RMO),
                       ::testing::Values(1ull, 2ull, 3ull, 4ull)),
    [](const ::testing::TestParamInfo<Param> &info) {
        return modelName(std::get<0>(info.param)) + "_seed" +
            std::to_string(std::get<1>(info.param));
    });

TEST(WsInference, GroundTruthConstructorIsTotal)
{
    TestConfig cfg;
    cfg.numThreads = 2;
    cfg.opsPerThread = 20;
    cfg.numLocations = 4;
    const TestProgram program = generateTest(cfg, 5);

    OperationalExecutor platform(scReferenceConfig());
    Rng rng(11);
    const Execution execution = platform.run(program, rng);

    const WsOrder truth = WsOrder::fromGroundTruth(program, execution);
    EXPECT_FALSE(truth.coherenceViolation());
    for (std::uint32_t loc = 0; loc < cfg.numLocations; ++loc) {
        const auto &order = execution.coherenceOrder[loc];
        for (std::size_t i = 0; i < order.size(); ++i) {
            EXPECT_TRUE(truth.before(loc, std::nullopt, order[i]));
            for (std::size_t j = i + 1; j < order.size(); ++j) {
                EXPECT_TRUE(truth.before(loc, order[i], order[j]));
                EXPECT_FALSE(truth.before(loc, order[j], order[i]));
            }
        }
    }
}

TEST(WsInference, GroundTruthRequiresExportedOrder)
{
    const TestProgram program = litmus::corr();
    Execution execution;
    execution.loadValues = {kInitValue, kInitValue};
    EXPECT_THROW(WsOrder::fromGroundTruth(program, execution),
                 ConfigError);
}

TEST(WsInference, CorrViolationDetected)
{
    // T0: st x=V.  T1: ld x; ld x.  Observing V then init contradicts
    // coherence: rule (d) demands ws(V) <= ws(init), but init precedes
    // every store.
    const TestProgram program = litmus::corr();
    const std::uint32_t v = program.op(OpId{0, 0}).value;

    Execution bad;
    bad.loadValues = {v, kInitValue};
    WsOrder order(program, bad);
    EXPECT_TRUE(order.coherenceViolation());

    // The legal orders are fine.
    for (auto values :
         {std::vector<std::uint32_t>{kInitValue, kInitValue},
          std::vector<std::uint32_t>{kInitValue, v},
          std::vector<std::uint32_t>{v, v}}) {
        Execution good;
        good.loadValues = values;
        EXPECT_FALSE(
            WsOrder(program, good).coherenceViolation());
    }
}

TEST(WsInference, ReadingOwnFutureStoreDetected)
{
    // Thread 0: ld x; st x=V. The load observing V reads its own
    // thread's future -> violation.
    TestConfig cfg;
    cfg.numThreads = 1;
    cfg.opsPerThread = 2;
    cfg.numLocations = 1;
    std::vector<std::vector<MemOp>> threads(1);
    MemOp load;
    load.kind = OpKind::Load;
    load.loc = 0;
    MemOp store;
    store.kind = OpKind::Store;
    store.loc = 0;
    store.value = storeValue(OpId{0, 1});
    threads[0] = {load, store};
    const TestProgram program(cfg, std::move(threads));

    Execution bad;
    bad.loadValues = {store.value};
    EXPECT_TRUE(WsOrder(program, bad).coherenceViolation());
}

TEST(WsInference, InitAfterOwnStoreDetected)
{
    // Thread 0: st x=V; ld x. Reading init after own store violates
    // per-location coherence.
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

    Execution bad;
    bad.loadValues = {kInitValue};
    EXPECT_TRUE(WsOrder(program, bad).coherenceViolation());

    Execution good;
    good.loadValues = {store.value};
    EXPECT_FALSE(WsOrder(program, good).coherenceViolation());
}

TEST(WsInference, UnknownValueDetected)
{
    const TestProgram program = litmus::corr();
    Execution bad;
    bad.loadValues = {0xdeadbeefu, kInitValue};
    EXPECT_TRUE(WsOrder(program, bad).coherenceViolation());
}

TEST(WsInference, SuccessorsOfInit)
{
    // MP: both stores of T0 to distinct locations; successorsOf(init)
    // at each location is exactly the store set.
    const TestProgram program = litmus::messagePassing();
    Execution execution;
    execution.loadValues = {kInitValue, kInitValue};
    WsOrder order(program, execution);
    EXPECT_EQ(order.successorsOf(0, std::nullopt).size(), 1u);
    EXPECT_EQ(order.successorsOf(1, std::nullopt).size(), 1u);
}

TEST(WsInference, RejectsForeignStoreQuery)
{
    const TestProgram program = litmus::messagePassing();
    Execution execution;
    execution.loadValues = {kInitValue, kInitValue};
    WsOrder order(program, execution);
    // OpId{0,0} stores loc 0; querying it against loc 1 must throw.
    EXPECT_THROW(order.before(1, OpId{0, 0}, std::nullopt), ConfigError);
}

TEST(WsInference, DeltaMatchesReferenceOnRandomValues)
{
    // Random load values (any store to the load's location, the
    // initial value, or a value no store wrote) reach coherence states
    // no executor produces. Each step re-draws the values of a random
    // subset of threads; inferDelta must match the whole-thread
    // reference walk bit for bit and flag every location that moved.
    TestConfig cfg;
    cfg.numThreads = 4;
    cfg.opsPerThread = 40;
    cfg.numLocations = 6;
    const TestProgram program = generateTest(cfg, 17);
    Rng rng(99);
    Execution exec;
    exec.loadValues.assign(program.loads().size(), kInitValue);
    const auto draw = [&](std::uint32_t ordinal) {
        const auto &stores =
            program.storesTo(program.op(program.loads()[ordinal]).loc);
        const std::uint64_t pick = rng.nextBelow(stores.size() + 8);
        if (pick < stores.size())
            return program.op(stores[pick]).value;
        return pick == stores.size() ? 0x00badbadu : kInitValue;
    };

    WsOrder ws;
    ReferenceWsOrder prev;
    for (int step = 0; step < 300; ++step) {
        std::vector<std::uint32_t> changed;
        for (std::uint32_t tid = 0; tid < cfg.numThreads; ++tid) {
            if (step > 0 && rng.nextBelow(3) != 0)
                continue;
            changed.push_back(tid);
            for (const OpId load : program.loadsOfThread(tid)) {
                const std::uint32_t ordinal = program.loadOrdinal(load);
                if (rng.nextBelow(4) == 0)
                    exec.loadValues[ordinal] = draw(ordinal);
            }
        }
        ws.inferDelta(program, exec, changed.data(), changed.size());
        ReferenceWsOrder ref;
        ref.infer(program, exec);
        expectMatchesReference(ws, ref, step ? &prev : nullptr,
                               cfg.numLocations);
        prev = ref;
    }
}

} // anonymous namespace
} // namespace mtc
