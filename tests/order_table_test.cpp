/**
 * @file
 * Unit tests for the shared executor substrate: OrderTable required-
 * predecessor masks and the CompletionBits / LaneCompletionBits
 * windowed-completion queries, whose bit arithmetic underpins every
 * executor's eligibility check.
 */

#include <gtest/gtest.h>

#include "sim/order_table.h"
#include "support/rng.h"
#include "testgen/generator.h"
#include "testgen/litmus.h"

namespace mtc
{
namespace
{

TEST(CompletionBits, WindowAtThreadStart)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-2-50-32"), 1);
    CompletionBits bits;
    bits.reset(program);

    // Nothing completed: for idx 0 every (non-existent) predecessor
    // reads as complete.
    EXPECT_EQ(bits.windowCompleted(0, 0), ~std::uint32_t(0));

    // idx 5: 27 padding bits (low) complete, 5 real ones incomplete.
    const std::uint32_t m5 = bits.windowCompleted(0, 5);
    EXPECT_EQ(m5, (std::uint32_t(1) << 27) - 1);
}

TEST(CompletionBits, MarksReflectInWindow)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-2-200-32"), 2);
    CompletionBits bits;
    bits.reset(program);

    // Complete ops 0..9 and 12; query idx 14.
    for (std::uint32_t i = 0; i < 10; ++i)
        bits.markCompleted(0, i);
    bits.markCompleted(0, 12);

    const std::uint32_t mask = bits.windowCompleted(0, 14);
    // Bit b covers op 14-32+b: op j is bit j+18.
    for (std::uint32_t j = 0; j < 14; ++j) {
        const bool expect =
            j < 10 || j == 12;
        EXPECT_EQ(((mask >> (j + 18)) & 1) != 0, expect) << "op " << j;
    }
    // Padding (ops -18..-1) complete.
    EXPECT_EQ(mask & ((std::uint32_t(1) << 18) - 1),
              (std::uint32_t(1) << 18) - 1);
}

TEST(CompletionBits, DeepIndicesCrossWordBoundaries)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-2-200-32"), 3);
    CompletionBits bits;
    bits.reset(program);

    // Complete everything below 100 except 70 and 95.
    for (std::uint32_t i = 0; i < 100; ++i)
        if (i != 70 && i != 95)
            bits.markCompleted(0, i);

    const std::uint32_t mask = bits.windowCompleted(0, 100);
    // Window covers ops 68..99; op j at bit j-68.
    for (std::uint32_t j = 68; j < 100; ++j) {
        const bool expect = j != 70 && j != 95;
        EXPECT_EQ(((mask >> (j - 68)) & 1) != 0, expect) << "op " << j;
    }
    EXPECT_TRUE(bits.isCompleted(0, 69));
    EXPECT_FALSE(bits.isCompleted(0, 70));
}

TEST(LaneCompletionBits, WindowSpanMatchesPerOpQueries)
{
    // Thread 1 has 200 ops; random completions on lane 1 of 2. Every
    // head's span must answer CompletionBits' window and completion
    // queries for the 33 ops it covers, across word boundaries.
    const TestProgram program =
        generateTest(parseConfigName("x86-2-200-32"), 6);
    CompletionBits bits;
    bits.reset(program);
    LaneCompletionBits lanes;
    lanes.reset(program, 2);
    Rng rng(17);
    for (std::uint32_t i = 0; i < 200; ++i) {
        if (rng.nextBool(0.6)) {
            bits.markCompleted(1, i);
            lanes.markCompleted(1, 1, i);
        }
    }
    for (std::uint32_t head = 0; head < 200; ++head) {
        const std::uint64_t span = lanes.windowSpan(1, 1, head);
        for (std::uint32_t j = 0; j <= 32 && head + j < 200; ++j) {
            EXPECT_EQ(static_cast<std::uint32_t>(span >> j),
                      bits.windowCompleted(1, head + j))
                << "head " << head << " j " << j;
            if (j < 32) {
                EXPECT_EQ((span >> (32 + j)) & 1,
                          bits.isCompleted(1, head + j) ? 1u : 0u)
                    << "head " << head << " j " << j;
            }
        }
    }
    // Lane 0 stays untouched: nothing complete past the padding.
    EXPECT_EQ(lanes.windowSpan(0, 1, 0), 0xffffffffULL);
}

TEST(OrderTable, MasksMatchRequiredOrder)
{
    const TestProgram program =
        generateTest(parseConfigName("ARM-2-100-16"), 4);
    for (MemoryModel model :
         {MemoryModel::SC, MemoryModel::TSO, MemoryModel::RMO}) {
        OrderTable table;
        table.build(program, model);
        const auto &body = program.threadBodies()[0];
        for (std::uint32_t idx = 0; idx < body.size(); ++idx) {
            for (std::uint32_t b = 0; b < kMaxReorderWindow; ++b) {
                const std::int64_t j =
                    static_cast<std::int64_t>(idx) - 32 + b;
                const bool bit =
                    (table.requiredPreds[0][idx] >> b) & 1;
                if (j < 0) {
                    EXPECT_FALSE(bit);
                } else {
                    EXPECT_EQ(bit,
                              requiredOrder(model,
                                            body[static_cast<
                                                std::uint32_t>(j)],
                                            body[idx]))
                        << modelName(model) << " idx " << idx << " j "
                        << j;
                }
            }
        }
    }
}

TEST(OrderTable, ScRequiresAllRecentPredecessors)
{
    const TestProgram sb = litmus::storeBuffering();
    OrderTable table;
    table.build(sb, MemoryModel::SC);
    // SB thread 0: st; ld. Under SC the load's mask requires the store
    // (bit 31 = op idx-1).
    EXPECT_TRUE((table.requiredPreds[0][1] >> 31) & 1);

    table.build(sb, MemoryModel::TSO);
    EXPECT_FALSE((table.requiredPreds[0][1] >> 31) & 1)
        << "TSO relaxes st->ld";
}

} // anonymous namespace
} // namespace mtc
