/**
 * @file
 * Unit tests for test configuration, the program IR and its derived
 * indexes, and the constrained-random generator.
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "graph/ws_inference.h"
#include "sim/executor.h"
#include "support/error.h"
#include "testgen/generator.h"
#include "testgen/test_config.h"
#include "testgen/test_program.h"

namespace mtc
{
namespace
{

TEST(TestConfig, NameMatchesPaperConvention)
{
    TestConfig cfg;
    cfg.isa = Isa::ARMv7;
    cfg.numThreads = 2;
    cfg.opsPerThread = 50;
    cfg.numLocations = 32;
    EXPECT_EQ(cfg.name(), "ARM-2-50-32");

    cfg.wordsPerLine = 4;
    EXPECT_EQ(cfg.name(), "ARM-2-50-32 (4 words/line)");
}

TEST(TestConfig, ParseRoundTrip)
{
    for (const char *name :
         {"ARM-2-50-32", "x86-7-200-128", "ARM-4-100-64"}) {
        const TestConfig cfg = parseConfigName(name);
        EXPECT_EQ(cfg.name(), name);
    }
    const TestConfig fs = parseConfigName("x86-4-50-8 (4 words/line)");
    EXPECT_EQ(fs.wordsPerLine, 4u);
    EXPECT_EQ(fs.numLocations, 8u);
}

TEST(TestConfig, ParseRejectsGarbage)
{
    EXPECT_THROW(parseConfigName("ARM-2-50"), ConfigError);
    EXPECT_THROW(parseConfigName("MIPS-2-50-32"), ConfigError);
    EXPECT_THROW(parseConfigName(""), ConfigError);
}

TEST(TestConfig, ValidateRejectsBadParameters)
{
    TestConfig cfg;
    cfg.numThreads = 0;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg = TestConfig{};
    cfg.opsPerThread = 0;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg = TestConfig{};
    cfg.numLocations = 0;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg = TestConfig{};
    cfg.loadFraction = 1.5;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg = TestConfig{};
    cfg.wordsPerLine = 17; // 17*4 > 64
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg = TestConfig{};
    cfg.fencePercent = 101;
    EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(TestConfig, Figure8GridHas21Configs)
{
    const auto configs = figure8Configs();
    EXPECT_EQ(configs.size(), 21u);
    unsigned arm = 0, x86 = 0;
    for (const auto &cfg : configs)
        (cfg.isa == Isa::ARMv7 ? arm : x86) += 1;
    EXPECT_EQ(arm, 15u);
    EXPECT_EQ(x86, 6u);
    EXPECT_EQ(figure10Configs().size(), 15u);
}

TEST(StoreValue, EncodingRoundTrip)
{
    for (std::uint32_t tid : {0u, 1u, 6u, 100u}) {
        for (std::uint32_t idx : {0u, 1u, 199u, 5000u}) {
            const OpId id{tid, idx};
            const std::uint32_t value = storeValue(id);
            EXPECT_NE(value, kInitValue);
            EXPECT_EQ(storeIdFromValue(value), id);
        }
    }
    EXPECT_THROW(storeIdFromValue(kInitValue), ConfigError);
}

TEST(Generator, DeterministicAndParameterized)
{
    TestConfig cfg = parseConfigName("x86-4-100-64");
    const TestProgram a = generateTest(cfg, 7);
    const TestProgram b = generateTest(cfg, 7);
    const TestProgram c = generateTest(cfg, 8);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_NE(a.fingerprint(), c.fingerprint());

    EXPECT_EQ(a.numThreads(), 4u);
    EXPECT_EQ(a.numOps(), 400u);
    for (std::uint32_t t = 0; t < a.numThreads(); ++t)
        EXPECT_EQ(a.opsInThread(t), 100u);
}

TEST(Generator, LoadStoreMixRoughlyBalanced)
{
    TestConfig cfg = parseConfigName("ARM-7-200-64");
    const TestProgram program = generateTest(cfg, 3);
    const double loads = program.loads().size();
    const double total = program.numOps();
    EXPECT_NEAR(loads / total, 0.5, 0.08);
}

TEST(Generator, StoreValuesUniqueAndDecodable)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-7-200-128"), 5);
    std::set<std::uint32_t> values;
    for (OpId store : program.stores()) {
        const MemOp &op = program.op(store);
        EXPECT_TRUE(values.insert(op.value).second);
        EXPECT_EQ(storeIdFromValue(op.value), store);
        EXPECT_EQ(program.storeForValue(op.value), store);
    }
    EXPECT_FALSE(program.storeForValue(0xdeadbeef).has_value());
}

TEST(Generator, LocationsInRange)
{
    const TestProgram program =
        generateTest(parseConfigName("ARM-2-50-32"), 9);
    for (const auto &body : program.threadBodies()) {
        for (const MemOp &op : body) {
            if (op.kind != OpKind::Fence) {
                EXPECT_LT(op.loc, 32u);
            }
        }
    }
}

TEST(Generator, FencePercent)
{
    TestConfig cfg = parseConfigName("ARM-4-200-64");
    cfg.fencePercent = 20;
    const TestProgram program = generateTest(cfg, 11);
    unsigned fences = 0;
    for (const auto &body : program.threadBodies())
        for (const MemOp &op : body)
            fences += op.kind == OpKind::Fence;
    const double frac = fences / static_cast<double>(program.numOps());
    EXPECT_NEAR(frac, 0.20, 0.06);
}

TEST(Generator, BatchProducesDistinctTests)
{
    const auto batch =
        generateTestBatch(parseConfigName("x86-2-50-32"), 1, 10);
    ASSERT_EQ(batch.size(), 10u);
    std::set<std::uint64_t> prints;
    for (const auto &program : batch)
        prints.insert(program.fingerprint());
    EXPECT_EQ(prints.size(), 10u);
}

TEST(TestProgram, GlobalIndexRoundTrip)
{
    const TestProgram program =
        generateTest(parseConfigName("ARM-4-50-64"), 2);
    for (std::uint32_t g = 0; g < program.numOps(); ++g) {
        const OpId id = program.opIdAt(g);
        EXPECT_EQ(program.globalIndex(id), g);
    }
    EXPECT_THROW(program.opIdAt(program.numOps()), ConfigError);
    EXPECT_THROW(program.globalIndex(OpId{99, 0}), ConfigError);
}

TEST(TestProgram, LoadOrdinalsAreDense)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-2-100-32"), 4);
    const auto &loads = program.loads();
    for (std::uint32_t i = 0; i < loads.size(); ++i)
        EXPECT_EQ(program.loadOrdinal(loads[i]), i);
    // A store has no load ordinal.
    ASSERT_FALSE(program.stores().empty());
    EXPECT_THROW(program.loadOrdinal(program.stores().front()),
                 ConfigError);
}

TEST(TestProgram, StoresPerLocationConsistent)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-100-64"), 6);
    std::size_t total = 0;
    for (std::uint32_t loc = 0; loc < 64; ++loc) {
        for (OpId store : program.storesTo(loc))
            EXPECT_EQ(program.op(store).loc, loc);
        total += program.storesTo(loc).size();
    }
    EXPECT_EQ(total, program.stores().size());
}

TEST(TestProgram, AddressLayoutFalseSharing)
{
    TestConfig cfg = parseConfigName("ARM-2-50-32");

    // No false sharing: each location on its own 64-byte line.
    {
        const TestProgram p = generateTest(cfg, 1);
        EXPECT_EQ(p.numLines(), 32u);
        EXPECT_EQ(p.lineOf(0), 0u);
        EXPECT_EQ(p.lineOf(1), 1u);
        EXPECT_EQ(p.byteAddress(1), 64u);
    }

    // 4 words per line: locations 0..3 share line 0.
    {
        cfg.wordsPerLine = 4;
        const TestProgram p = generateTest(cfg, 1);
        EXPECT_EQ(p.numLines(), 8u);
        EXPECT_EQ(p.lineOf(0), 0u);
        EXPECT_EQ(p.lineOf(3), 0u);
        EXPECT_EQ(p.lineOf(4), 1u);
        EXPECT_EQ(p.byteAddress(1), 4u);
        EXPECT_EQ(p.byteAddress(4), 64u);
    }
}

TEST(TestProgram, RejectsInvalidConstruction)
{
    TestConfig cfg = parseConfigName("x86-2-50-32");

    // Load location out of range.
    {
        std::vector<std::vector<MemOp>> threads(2);
        MemOp bad;
        bad.kind = OpKind::Load;
        bad.loc = 32;
        threads[0].push_back(bad);
        EXPECT_THROW(TestProgram(cfg, std::move(threads)), ConfigError);
    }
    // Store with the init value.
    {
        std::vector<std::vector<MemOp>> threads(2);
        MemOp bad;
        bad.kind = OpKind::Store;
        bad.loc = 0;
        bad.value = kInitValue;
        threads[0].push_back(bad);
        EXPECT_THROW(TestProgram(cfg, std::move(threads)), ConfigError);
    }
    // Duplicate store values.
    {
        std::vector<std::vector<MemOp>> threads(2);
        MemOp st;
        st.kind = OpKind::Store;
        st.loc = 0;
        st.value = 42;
        threads[0].push_back(st);
        threads[1].push_back(st);
        EXPECT_THROW(TestProgram(cfg, std::move(threads)), ConfigError);
    }
}

TEST(TestProgram, ToStringListsOps)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-2-50-32"), 1);
    const std::string text = program.toString();
    EXPECT_NE(text.find("thread 0"), std::string::npos);
    EXPECT_NE(text.find("thread 1"), std::string::npos);
    EXPECT_NE(text.find("ld"), std::string::npos);
    EXPECT_NE(text.find("st"), std::string::npos);
}

/**
 * The ops `st loc0; ld loc<second_loc>; ld loc0`, the first @p split
 * on thread 0 and the rest on thread 1. Loads carry no value, so when
 * the fingerprint hashed ops alone, every split and every location
 * count of one sequence shared a fingerprint.
 */
TestProgram
splitOps(const char *config, std::uint32_t second_loc, std::size_t split)
{
    MemOp st;
    st.kind = OpKind::Store;
    st.loc = 0;
    st.value = storeValue(OpId{0, 0});
    MemOp ld_second;
    ld_second.kind = OpKind::Load;
    ld_second.loc = second_loc;
    MemOp ld0;
    ld0.kind = OpKind::Load;
    ld0.loc = 0;
    const std::vector<MemOp> ops{st, ld_second, ld0};
    std::vector<std::vector<MemOp>> threads(2);
    threads[0].assign(ops.begin(), ops.begin() + split);
    threads[1].assign(ops.begin() + split, ops.end());
    return TestProgram(parseConfigName(config), std::move(threads));
}

TEST(TestProgram, FingerprintCoversShape)
{
    const TestProgram a = splitOps("x86-2-2-4", 1, 2);
    const TestProgram b = splitOps("x86-2-2-4", 1, 1);
    const TestProgram c = splitOps("x86-2-2-8", 1, 2);
    TestConfig packed = parseConfigName("x86-2-2-4");
    packed.wordsPerLine = 2;
    const TestProgram d(packed, a.threadBodies());
    const std::set<std::uint64_t> prints{a.fingerprint(), b.fingerprint(),
                                         c.fingerprint(), d.fingerprint()};
    EXPECT_EQ(prints.size(), 4u);
    EXPECT_EQ(a.fingerprint(), splitOps("x86-2-2-4", 1, 2).fingerprint());
}

TEST(TestProgram, ReusedExecutorMatchesFreshAcrossShapes)
{
    // Executors cache per-program tables (thread-locally) under the
    // fingerprint, so a collision served one program's tables to the
    // other. The fresh runs happen on a thread whose caches never saw
    // program a.
    const TestProgram a = splitOps("x86-2-2-4", 1, 2);
    const TestProgram b = splitOps("x86-2-2-4", 1, 1);
    const ExecutorConfig exec = bareMetalConfig(Isa::X86);
    constexpr std::uint64_t kSeeds = 200;
    std::vector<std::vector<std::uint32_t>> fresh(kSeeds);
    std::thread([&] {
        OperationalExecutor platform(exec);
        for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
            Rng rng(seed);
            fresh[seed] = platform.run(b, rng).loadValues;
        }
    }).join();

    OperationalExecutor reused(exec);
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        Rng rng_a(seed);
        reused.run(a, rng_a);
        Rng rng(seed);
        EXPECT_EQ(reused.run(b, rng).loadValues, fresh[seed])
            << "seed " << seed;
    }
}

TEST(TestProgram, ReusedWsOrderMatchesFreshAcrossShapes)
{
    // WsOrder caches its segment tables under the fingerprint. Here the
    // split decides whether the two loc-0 loads share a thread (rule d
    // applies) or follow the store on thread 0 (rules b and c apply).
    const TestProgram p = splitOps("x86-2-2-4", 0, 2);
    const TestProgram q = splitOps("x86-2-2-4", 0, 1);
    const std::uint32_t v = storeValue(OpId{0, 0});
    const std::uint32_t all[] = {0, 1};
    WsOrder reused;
    for (const bool delta : {false, true}) {
        for (const auto &values :
             {std::vector<std::uint32_t>{v, kInitValue},
              std::vector<std::uint32_t>{kInitValue, v},
              std::vector<std::uint32_t>{v, v}}) {
            Execution on_p;
            on_p.loadValues = {v, v};
            reused.infer(p, on_p);
            Execution on_q;
            on_q.loadValues = values;
            if (delta)
                reused.inferDelta(q, on_q, all, 2);
            else
                reused.infer(q, on_q);
            const WsOrder fresh(q, on_q);
            EXPECT_EQ(reused.coherenceViolation(),
                      fresh.coherenceViolation());
            for (std::uint32_t loc = 0; loc < 4; ++loc) {
                const std::uint32_t n =
                    static_cast<std::uint32_t>(fresh.storesAt(loc).size());
                ASSERT_EQ(reused.storesAt(loc).size(), n);
                for (std::uint32_t i = 0; i <= n; ++i)
                    for (std::uint32_t j = 0; j <= n; ++j)
                        EXPECT_EQ(reused.orderedByIndex(loc, i, j),
                                  fresh.orderedByIndex(loc, i, j));
            }
        }
    }
}

} // anonymous namespace
} // namespace mtc
