/**
 * @file
 * Hot-path guarantees: arena reuse is bit-identical to per-run arenas
 * across platforms, policies, and injected bugs (crashed lanes
 * included); the steady-state iteration loop performs no heap
 * allocations; the phase profiler accounts its scopes; and the O(1)
 * forwarding table matches a brute-force scan.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "core/load_analysis.h"
#include "core/signature_accumulator.h"
#include "core/signature_codec.h"
#include "graph/graph_builder.h"
#include "harness/validation_flow.h"
#include "sim/coherent_executor.h"
#include "sim/executor.h"
#include "sim/order_table.h"
#include "support/profiler.h"
#include "testgen/generator.h"

// --- Global allocation counter ---------------------------------------
// Counting overloads of the global allocator so tests can assert that a
// window of code touched the heap a bounded number of times (zero for
// the steady-state iteration loop).

namespace
{
std::atomic<std::uint64_t> g_allocations{0};
}

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace mtc
{
namespace
{

std::uint64_t
allocationsNow()
{
    return g_allocations.load(std::memory_order_relaxed);
}

// --- Arena reuse is bit-identical to fresh arenas ---------------------

constexpr std::uint32_t kArenaLanes = 8;
constexpr int kArenaBatches = 8;

void
expectSameExecution(const Execution &a, const Execution &b)
{
    EXPECT_EQ(a.loadValues, b.loadValues);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.coherenceOrder, b.coherenceOrder);
}

/**
 * Drive @p platform over the same RNG streams with the flow's arena
 * discipline and without it: batches through one reused BatchRunArena
 * against a fresh arena per batch (the test loop), then single runs
 * through one reused RunArena against a fresh one per run (the
 * confirmation re-executions). Every lane's status must match, and so
 * must every completed lane's execution and every crashed lane's
 * message. Returns the crashed lanes seen, so a caller can assert its
 * matrix reached the crash path.
 */
std::uint64_t
expectArenaReuseIdentical(Platform &platform, const TestProgram &program,
                          std::uint64_t seed)
{
    std::uint64_t crashed = 0;
    Rng reused_master(seed);
    Rng fresh_master(seed);
    BatchRunArena reused;
    std::vector<Rng> reused_rngs, fresh_rngs;
    std::vector<LaneStatus> reused_status, fresh_status;
    for (int b = 0; b < kArenaBatches; ++b) {
        reused_rngs.clear();
        fresh_rngs.clear();
        for (std::uint32_t l = 0; l < kArenaLanes; ++l) {
            reused_rngs.emplace_back(reused_master());
            fresh_rngs.emplace_back(fresh_master());
        }
        reused_status.assign(kArenaLanes, LaneStatus::Completed);
        fresh_status.assign(kArenaLanes, LaneStatus::Completed);
        platform.runBatchInto(program, reused_rngs.data(), kArenaLanes,
                              reused, nullptr, reused_status.data());
        BatchRunArena fresh;
        platform.runBatchInto(program, fresh_rngs.data(), kArenaLanes,
                              fresh, nullptr, fresh_status.data());
        for (std::uint32_t l = 0; l < kArenaLanes; ++l) {
            SCOPED_TRACE("batch " + std::to_string(b) + " lane " +
                         std::to_string(l));
            EXPECT_EQ(reused_status[l], fresh_status[l]);
            if (reused_status[l] != fresh_status[l])
                continue;
            if (reused_status[l] == LaneStatus::Completed) {
                expectSameExecution(reused.executions[l],
                                    fresh.executions[l]);
            } else if (reused_status[l] == LaneStatus::Crashed) {
                ++crashed;
                EXPECT_EQ(reused.crashMessage(l), fresh.crashMessage(l));
            }
        }
    }

    Rng reused_rng(seed);
    Rng fresh_rng(seed);
    RunArena arena;
    for (std::uint32_t run = 0; run < kArenaLanes * kArenaBatches;
         ++run) {
        SCOPED_TRACE("run " + std::to_string(run));
        bool reused_crashed = false;
        bool fresh_crashed = false;
        try {
            platform.runInto(program, reused_rng, arena);
        } catch (const ProtocolDeadlockError &) {
            reused_crashed = true;
        }
        RunArena fresh;
        try {
            platform.runInto(program, fresh_rng, fresh);
        } catch (const ProtocolDeadlockError &) {
            fresh_crashed = true;
        }
        EXPECT_EQ(reused_crashed, fresh_crashed);
        if (!reused_crashed && !fresh_crashed)
            expectSameExecution(arena.execution, fresh.execution);
    }
    return crashed;
}

TEST(ArenaReuse, OperationalPolicies)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-16"), 31);
    for (SchedulingPolicy policy : {SchedulingPolicy::UniformRandom,
                                    SchedulingPolicy::Timed}) {
        ExecutorConfig exec = bareMetalConfig(Isa::X86);
        exec.policy = policy;
        if (policy == SchedulingPolicy::UniformRandom)
            exec.timing = TimingParams{};
        OperationalExecutor platform(exec);
        EXPECT_EQ(expectArenaReuseIdentical(platform, program, 404), 0u);
    }
}

TEST(ArenaReuse, EveryInjectedBugKind)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-8"), 17);
    std::uint64_t crashed = 0;
    for (BugKind bug : {BugKind::LsqNoSquash,
                        BugKind::StaleLoadOnUpgrade,
                        BugKind::PutxGetxRace}) {
        ExecutorConfig exec = bareMetalConfig(Isa::X86);
        exec.bug = bug;
        exec.bugProbability = 0.3;
        // Capacity evictions arm the PUTX/GETX race window.
        exec.timing.cacheLines = 2;
        OperationalExecutor platform(exec);
        crashed += expectArenaReuseIdentical(platform, program, 77);
    }
    // The PUTX/GETX race deadlocks some lanes: the crash path ran.
    EXPECT_GT(crashed, 0u);
}

TEST(ArenaReuse, CoherentPlatform)
{
    const TestProgram program =
        generateTest(parseConfigName("ARM-4-50-16"), 23);
    CoherentConfig coherent = gem5LikeConfig();
    coherent.model = MemoryModel::TSO;
    CoherentExecutor platform(coherent);
    EXPECT_EQ(expectArenaReuseIdentical(platform, program, 505), 0u);
}

// --- Steady-state allocation freedom ----------------------------------

TEST(ZeroAllocation, OperationalRunAndEncodeSteadyState)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-16"), 3);
    const LoadValueAnalysis analysis(program);
    const InstrumentationPlan plan(program, analysis);
    const SignatureCodec codec(program, analysis, plan);

    for (SchedulingPolicy policy : {SchedulingPolicy::UniformRandom,
                                    SchedulingPolicy::Timed}) {
        ExecutorConfig exec = bareMetalConfig(Isa::X86);
        exec.policy = policy;
        OperationalExecutor platform(exec);
        Rng rng(12);
        RunArena arena;
        EncodeResult encoded;
        for (int warm = 0; warm < 3; ++warm) {
            platform.runInto(program, rng, arena);
            codec.encodeInto(arena.execution, encoded);
        }

        const std::uint64_t before = allocationsNow();
        for (int i = 0; i < 10; ++i) {
            platform.runInto(program, rng, arena);
            codec.encodeInto(arena.execution, encoded);
        }
        EXPECT_EQ(allocationsNow() - before, 0u)
            << "policy " << static_cast<int>(policy);
    }
}

TEST(ZeroAllocation, BatchedRunAndEncodeSteadyState)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-16"), 3);
    const LoadValueAnalysis analysis(program);
    const InstrumentationPlan plan(program, analysis);
    const SignatureCodec codec(program, analysis, plan);
    constexpr std::uint32_t kLanes = 8;

    for (SchedulingPolicy policy : {SchedulingPolicy::UniformRandom,
                                    SchedulingPolicy::Timed}) {
        ExecutorConfig exec = bareMetalConfig(Isa::X86);
        exec.policy = policy;
        OperationalExecutor platform(exec);
        Rng master(12);
        BatchRunArena batch;
        EncodeResult encoded;
        std::vector<Rng> rngs;
        rngs.reserve(kLanes);
        std::vector<LaneStatus> status(kLanes);
        const auto dispatch = [&] {
            rngs.clear();
            for (std::uint32_t l = 0; l < kLanes; ++l)
                rngs.emplace_back(master());
            status.assign(kLanes, LaneStatus::Completed);
            platform.runBatchInto(program, rngs.data(), kLanes, batch,
                                  nullptr, status.data());
            for (std::uint32_t l = 0; l < kLanes; ++l) {
                ASSERT_EQ(status[l], LaneStatus::Completed);
                codec.encodeInto(batch.executions[l], encoded);
            }
        };
        for (int warm = 0; warm < 3; ++warm)
            dispatch();

        const std::uint64_t before = allocationsNow();
        for (int i = 0; i < 5; ++i)
            dispatch();
        EXPECT_EQ(allocationsNow() - before, 0u)
            << "policy " << static_cast<int>(policy);
    }
}

TEST(ZeroAllocation, AccumulatorReRecord)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-16"), 3);
    const LoadValueAnalysis analysis(program);
    const InstrumentationPlan plan(program, analysis);
    const SignatureCodec codec(program, analysis, plan);
    OperationalExecutor platform(bareMetalConfig(Isa::X86));
    Rng rng(12);
    RunArena arena;
    EncodeResult encoded;
    platform.runInto(program, rng, arena);
    codec.encodeInto(arena.execution, encoded);

    SignatureAccumulator acc;
    acc.record(encoded.signature);

    const std::uint64_t before = allocationsNow();
    for (int i = 0; i < 10; ++i)
        acc.record(encoded.signature);
    EXPECT_EQ(allocationsNow() - before, 0u);
    EXPECT_EQ(acc.uniqueCount(), 1u);
}

TEST(ZeroAllocation, CoherentArenaReuseBeatsFreshArenas)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-16"), 5);
    CoherentExecutor platform(gem5LikeConfig());

    // Warm the shared order-table cache before counting either mode.
    {
        Rng rng(3);
        RunArena arena;
        platform.runInto(program, rng, arena);
    }

    Rng fresh_rng(7);
    const std::uint64_t fresh_before = allocationsNow();
    for (int i = 0; i < 20; ++i) {
        RunArena arena;
        platform.runInto(program, fresh_rng, arena);
    }
    const std::uint64_t fresh_allocs = allocationsNow() - fresh_before;

    Rng reuse_rng(7);
    RunArena arena;
    for (int warm = 0; warm < 5; ++warm)
        platform.runInto(program, reuse_rng, arena);
    const std::uint64_t reuse_before = allocationsNow();
    for (int i = 0; i < 20; ++i)
        platform.runInto(program, reuse_rng, arena);
    const std::uint64_t reuse_allocs = allocationsNow() - reuse_before;

    // The coherent machine circulates message/queue capacities, so an
    // occasional growth allocation is legitimate; reuse must still be
    // far below per-run reconstruction.
    EXPECT_LT(reuse_allocs * 10, fresh_allocs)
        << "reuse " << reuse_allocs << " vs fresh " << fresh_allocs;
}

TEST(ZeroAllocation, DecodeAndEdgeDerivationSteadyState)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-16"), 3);
    const LoadValueAnalysis analysis(program);
    const InstrumentationPlan plan(program, analysis);
    const SignatureCodec codec(program, analysis, plan);
    OperationalExecutor platform(bareMetalConfig(Isa::X86));
    Rng rng(12);
    RunArena arena;
    EncodeResult encoded;
    platform.runInto(program, rng, arena);
    codec.encodeInto(arena.execution, encoded);

    Execution decoded;
    std::vector<std::uint64_t> word_scratch;
    WsOrder ws;
    DynamicEdgeSet edges;
    for (int warm = 0; warm < 3; ++warm) {
        codec.decodeInto(encoded.signature, decoded, word_scratch);
        ws.infer(program, decoded);
        dynamicEdgesInto(program, decoded, ws, edges);
    }

    const std::uint64_t before = allocationsNow();
    for (int i = 0; i < 10; ++i) {
        codec.decodeInto(encoded.signature, decoded, word_scratch);
        ws.infer(program, decoded);
        dynamicEdgesInto(program, decoded, ws, edges);
    }
    EXPECT_EQ(allocationsNow() - before, 0u);
}

/**
 * The whole streaming post-execution path — delta decode, incremental
 * ws inference, edge-diff derivation, and the diff-fed collective
 * checker — must be allocation-free once its buffers have seen the
 * signature sequence.
 */
void
expectStreamingCheckSteadyState(const char *config, std::uint64_t seed,
                                std::uint64_t run_seed)
{
    const TestProgram program =
        generateTest(parseConfigName(config), seed);
    const LoadValueAnalysis analysis(program);
    const InstrumentationPlan plan(program, analysis);
    const SignatureCodec codec(program, analysis, plan);
    OperationalExecutor platform(bareMetalConfig(program.config().isa));
    Rng rng(run_seed);
    RunArena arena;
    std::set<Signature> unique;
    for (int i = 0; i < 64; ++i) {
        platform.runInto(program, rng, arena);
        unique.insert(codec.encode(arena.execution).signature);
    }
    const std::vector<Signature> sorted(unique.begin(), unique.end());
    ASSERT_GT(sorted.size(), 2u);

    StreamDecoder stream(codec);
    WsOrder ws;
    EdgeDeriver deriver(program);
    EdgeDiff diff;
    CollectiveChecker checker(program, program.config().model());
    const auto pass = [&] {
        for (const Signature &signature : sorted) {
            const Execution &exec = stream.next(signature);
            const std::vector<std::uint32_t> &changed =
                stream.changedThreads();
            ws.inferDelta(program, exec, changed.data(),
                          changed.size());
            deriver.derive(exec, ws, changed.data(), changed.size(),
                           diff);
            checker.checkNextDiff(diff);
        }
    };
    pass(); // cold: every slice decodes, every unit builds
    pass(); // warm: capacities stabilized (incl. the wrap-around)
    const std::uint64_t before = allocationsNow();
    pass();
    EXPECT_EQ(allocationsNow() - before, 0u);
}

TEST(ZeroAllocation, StreamingCheckSteadyState)
{
    expectStreamingCheckSteadyState("x86-4-50-16", 7, 21);
}

TEST(ZeroAllocation, StreamingCheckSteadyStateSevenThreads)
{
    // Seven threads change the most loads per step, so the per-step
    // queues and diff buffers reach their largest high-water marks.
    expectStreamingCheckSteadyState("ARM-7-100-64", 7, 21);
}

// --- Reusable decode paths match their one-shot forms -----------------

TEST(HotPathEquivalence, DecodeIntoMatchesDecode)
{
    const TestProgram program =
        generateTest(parseConfigName("ARM-4-50-32"), 41);
    const LoadValueAnalysis analysis(program);
    const InstrumentationPlan plan(program, analysis);
    const SignatureCodec codec(program, analysis, plan);
    OperationalExecutor platform(bareMetalConfig(Isa::ARMv7));
    Rng rng(2);
    RunArena arena;
    Execution decoded;
    std::vector<std::uint64_t> word_scratch;
    for (int i = 0; i < 16; ++i) {
        platform.runInto(program, rng, arena);
        const EncodeResult encoded = codec.encode(arena.execution);
        codec.decodeInto(encoded.signature, decoded, word_scratch);
        EXPECT_EQ(decoded.loadValues,
                  codec.decode(encoded.signature).loadValues);
        EXPECT_EQ(decoded.loadValues, arena.execution.loadValues);
    }
}

TEST(HotPathEquivalence, ReinferredWsOrderMatchesFresh)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-16"), 19);
    OperationalExecutor platform(bareMetalConfig(Isa::X86));
    Rng rng(8);
    RunArena arena;
    WsOrder reused;
    for (int i = 0; i < 8; ++i) {
        platform.runInto(program, rng, arena);
        reused.infer(program, arena.execution);
        const WsOrder fresh(program, arena.execution);
        EXPECT_EQ(reused.coherenceViolation(),
                  fresh.coherenceViolation());
        for (std::uint32_t loc = 0;
             loc < program.config().numLocations; ++loc) {
            EXPECT_EQ(reused.successorsOf(loc, std::nullopt),
                      fresh.successorsOf(loc, std::nullopt));
            EXPECT_EQ(reused.orderedPairs(loc),
                      fresh.orderedPairs(loc));
        }
        EXPECT_EQ(dynamicEdges(program, arena.execution).edges,
                  dynamicEdges(program, arena.execution, fresh).edges);
    }
}

// --- O(1) forwarding table --------------------------------------------

TEST(OrderTable, PriorStoreMatchesBruteForce)
{
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
        const TestProgram program =
            generateTest(parseConfigName("ARM-4-100-64"), seed);
        OrderTable table;
        table.build(program, MemoryModel::RMO);

        const auto &threads = program.threadBodies();
        for (std::uint32_t tid = 0; tid < threads.size(); ++tid) {
            const auto &body = threads[tid];
            for (std::uint32_t idx = 0; idx < body.size(); ++idx) {
                std::uint32_t expected = kNoPriorStore;
                if (body[idx].kind != OpKind::Fence) {
                    for (std::uint32_t j = idx; j-- > 0;) {
                        if (body[j].kind == OpKind::Store &&
                            body[j].loc == body[idx].loc) {
                            expected = j;
                            break;
                        }
                    }
                }
                ASSERT_EQ(table.priorStore[tid][idx], expected)
                    << "t" << tid << " op" << idx;
            }
        }
    }
}

// --- Phase profiler ---------------------------------------------------

TEST(Profiler, DisabledScopesNeverRecord)
{
    PhaseProfiler prof(false);
    {
        auto scope = prof.scope(Phase::Execute);
        auto inner = prof.scope(Phase::Encode);
    }
    const PhaseBreakdown breakdown = prof.take();
    EXPECT_FALSE(breakdown.enabled());
    EXPECT_EQ(breakdown.sumNs(), 0u);
    EXPECT_EQ(breakdown.totalNs, 0u);
    EXPECT_EQ(breakdown.coverage(), 0.0);
}

TEST(Profiler, ScopesAccountWithinTotal)
{
    PhaseProfiler prof(true);
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 50; ++i) {
        auto scope = prof.scope(Phase::Execute);
        for (int j = 0; j < 1000; ++j)
            sink += static_cast<std::uint64_t>(j);
    }
    {
        auto scope = prof.scope(Phase::Check);
        for (int j = 0; j < 1000; ++j)
            sink += static_cast<std::uint64_t>(j);
    }
    const PhaseBreakdown breakdown = prof.take();
    EXPECT_TRUE(breakdown.enabled());
    EXPECT_EQ(breakdown.phaseCount(Phase::Execute), 50u);
    EXPECT_EQ(breakdown.phaseCount(Phase::Check), 1u);
    EXPECT_EQ(breakdown.phaseCount(Phase::Decode), 0u);
    EXPECT_GT(breakdown.phaseNs(Phase::Execute), 0u);
    // Scopes are disjoint here, so their sum is bounded by the
    // profiler's own lifetime.
    EXPECT_LE(breakdown.sumNs(), breakdown.totalNs);
    EXPECT_GT(breakdown.coverage(), 0.0);
    EXPECT_LE(breakdown.coverage(), 1.0);
}

TEST(Profiler, MergeAddsCountersAndTotals)
{
    PhaseBreakdown a;
    a.ns[static_cast<std::size_t>(Phase::Execute)] = 100;
    a.count[static_cast<std::size_t>(Phase::Execute)] = 2;
    a.totalNs = 150;
    PhaseBreakdown b;
    b.ns[static_cast<std::size_t>(Phase::Execute)] = 50;
    b.count[static_cast<std::size_t>(Phase::Execute)] = 1;
    b.ns[static_cast<std::size_t>(Phase::Decode)] = 25;
    b.count[static_cast<std::size_t>(Phase::Decode)] = 1;
    b.totalNs = 100;

    a.merge(b);
    EXPECT_EQ(a.phaseNs(Phase::Execute), 150u);
    EXPECT_EQ(a.phaseCount(Phase::Execute), 3u);
    EXPECT_EQ(a.phaseNs(Phase::Decode), 25u);
    EXPECT_EQ(a.totalNs, 250u);
    EXPECT_EQ(a.sumNs(), 175u);
}

TEST(Profiler, FlowProfileCoversItsWallClock)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-16"), 29);
    FlowConfig cfg;
    cfg.iterations = 64;
    cfg.seed = 99;
    cfg.runConventional = false;
    cfg.exec = bareMetalConfig(Isa::X86);
    cfg.profile = true;
    cfg.batch = 1; // one Execute dispatch per iteration
    const FlowResult result = ValidationFlow(cfg).runTest(program);
    ASSERT_TRUE(result.profile.enabled());
    EXPECT_EQ(result.profile.phaseCount(Phase::Execute),
              result.iterationsRun);
    EXPECT_EQ(result.profile.phaseCount(Phase::BatchDispatch),
              result.iterationsRun);
    EXPECT_EQ(result.profile.phaseCount(Phase::Instrument), 1u);
    EXPECT_LE(result.profile.sumNs(), result.profile.totalNs);
    // The flow is phase-timed wall to wall; anything below ~80%
    // coverage would mean a phase lost its scope.
    EXPECT_GT(result.profile.coverage(), 0.8);

    cfg.profile = false;
    const FlowResult off = ValidationFlow(cfg).runTest(program);
    EXPECT_FALSE(off.profile.enabled());
    EXPECT_EQ(off.uniqueSignatures, result.uniqueSignatures);
}

// --- FaultReport accounting (satellite fixes) -------------------------

TEST(FaultReport, QuarantinedCountDerivesFromList)
{
    FaultReport report;
    EXPECT_EQ(report.quarantinedCount(), 0u);
    report.quarantined.push_back(QuarantinedSignature{});
    report.quarantined.push_back(QuarantinedSignature{});
    EXPECT_EQ(report.quarantinedCount(), 2u);
}

TEST(FaultReport, AnyFaultActivityCoversConfirmationRuns)
{
    FaultReport report;
    EXPECT_FALSE(report.anyFaultActivity());

    // A confirmed violation burns re-executions even when nothing was
    // reclassified; that platform time must count as fault activity.
    report.confirmationRunsUsed = 2;
    EXPECT_TRUE(report.anyFaultActivity());

    report = FaultReport{};
    report.transientViolations = 1;
    EXPECT_TRUE(report.anyFaultActivity());

    report = FaultReport{};
    report.quarantined.push_back(QuarantinedSignature{});
    EXPECT_TRUE(report.anyFaultActivity());

    report = FaultReport{};
    report.crashRetries = 1;
    EXPECT_TRUE(report.anyFaultActivity());
}

} // anonymous namespace
} // namespace mtc
