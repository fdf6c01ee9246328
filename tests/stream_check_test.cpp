/**
 * @file
 * Streaming checking pipeline equivalences: the sorted-stream delta
 * decode, the incremental edge derivation, and the diff-fed collective
 * checker must each be bit-identical to their from-scratch forms — and
 * the shipped checking stage (checkSignatureStream), run over a flow's
 * own sorted signature stream, must reproduce the barrier oracle's
 * (barrier_reference.h) verdicts, checker stats, quarantine ordering,
 * witness, and kept executions at every window, thread count, and
 * fault mix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/collective_checker.h"
#include "core/load_analysis.h"
#include "core/signature_codec.h"
#include "graph/graph_builder.h"
#include "harness/campaign_plan.h"
#include "harness/validation_flow.h"
#include "sim/executor.h"
#include "testgen/generator.h"
#include "barrier_reference.h"
#include "ws_reference.h"

namespace mtc
{
namespace
{

/** Sorted unique signatures of a short campaign on @p program. */
std::vector<Signature>
sortedUniques(const TestProgram &program, const SignatureCodec &codec,
              const ExecutorConfig &exec, std::uint64_t seed, int runs)
{
    OperationalExecutor platform(exec);
    Rng rng(seed);
    RunArena arena;
    std::set<Signature> unique;
    for (int i = 0; i < runs; ++i) {
        platform.runInto(program, rng, arena);
        unique.insert(codec.encode(arena.execution).signature);
    }
    return {unique.begin(), unique.end()};
}

void
expectSameStats(const CollectiveStats &a, const CollectiveStats &b)
{
    EXPECT_EQ(a.graphsChecked, b.graphsChecked);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.completeSorts, b.completeSorts);
    EXPECT_EQ(a.noResortNeeded, b.noResortNeeded);
    EXPECT_EQ(a.incrementalResorts, b.incrementalResorts);
    EXPECT_EQ(a.affectedFraction.count(), b.affectedFraction.count());
    EXPECT_EQ(a.affectedFraction.sum(), b.affectedFraction.sum());
    EXPECT_EQ(a.verticesProcessed, b.verticesProcessed);
    EXPECT_EQ(a.edgesProcessed, b.edgesProcessed);
}

void
expectSameFlowResult(const FlowResult &a, const FlowResult &b)
{
    EXPECT_EQ(a.iterationsRun, b.iterationsRun);
    EXPECT_EQ(a.uniqueSignatures, b.uniqueSignatures);
    EXPECT_EQ(a.signatureSetDigest, b.signatureSetDigest);
    EXPECT_EQ(a.violatingSignatures, b.violatingSignatures);
    EXPECT_EQ(a.violationWitness, b.violationWitness);
    expectSameStats(a.collective, b.collective);
    EXPECT_EQ(a.conventional.graphsChecked,
              b.conventional.graphsChecked);
    EXPECT_EQ(a.conventional.violations, b.conventional.violations);
    EXPECT_EQ(a.fault.decodedSignatures, b.fault.decodedSignatures);
    EXPECT_EQ(a.fault.quarantinedIterations,
              b.fault.quarantinedIterations);
    ASSERT_EQ(a.fault.quarantined.size(), b.fault.quarantined.size());
    for (std::size_t i = 0; i < a.fault.quarantined.size(); ++i) {
        const QuarantinedSignature &qa = a.fault.quarantined[i];
        const QuarantinedSignature &qb = b.fault.quarantined[i];
        EXPECT_EQ(qa.signature, qb.signature);
        EXPECT_EQ(qa.iterations, qb.iterations);
        EXPECT_EQ(qa.kind, qb.kind);
        EXPECT_EQ(qa.thread, qb.thread);
        EXPECT_EQ(qa.word, qb.word);
        EXPECT_EQ(qa.detail, qb.detail);
    }
}

// --- Incremental edge derivation ≡ from-scratch dynamicEdges ----------

/**
 * Drives the incremental pipeline — WsOrder::inferDelta,
 * EdgeDeriver::derive and the diff-fed collective checker — one
 * execution at a time and checks every step against from-scratch
 * oracles: the reference ws inference (every reach bit, the violation
 * flag, locChanged), dynamicEdges (the maintained edge list and its
 * violation flag), and a collective checker fed the from-scratch edge
 * lists (verdicts; stats at finish()). The oracles read their own
 * execution, so a stream's delta decode is checked against a full one.
 */
class OracleStream
{
  public:
    OracleStream(const TestProgram &program_arg, MemoryModel model)
        : program(program_arg), deriver(program_arg),
          diffed(program_arg, model), full(program_arg, model)
    {}

    /** One step; @p changed lists the threads whose values may differ
     * from the previous step's. The incremental pipeline reads @p exec,
     * the oracles @p fresh. Returns the diff-fed verdict. */
    bool
    step(const Execution &exec, const std::vector<std::uint32_t> &changed,
         const Execution &fresh)
    {
        ws.inferDelta(program, exec, changed.data(), changed.size());
        deriver.derive(exec, ws, changed.data(), changed.size(), diff);
        applyEdgeDiff(maintained, diff, scratch);

        ReferenceWsOrder ref;
        ref.infer(program, fresh);
        expectMatchesReference(ws, ref, steps ? &prev : nullptr,
                               program.config().numLocations);
        prev = ref;

        const DynamicEdgeSet oracle = dynamicEdges(program, fresh);
        EXPECT_EQ(maintained, oracle.edges) << "step " << steps;
        EXPECT_EQ(diff.coherenceViolation, oracle.coherenceViolation);
        EXPECT_EQ(diff.coherenceViolation, ref.coherenceViolation());

        const bool verdict = diffed.checkNextDiff(diff);
        EXPECT_EQ(verdict, full.checkNext(oracle)) << "step " << steps;
        ++steps;
        violations += verdict ? 1 : 0;
        return verdict;
    }

    /** step() on a hand-made execution, read by both sides. */
    bool
    step(const Execution &exec, const std::vector<std::uint32_t> &changed)
    {
        return step(exec, changed, exec);
    }

    /** Step through @p signatures with a delta decoder, checked against
     * a full decode of each; a corrupt one must throw from both and is
     * skipped, as the flow quarantines it. */
    void
    decodeAll(const SignatureCodec &codec,
              const std::vector<Signature> &signatures)
    {
        StreamDecoder stream(codec);
        for (const Signature &signature : signatures) {
            const Execution *exec = nullptr;
            try {
                exec = &stream.next(signature);
            } catch (const SignatureDecodeError &) {
                EXPECT_THROW(codec.decode(signature), SignatureDecodeError);
                ++quarantined;
                continue;
            }
            const Execution fresh = codec.decode(signature);
            EXPECT_EQ(exec->loadValues, fresh.loadValues)
                << "step " << steps;
            step(*exec, stream.changedThreads(), fresh);
        }
    }

    void finish() const { expectSameStats(diffed.stats(), full.stats()); }

    std::uint64_t steps = 0;
    std::uint64_t violations = 0;
    std::uint64_t quarantined = 0;

  private:
    const TestProgram &program;
    WsOrder ws;
    EdgeDeriver deriver;
    EdgeDiff diff;
    std::vector<Edge> maintained; // full list kept current via diffs
    std::vector<Edge> scratch;
    ReferenceWsOrder prev;
    CollectiveChecker diffed;
    CollectiveChecker full;
};

/** Threads whose load values differ between @p a and @p b. */
std::vector<std::uint32_t>
changedThreads(const TestProgram &program, const Execution &a,
               const Execution &b)
{
    std::vector<std::uint32_t> changed;
    for (std::uint32_t ordinal = 0; ordinal < program.loads().size();
         ++ordinal) {
        const std::uint32_t tid = program.loads()[ordinal].tid;
        if (a.loadValues[ordinal] != b.loadValues[ordinal] &&
            (changed.empty() || changed.back() != tid))
            changed.push_back(tid);
    }
    return changed;
}

class IncrementalEdges : public ::testing::TestWithParam<const char *>
{};

TEST_P(IncrementalEdges, MatchesFromScratchDerivation)
{
    const TestConfig cfg = parseConfigName(GetParam());
    const TestProgram program = generateTest(cfg, 23);
    const LoadValueAnalysis analysis(program);
    const InstrumentationPlan plan(program, analysis);
    const SignatureCodec codec(program, analysis, plan);
    const ExecutorConfig exec = bareMetalConfig(cfg.isa);
    const std::vector<Signature> sorted =
        sortedUniques(program, codec, exec, 91, 96);
    ASSERT_GT(sorted.size(), 3u);

    OracleStream oracle(program, cfg.model());
    oracle.decodeAll(codec, sorted);
    EXPECT_EQ(oracle.steps, sorted.size());
    oracle.finish();
}

INSTANTIATE_TEST_SUITE_P(Models, IncrementalEdges,
                         ::testing::Values("x86-4-100-64",
                                           "ARM-7-100-64",
                                           "ARM-4-50-16"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

/** One unit of the campaign `--config x86-4-50-8 --platform mesi
 * --bug lsq --bug-prob 0.5 --tests 4 --iterations 1024 --seed 3`. */
struct BuggyUnit
{
    TestProgram program;
    std::vector<Signature> sorted;
    std::uint64_t violatingSignatures = 0;
};

std::vector<BuggyUnit>
lsqBugUnits()
{
    const TestConfig cfg = parseConfigName("x86-4-50-8");
    CampaignConfig campaign;
    campaign.iterations = 1024;
    campaign.testsPerConfig = 4;
    campaign.seed = 3;
    campaign.variant = PlatformVariant::Mesi;
    campaign.bug = BugKind::LsqNoSquash;
    campaign.bugProbability = 0.5;
    campaign.keepSignatureStreams = true;
    const FlowConfig flow = flowTemplate(cfg, campaign);
    std::vector<BuggyUnit> units;
    const std::vector<TestPlan> plans = deriveTestPlans(cfg, campaign);
    for (unsigned i = 0; i < plans.size(); ++i) {
        const TestOutcome outcome =
            runPlannedTest(cfg, flow, plans[i], campaign, i, nullptr);
        EXPECT_TRUE(outcome.ok);
        EXPECT_EQ(outcome.retriesUsed, 0u);
        BuggyUnit unit{generateTest(cfg, plans[i].genSeed), {},
                       outcome.result.violatingSignatures};
        for (const SignatureCount &entry : outcome.result.signatureStream)
            unit.sorted.push_back(entry.signature);
        units.push_back(std::move(unit));
    }
    return units;
}

TEST(IncrementalEdgesAdversarial, ViolatingMesiStreamSortedAndShuffled)
{
    // The LSQ no-squash bug makes load->load reorderings visible, so
    // the stream carries cyclic graphs and contradicted coherence
    // orders — the states a bare-metal stream never reaches.
    std::uint64_t violating = 0;
    for (const BuggyUnit &unit : lsqBugUnits()) {
        const LoadValueAnalysis analysis(unit.program);
        const InstrumentationPlan plan(unit.program, analysis);
        const SignatureCodec codec(unit.program, analysis, plan);

        OracleStream sorted(unit.program, unit.program.config().model());
        sorted.decodeAll(codec, unit.sorted);
        sorted.finish();
        EXPECT_EQ(sorted.violations, unit.violatingSignatures);
        violating += sorted.violations;

        // Out of order, adjacent signatures share fewer slices and the
        // delta steps span many threads and locations at once.
        std::vector<Signature> shuffled = unit.sorted;
        std::shuffle(shuffled.begin(), shuffled.end(),
                     std::mt19937_64(unit.sorted.size()));
        OracleStream unsorted(unit.program, unit.program.config().model());
        unsorted.decodeAll(codec, shuffled);
        unsorted.finish();
        EXPECT_EQ(unsorted.violations, sorted.violations);
    }
    EXPECT_GT(violating, 0u); // 1321 when written
}

TEST(IncrementalEdgesAdversarial, CorruptSignatureBetweenGoodOnes)
{
    const TestProgram program =
        generateTest(parseConfigName("ARM-4-50-16"), 6);
    const LoadValueAnalysis analysis(program);
    const InstrumentationPlan plan(program, analysis);
    const SignatureCodec codec(program, analysis, plan);
    const std::vector<Signature> sorted = sortedUniques(
        program, codec, bareMetalConfig(Isa::ARMv7), 5, 64);
    ASSERT_GT(sorted.size(), 4u);

    // A word past every accumulated weight fails to decode mid-stream;
    // the decoder has then re-decoded some threads without a
    // successful step, which the next changed-thread list must cover.
    std::vector<Signature> stream;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        stream.push_back(sorted[i]);
        if (i % 3 == 1) {
            Signature corrupt = sorted[i];
            corrupt.words[corrupt.words.size() / 2] = ~std::uint64_t(0);
            stream.push_back(corrupt);
        }
    }
    OracleStream oracle(program, program.config().model());
    oracle.decodeAll(codec, stream);
    EXPECT_EQ(oracle.steps, sorted.size());
    EXPECT_GT(oracle.quarantined, 0u);
    oracle.finish();
}

TEST(IncrementalEdgesAdversarial, ImpossibleLoadValues)
{
    // Hand-made executions a decoder never yields: a load of a value
    // no store wrote, and a load of the initial value after its own
    // thread's store to that location, each between legal executions.
    const TestProgram program =
        generateTest(parseConfigName("x86-4-50-8"), 12);
    OperationalExecutor platform(bareMetalConfig(Isa::X86));
    Rng rng(4);
    std::vector<Execution> legal;
    for (int i = 0; i < 6; ++i)
        legal.push_back(platform.run(program, rng));

    std::optional<std::uint32_t> after_own_store;
    for (std::uint32_t ordinal = 0;
         ordinal < program.loads().size() && !after_own_store; ++ordinal) {
        const OpId load = program.loads()[ordinal];
        for (std::uint32_t idx = 0; idx < load.idx; ++idx) {
            const MemOp &op = program.op({load.tid, idx});
            if (op.kind == OpKind::Store && op.loc == program.op(load).loc)
                after_own_store = ordinal;
        }
    }
    ASSERT_TRUE(after_own_store.has_value());

    std::vector<Execution> sequence;
    for (std::size_t i = 0; i < legal.size(); ++i) {
        sequence.push_back(legal[i]);
        Execution bad = legal[i];
        if (i % 2 == 0)
            bad.loadValues[(i * 7) % bad.loadValues.size()] = 0x00c0ffeeu;
        else
            bad.loadValues[*after_own_store] = kInitValue;
        sequence.push_back(bad);
    }

    OracleStream oracle(program, program.config().model());
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        std::vector<std::uint32_t> changed;
        for (std::uint32_t tid = 0; tid < program.numThreads(); ++tid)
            changed.push_back(tid); // the first step infers from scratch
        if (i > 0)
            changed = changedThreads(program, sequence[i - 1], sequence[i]);
        const bool verdict = oracle.step(sequence[i], changed);
        if (i % 2 == 1) {
            EXPECT_TRUE(verdict) << "step " << i;
        }
    }
    oracle.finish();
}

// --- checkNextDiff ≡ checkNext ----------------------------------------

TEST(StreamingChecker, DiffFedCheckerMatchesFullListChecker)
{
    const TestConfig cfg = parseConfigName("ARM-4-100-64");
    const TestProgram program = generateTest(cfg, 4);
    const LoadValueAnalysis analysis(program);
    const InstrumentationPlan plan(program, analysis);
    const SignatureCodec codec(program, analysis, plan);
    const std::vector<Signature> sorted = sortedUniques(
        program, codec, bareMetalConfig(cfg.isa), 17, 128);
    ASSERT_GT(sorted.size(), 3u);

    StreamDecoder stream(codec);
    WsOrder ws;
    EdgeDeriver deriver(program);
    EdgeDiff diff;
    CollectiveChecker diffed(program, MemoryModel::RMO);
    CollectiveChecker full(program, MemoryModel::RMO);
    DynamicEdgeSet full_edges;
    std::vector<Edge> scratch;
    for (const Signature &signature : sorted) {
        const Execution &exec = stream.next(signature);
        const std::vector<std::uint32_t> &changed =
            stream.changedThreads();
        ws.inferDelta(program, exec, changed.data(), changed.size());
        deriver.derive(exec, ws, changed.data(), changed.size(), diff);
        applyEdgeDiff(full_edges.edges, diff, scratch);
        full_edges.coherenceViolation = diff.coherenceViolation;
        EXPECT_EQ(diffed.checkNextDiff(diff),
                  full.checkNext(full_edges));
    }
    expectSameStats(diffed.stats(), full.stats());
}

// --- Streaming stage ≡ barrier oracle ----------------------------------

/**
 * Run @p cfg's flow on @p program, keeping its sorted unique stream,
 * then check that stream twice with @p cfg: through the shipped stage
 * (checkSignatureStream) and through the barrier oracle. Both results
 * carry the flow's execution-side fields, so the pair compares field
 * for field. The flow's own result is not compared: its confirmation
 * re-executions may rewrite the stage's verdicts after checking.
 */
std::pair<FlowResult, FlowResult>
streamedAndBarrier(const TestProgram &program, FlowConfig cfg)
{
    cfg.keepSignatures = true;
    const FlowResult flow = ValidationFlow(cfg).runTest(program);

    const LoadValueAnalysis analysis(program, cfg.analysis);
    const InstrumentationPlan plan(program, analysis);
    const SignatureCodec codec(program, analysis, plan);
    std::pair<FlowResult, FlowResult> results;
    for (FlowResult *r : {&results.first, &results.second}) {
        r->iterationsRun = flow.iterationsRun;
        r->uniqueSignatures = flow.uniqueSignatures;
        r->signatureSetDigest = flow.signatureSetDigest;
    }
    PhaseProfiler prof(false);
    std::vector<bool> verdicts, barrier_verdicts;
    std::vector<std::size_t> decoded, barrier_decoded;
    checkSignatureStream(program, codec, cfg.exec.model, cfg,
                         flow.signatureStream, prof, results.first,
                         verdicts, decoded);
    barrierCheckSignatureStream(program, codec, cfg.exec.model, cfg,
                                flow.signatureStream, prof,
                                results.second, barrier_verdicts,
                                barrier_decoded);
    EXPECT_EQ(verdicts, barrier_verdicts);
    EXPECT_EQ(decoded, barrier_decoded);
    return results;
}

FlowConfig
faultedFlow(std::uint64_t iterations)
{
    FlowConfig cfg;
    cfg.iterations = iterations;
    cfg.seed = 77;
    cfg.exec = bareMetalConfig(Isa::ARMv7);
    cfg.fault.bitFlipRate = 0.03;
    cfg.fault.truncationRate = 0.02;
    return cfg;
}

TEST(StreamingFlow, FaultedQuarantineIdenticalToBarrier)
{
    const TestProgram program =
        generateTest(parseConfigName("ARM-4-100-64"), 13);

    const auto [streamed, barrier] =
        streamedAndBarrier(program, faultedFlow(512));

    // A faulted readout must quarantine something for this test to
    // mean anything; the corruption that decodes also yields cyclic
    // graphs, so the witness path runs too.
    ASSERT_GT(streamed.fault.quarantined.size(), 0u);
    EXPECT_GT(streamed.violatingSignatures, 0u);
    expectSameFlowResult(streamed, barrier);

    // Streaming accounting only exists on the streaming side.
    EXPECT_GT(streamed.sliceReuses + streamed.sliceDecodes, 0u);
    EXPECT_EQ(barrier.sliceReuses + barrier.sliceDecodes, 0u);
}

TEST(StreamingFlow, WindowsAndThreadsAreBitIdentical)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-100-64"), 29);

    FlowConfig base;
    base.iterations = 384;
    base.seed = 5;
    base.exec = bareMetalConfig(Isa::X86);

    for (std::size_t window : {std::size_t(1), std::size_t(7),
                               std::size_t(64), std::size_t(0)}) {
        for (unsigned threads : {1u, 2u}) {
            FlowConfig cfg = base;
            cfg.streamWindow = window;
            cfg.threads = threads;
            const auto [streamed, barrier] =
                streamedAndBarrier(program, cfg);
            expectSameFlowResult(streamed, barrier);
        }
    }
}

TEST(StreamingFlow, KeptExecutionsMatchBarrier)
{
    const TestProgram program =
        generateTest(parseConfigName("ARM-4-50-16"), 3);
    FlowConfig cfg;
    cfg.iterations = 256;
    cfg.seed = 11;
    cfg.exec = bareMetalConfig(Isa::ARMv7);
    cfg.keepExecutions = true;

    const auto [streamed, barrier] = streamedAndBarrier(program, cfg);

    ASSERT_EQ(streamed.executions.size(), barrier.executions.size());
    ASSERT_GT(streamed.executions.size(), 0u);
    for (std::size_t i = 0; i < streamed.executions.size(); ++i) {
        EXPECT_EQ(streamed.executions[i].loadValues,
                  barrier.executions[i].loadValues);
    }
}

} // anonymous namespace
} // namespace mtc
