/**
 * @file
 * Google-benchmark microbenchmarks of MTraceCheck's hot kernels:
 * signature encode/decode, observed-edge derivation, and the two
 * checkers over a realistic unique-execution set. These complement the
 * figure benches with stable, per-operation timings.
 *
 * Run: ./build/bench/micro_kernels [--benchmark_filter=...]
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/collective_checker.h"
#include "core/conventional_checker.h"
#include "core/instr_plan.h"
#include "core/load_analysis.h"
#include "core/signature_codec.h"
#include "graph/graph_builder.h"
#include "graph/topo_sort.h"
#include "graph/ws_inference.h"
#include "sim/executor.h"
#include "sim/order_table.h"
#include "testgen/generator.h"

namespace
{

using namespace mtc;

/** Shared fixture: one test + its unique executions and edge sets. */
struct Workload
{
    TestProgram program;
    LoadValueAnalysis analysis;
    InstrumentationPlan plan;
    SignatureCodec codec;
    std::vector<Execution> executions;   ///< one per unique signature
    std::vector<Signature> signatures;   ///< ascending
    std::vector<DynamicEdgeSet> edgeSets;

    explicit Workload(const char *config_name, std::uint64_t iterations)
        : program(generateTest(parseConfigName(config_name), 42)),
          analysis(program), plan(program, analysis),
          codec(program, analysis, plan)
    {
        OperationalExecutor platform(
            bareMetalConfig(program.config().isa));
        Rng rng(7);
        std::map<Signature, Execution> unique;
        for (std::uint64_t i = 0; i < iterations; ++i) {
            Execution execution = platform.run(program, rng);
            EncodeResult encoded = codec.encode(execution);
            unique.emplace(std::move(encoded.signature),
                           std::move(execution));
        }
        for (auto &[signature, execution] : unique) {
            signatures.push_back(signature);
            edgeSets.push_back(dynamicEdges(program, execution));
            executions.push_back(std::move(execution));
        }
    }
};

Workload &
workload()
{
    static Workload instance("x86-4-100-64", 2048);
    return instance;
}

void
BM_SignatureEncode(benchmark::State &state)
{
    Workload &w = workload();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            w.codec.encode(w.executions[i++ % w.executions.size()]));
    }
}
BENCHMARK(BM_SignatureEncode);

/** encode() into a reused buffer — the flow's per-iteration path. */
void
BM_SignatureEncodeReused(benchmark::State &state)
{
    Workload &w = workload();
    EncodeResult encoded;
    std::size_t i = 0;
    for (auto _ : state) {
        w.codec.encodeInto(w.executions[i++ % w.executions.size()],
                           encoded);
        benchmark::DoNotOptimize(encoded);
    }
}
BENCHMARK(BM_SignatureEncodeReused);

void
BM_SignatureDecode(benchmark::State &state)
{
    Workload &w = workload();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            w.codec.decode(w.signatures[i++ % w.signatures.size()]));
    }
}
BENCHMARK(BM_SignatureDecode);

/** decode() into reused buffers — the unique-signature loop's path. */
void
BM_SignatureDecodeReused(benchmark::State &state)
{
    Workload &w = workload();
    Execution decoded;
    std::vector<std::uint64_t> word_scratch;
    std::size_t i = 0;
    for (auto _ : state) {
        w.codec.decodeInto(w.signatures[i++ % w.signatures.size()],
                           decoded, word_scratch);
        benchmark::DoNotOptimize(decoded);
    }
}
BENCHMARK(BM_SignatureDecodeReused);

void
BM_DeriveObservedEdges(benchmark::State &state)
{
    Workload &w = workload();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dynamicEdges(
            w.program, w.executions[i++ % w.executions.size()]));
    }
}
BENCHMARK(BM_DeriveObservedEdges);

/** Edge derivation with persistent WsOrder/edge-set scratch. */
void
BM_DeriveObservedEdgesReused(benchmark::State &state)
{
    Workload &w = workload();
    WsOrder ws_order;
    DynamicEdgeSet edges;
    std::size_t i = 0;
    for (auto _ : state) {
        const Execution &execution =
            w.executions[i++ % w.executions.size()];
        ws_order.infer(w.program, execution);
        dynamicEdgesInto(w.program, execution, ws_order, edges);
        benchmark::DoNotOptimize(edges);
    }
}
BENCHMARK(BM_DeriveObservedEdgesReused);

/** Store-to-load forwarding via the precomputed priorStore table. */
void
BM_ForwardedValueTable(benchmark::State &state)
{
    Workload &w = workload();
    OrderTable table;
    table.build(w.program, w.program.config().model());
    const auto &threads = w.program.threadBodies();
    for (auto _ : state) {
        std::uint64_t hits = 0;
        for (std::size_t tid = 0; tid < threads.size(); ++tid) {
            const auto &prior = table.priorStore[tid];
            for (std::uint32_t idx = 0; idx < threads[tid].size();
                 ++idx) {
                if (threads[tid][idx].kind == OpKind::Load &&
                    prior[idx] != kNoPriorStore)
                    ++hits;
            }
        }
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_ForwardedValueTable);

/** The same forwarding query as an O(idx) backward scan per load. */
void
BM_ForwardedValueScan(benchmark::State &state)
{
    Workload &w = workload();
    const auto &threads = w.program.threadBodies();
    for (auto _ : state) {
        std::uint64_t hits = 0;
        for (std::size_t tid = 0; tid < threads.size(); ++tid) {
            const auto &body = threads[tid];
            for (std::uint32_t idx = 0; idx < body.size(); ++idx) {
                if (body[idx].kind != OpKind::Load)
                    continue;
                for (std::uint32_t j = idx; j-- > 0;) {
                    if (body[j].kind == OpKind::Store &&
                        body[j].loc == body[idx].loc) {
                        ++hits;
                        break;
                    }
                }
            }
        }
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_ForwardedValueScan);

void
BM_FullTopoSort(benchmark::State &state)
{
    Workload &w = workload();
    ConstraintGraph graph = buildFullGraph(
        w.program, w.executions.front(),
        w.program.config().model());
    for (auto _ : state)
        benchmark::DoNotOptimize(topologicalSort(graph));
}
BENCHMARK(BM_FullTopoSort);

void
BM_ConventionalCheckBatch(benchmark::State &state)
{
    Workload &w = workload();
    ConventionalChecker checker(w.program, w.program.config().model());
    for (auto _ : state) {
        ConventionalStats stats;
        benchmark::DoNotOptimize(checker.check(w.edgeSets, stats));
    }
    state.SetItemsProcessed(state.iterations() * w.edgeSets.size());
}
BENCHMARK(BM_ConventionalCheckBatch);

void
BM_CollectiveCheckBatch(benchmark::State &state)
{
    Workload &w = workload();
    for (auto _ : state) {
        CollectiveChecker checker(w.program,
                                  w.program.config().model());
        benchmark::DoNotOptimize(checker.check(w.edgeSets));
    }
    state.SetItemsProcessed(state.iterations() * w.edgeSets.size());
}
BENCHMARK(BM_CollectiveCheckBatch);

void
BM_PlatformIteration(benchmark::State &state)
{
    Workload &w = workload();
    OperationalExecutor platform(bareMetalConfig(w.program.config().isa));
    Rng rng(11);
    for (auto _ : state)
        benchmark::DoNotOptimize(platform.run(w.program, rng));
}
BENCHMARK(BM_PlatformIteration);

/** One platform run reusing a persistent arena (zero-alloc path). */
void
BM_PlatformIterationArena(benchmark::State &state)
{
    Workload &w = workload();
    OperationalExecutor platform(bareMetalConfig(w.program.config().isa));
    Rng rng(11);
    RunArena arena;
    for (auto _ : state) {
        platform.runInto(w.program, rng, arena);
        benchmark::DoNotOptimize(arena.execution);
    }
}
BENCHMARK(BM_PlatformIterationArena);

/**
 * The Timed scheduler at the shipped lockstep width: one 32-lane
 * runBatchInto() per iteration on one x86-4-100-64 (Arg 0) or
 * ARM-4-100-64 (Arg 1) test, fresh lane streams each batch.
 * `step_time` is seconds per scheduler step: a bug-free run takes one
 * step per op, so a batch is 32 × numOps() steps.
 */
void
BM_TimedBatch(benchmark::State &state)
{
    static const TestProgram x86 =
        generateTest(parseConfigName("x86-4-100-64"), 42);
    static const TestProgram arm =
        generateTest(parseConfigName("ARM-4-100-64"), 42);
    const TestProgram &program = state.range(0) == 0 ? x86 : arm;
    state.SetLabel(program.config().name());

    constexpr std::uint32_t kLanes = 32;
    OperationalExecutor platform(bareMetalConfig(program.config().isa));
    Rng master(11);
    std::vector<Rng> rngs(kLanes);
    std::vector<LaneStatus> status(kLanes);
    BatchRunArena batch;
    for (auto _ : state) {
        for (Rng &rng : rngs)
            rng = Rng(master());
        platform.runBatchInto(program, rngs.data(), kLanes, batch,
                              nullptr, status.data());
        benchmark::DoNotOptimize(batch.executions.data());
        benchmark::ClobberMemory();
    }
    state.counters["step_time"] = benchmark::Counter(
        double(state.iterations()) * kLanes * program.numOps(),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TimedBatch)->Arg(0)->Arg(1);

/** The sorted unique signature stream of one test. */
struct StreamWorkload
{
    TestProgram program;
    LoadValueAnalysis analysis;
    InstrumentationPlan plan;
    SignatureCodec codec;
    std::vector<Signature> sorted;

    StreamWorkload(const char *config_name, std::uint64_t iterations)
        : program(generateTest(parseConfigName(config_name), 42)),
          analysis(program), plan(program, analysis),
          codec(program, analysis, plan)
    {
        OperationalExecutor platform(
            bareMetalConfig(program.config().isa));
        Rng rng(7);
        RunArena arena;
        std::set<Signature> unique;
        for (std::uint64_t i = 0; i < iterations; ++i) {
            platform.runInto(program, rng, arena);
            unique.insert(codec.encode(arena.execution).signature);
        }
        sorted.assign(unique.begin(), unique.end());
    }
};

/**
 * The streaming graph-building stages over one test's sorted unique
 * stream: StreamDecoder, WsOrder::inferDelta and EdgeDeriver::derive.
 * The counters are exact work per delta step (every signature after
 * the first): segments re-walked, locations re-closed, loads and
 * locations re-derived and diff edges, beside the loads of the changed
 * threads — what thread-grain re-derivation touched.
 */
void
BM_StreamWsDerive(benchmark::State &state)
{
    static StreamWorkload arm("ARM-7-100-64", 2048);
    static StreamWorkload x86("x86-4-200-64", 2048);
    const StreamWorkload &w = state.range(0) == 0 ? arm : x86;
    state.SetLabel(w.program.config().name());

    const auto run = [&w](auto &&on_step) {
        StreamDecoder stream(w.codec);
        WsOrder ws;
        EdgeDeriver deriver(w.program);
        EdgeDiff diff;
        for (const Signature &signature : w.sorted) {
            const Execution &exec = stream.next(signature);
            const std::vector<std::uint32_t> &changed =
                stream.changedThreads();
            ws.inferDelta(w.program, exec, changed.data(),
                          changed.size());
            deriver.derive(exec, ws, changed.data(), changed.size(),
                           diff);
            on_step(changed, ws, deriver, diff);
        }
    };

    // Untimed counting pass.
    std::uint64_t steps = 0, segments = 0, closed = 0, loads = 0,
                  locs = 0, edges = 0, thread_loads = 0;
    run([&](const std::vector<std::uint32_t> &changed, const WsOrder &ws,
            const EdgeDeriver &deriver, const EdgeDiff &diff) {
        if (steps++ == 0) { // the first step is a full inference
            segments = ws.segmentsWalked();
            closed = ws.locationsClosed();
            loads = deriver.loadsDerived();
            locs = deriver.locationsDerived();
            return;
        }
        edges += diff.added.size() + diff.removed.size();
        for (const std::uint32_t tid : changed)
            thread_loads += w.program.loadsOfThread(tid).size();
        if (steps == w.sorted.size()) {
            segments = ws.segmentsWalked() - segments;
            closed = ws.locationsClosed() - closed;
            loads = deriver.loadsDerived() - loads;
            locs = deriver.locationsDerived() - locs;
        }
    });
    const double deltas = std::max<double>(1.0, double(steps) - 1.0);
    state.counters["segs_walked"] = double(segments) / deltas;
    state.counters["locs_closed"] = double(closed) / deltas;
    state.counters["loads_derived"] = double(loads) / deltas;
    state.counters["locs_derived"] = double(locs) / deltas;
    state.counters["diff_edges"] = double(edges) / deltas;
    state.counters["thread_loads"] = double(thread_loads) / deltas;

    for (auto _ : state) {
        run([](const std::vector<std::uint32_t> &, const WsOrder &,
               const EdgeDeriver &, const EdgeDiff &diff) {
            benchmark::DoNotOptimize(diff.added.data());
        });
    }
    state.SetItemsProcessed(state.iterations() * w.sorted.size());
}
BENCHMARK(BM_StreamWsDerive)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
