#include "harness/validation_flow.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "core/instr_plan.h"
#include "core/signature_accumulator.h"
#include "core/signature_codec.h"
#include "graph/cycle_report.h"
#include "graph/graph_builder.h"
#include "graph/po_edges.h"
#include "harness/check_pipeline.h"
#include "sim/executor.h"
#include "support/journal.h"
#include "support/log.h"
#include "support/thread_pool.h"

namespace mtc
{

namespace
{

/**
 * Device-side sorting cost of recording one iteration's signature
 * (the Figure 10 perturbation input). The instrumented test keeps its
 * signatures in a balanced BST, so one insert searches a tree of
 * @p unique_before nodes: floor(log2(u)) + 1 comparisons, 0 into an
 * empty tree. The host no longer pays this walk — the accumulator is
 * a hash table — but the model still charges it, because the paper's
 * sorting-overhead component describes the device, not the host.
 */
std::uint64_t
bstInsertComparisons(std::uint64_t unique_before)
{
    return unique_before ? std::bit_width(unique_before) : 0;
}

/**
 * Streaming decode→derive→check over the sorted unique signatures.
 *
 * The producer (calling thread) delta-decodes each signature against
 * the previous one (StreamDecoder), incrementally re-infers the ws
 * order for the changed threads (WsOrder::inferDelta), derives the
 * per-signature edge *diff* (EdgeDeriver), and runs the optional
 * conventional baseline on an incrementally maintained full edge
 * list. The consumer applies each diff to one stateful
 * CollectiveChecker. With a worker pool the consumer runs on a pool
 * worker behind a bounded channel (O(window) diffs in flight);
 * without one the check happens inline. The consumer applies the
 * diffs in stream order either way, so verdicts and stats are
 * bit-identical at every window and thread count.
 *
 * Quarantine entries are appended in ascending signature order (the
 * producer walks the sorted sequence), and a decode fault leaves the
 * stream decoder in a defined state, so the quarantine list, kept
 * executions, and decoded sequence are those of a from-scratch decode
 * of every signature.
 */
void
streamDecodeAndCheck(const TestProgram &program, MemoryModel model,
                     const SignatureCodec &codec, const FlowConfig &cfg,
                     const std::vector<SignatureCount> &unique,
                     ThreadPool *pool, PhaseProfiler &prof,
                     FlowResult &result,
                     std::vector<bool> &collective_verdicts,
                     std::vector<std::size_t> &decoded_unique_idx)
{
    using Clock = std::chrono::steady_clock;
    const auto ns_since = [](Clock::time_point t0) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
    };

    StreamDecoder stream(codec);
    WsOrder ws;
    EdgeDeriver deriver(program);
    EdgeDiff diff;

    CollectiveChecker checker(program, model);

    std::optional<ConventionalChecker> conventional;
    DynamicEdgeSet conv_edges;
    std::vector<Edge> conv_scratch;
    std::vector<bool> conventional_verdicts;
    if (cfg.runConventional) {
        conventional.emplace(program, model);
        conventional_verdicts.reserve(unique.size());
    }

    collective_verdicts.assign(unique.size(), false);

    std::uint64_t decode_ns = 0;
    std::uint64_t check_ns = 0;
    std::uint64_t conv_ns = 0;

    const auto check_item = [&](const EdgeDiff &d,
                                std::size_t decoded_idx) {
        const auto t0 = Clock::now();
        collective_verdicts[decoded_idx] = checker.checkNextDiff(d);
        check_ns += ns_since(t0);
    };

    struct StreamItem
    {
        EdgeDiff diff;
        std::size_t decodedIdx = 0;
    };
    const bool overlapped = pool != nullptr && pool->size() > 1;
    std::optional<BoundedChannel<StreamItem>> channel;
    std::future<void> consumer_done;
    if (overlapped) {
        channel.emplace(cfg.streamWindow);
        auto done = std::make_shared<std::promise<void>>();
        consumer_done = done->get_future();
        // The single consumer keeps checking strictly sequential (each
        // diff applies to the previous graph), so any worker count
        // yields the same verdicts and stats as the inline path.
        pool->submit([&, done] {
            try {
                StreamItem item;
                while (channel->pop(item))
                    check_item(item.diff, item.decodedIdx);
                done->set_value();
            } catch (...) {
                done->set_exception(std::current_exception());
                channel->poison();
            }
        });
    }

    for (std::size_t i = 0; i < unique.size(); ++i) {
        const auto t0 = Clock::now();
        const Execution *exec = nullptr;
        try {
            exec = &stream.next(unique[i].signature);
        } catch (const SignatureDecodeError &err) {
            result.fault.quarantined.push_back(
                {unique[i].signature, unique[i].iterations, err.kind(),
                 err.thread(), err.word(), err.what()});
            result.fault.quarantinedIterations += unique[i].iterations;
            decode_ns += ns_since(t0);
            continue;
        }
        const std::vector<std::uint32_t> &changed =
            stream.changedThreads();
        ws.inferDelta(program, *exec, changed.data(), changed.size());
        deriver.derive(*exec, ws, changed.data(), changed.size(),
                       diff);

        const std::size_t decoded_idx = decoded_unique_idx.size();
        decoded_unique_idx.push_back(i);
        if (cfg.keepExecutions)
            result.executions.push_back(*exec);
        decode_ns += ns_since(t0);

        if (conventional) {
            // The baseline checks every execution's *full* graph; the
            // full edge list is maintained by one merge per diff
            // instead of a per-signature rebuild + sort.
            const auto t1 = Clock::now();
            applyEdgeDiff(conv_edges.edges, diff, conv_scratch);
            conv_edges.coherenceViolation = diff.coherenceViolation;
            conventional_verdicts.push_back(
                conventional->checkOne(conv_edges,
                                       result.conventional));
            conv_ns += ns_since(t1);
        }

        if (!overlapped) {
            check_item(diff, decoded_idx);
        } else {
            StreamItem item;
            item.diff = std::move(diff);
            diff.clear();
            item.decodedIdx = decoded_idx;
            if (!channel->push(std::move(item)))
                break; // consumer died; rethrown below
        }
    }

    if (overlapped) {
        channel->close();
        consumer_done.get(); // joins the consumer; rethrows its error
    }
    result.collective = checker.stats();

    collective_verdicts.resize(decoded_unique_idx.size());
    result.sliceReuses = stream.slicesReused();
    result.sliceDecodes = stream.slicesDecoded();
    result.decodeMs = static_cast<double>(decode_ns) / 1e6;
    result.collectiveMs = static_cast<double>(check_ns) / 1e6;
    result.conventionalMs = static_cast<double>(conv_ns) / 1e6;
    // Scopes cannot span the producer/consumer hand-off, so the
    // accrued per-item times are credited in one entry per phase.
    prof.record(Phase::Decode, decode_ns, 1);
    prof.record(Phase::Check, check_ns + conv_ns, 1);

    // The two checkers must agree; this is also asserted by the
    // property tests, but a production run cross-checks too.
    if (conventional && conventional_verdicts != collective_verdicts) {
        warn("checker disagreement on test " +
             program.config().name());
    }
}

} // anonymous namespace

void
checkSignatureStream(const TestProgram &program,
                     const SignatureCodec &codec, MemoryModel model,
                     const FlowConfig &cfg,
                     const std::vector<SignatureCount> &unique,
                     PhaseProfiler &prof, FlowResult &result,
                     std::vector<bool> &collective_verdicts,
                     std::vector<std::size_t> &decoded_unique_idx)
{
    // The overlapped decode→check channel's consumer runs on this
    // pool; threads == 1 keeps everything on this thread.
    const unsigned flow_workers = ThreadPool::resolveThreads(cfg.threads);
    std::unique_ptr<ThreadPool> pool;
    if (flow_workers > 1)
        pool = std::make_unique<ThreadPool>(flow_workers);

    // --- Decode + observed-edge derivation + checking -----------------
    // Undecodable signatures — the expected outcome of readout faults
    // on suspect silicon — are quarantined with their classification
    // instead of aborting the flow (post-silicon rule: never let the
    // harness confuse "readout glitched" with "the DUT is buggy").
    decoded_unique_idx.reserve(unique.size());
    streamDecodeAndCheck(program, model, codec, cfg, unique, pool.get(),
                         prof, result, collective_verdicts,
                         decoded_unique_idx);
    result.fault.decodedSignatures = decoded_unique_idx.size();
    for (bool verdict : collective_verdicts)
        result.violatingSignatures += verdict ? 1 : 0;

    // --- Violation witness (Figure 13 style) ---------------------------
    if (result.violatingSignatures && result.violationWitness.empty()) {
        auto witness_scope = prof.scope(Phase::Check);
        for (std::size_t i = 0; i < decoded_unique_idx.size(); ++i) {
            if (!collective_verdicts[i])
                continue;
            // The streaming pipeline holds no full edge sets, so the
            // single witnessed execution is re-derived post hoc (one
            // cold decode — negligible against the checking sweep).
            const DynamicEdgeSet witness_edges = dynamicEdges(
                program,
                codec.decode(unique[decoded_unique_idx[i]].signature));
            ConstraintGraph graph(program.numOps());
            graph.addEdges(programOrderEdges(program, model));
            graph.addEdges(witness_edges.edges);
            const auto cycle = findCycle(graph);
            if (!cycle.empty()) {
                result.violationWitness =
                    describeCycle(program, graph, cycle);
            } else {
                result.violationWitness =
                    "contradictory coherence (ws) constraints";
            }
            break;
        }
    }
}

ValidationFlow::ValidationFlow(FlowConfig cfg_arg) : cfg(cfg_arg) {}

FlowResult
ValidationFlow::runTest(const TestProgram &program)
{
    FlowResult result;
    PhaseProfiler prof(cfg.profile);

    // --- Instrumentation (static, once per test) ----------------------
    std::optional<PhaseProfiler::Scope> instrument_scope;
    instrument_scope.emplace(prof, Phase::Instrument);
    LoadValueAnalysis analysis(program, cfg.analysis);
    InstrumentationPlan plan(program, analysis);
    SignatureCodec codec(program, analysis, plan);

    result.intrusive = intrusiveness(program, plan);
    result.code = codeSize(program, analysis, plan);
    instrument_scope.reset();

    // --- Test execution loop ------------------------------------------
    std::unique_ptr<Platform> platform_holder;
    if (cfg.coherent) {
        platform_holder =
            std::make_unique<CoherentExecutor>(*cfg.coherent);
    } else {
        platform_holder =
            std::make_unique<OperationalExecutor>(cfg.exec);
    }
    Platform &platform = *platform_holder;
    PerturbationModel perturbation(program, analysis);

    // Faulty-readout model between the device and the host buffer.
    // The injector's stream is derived from both the fault seed and the
    // flow seed so every test of a campaign sees independent faults.
    std::vector<std::uint32_t> word_layout;
    word_layout.reserve(program.numThreads());
    for (std::uint32_t tid = 0; tid < program.numThreads(); ++tid)
        word_layout.push_back(plan.wordsForThread(tid));
    std::optional<FaultInjector> injector;
    if (cfg.fault.enabled()) {
        FaultConfig fault_cfg = cfg.fault;
        std::uint64_t mix = fault_cfg.seed ^ (cfg.seed * 0x9e3779b97f4a7c15ULL);
        fault_cfg.seed = splitMix64(mix);
        injector.emplace(fault_cfg, word_layout);
    }

    // Hot path: O(1) hash accumulation per iteration instead of the
    // old comparison-counting std::map (O(log u) signature compares
    // plus a node allocation per iteration). The BST sorting cost the
    // perturbation model needs is charged analytically per record.
    std::uint64_t sort_comparisons = 0;
    SignatureAccumulator signature_counts;
    const auto record_signature = [&](const Signature &signature,
                                      std::uint64_t copies) {
        sort_comparisons +=
            copies * bstInsertComparisons(signature_counts.uniqueCount());
        signature_counts.record(signature, copies);
    };

    // One batch arena plus one encode/readout buffer set serve the
    // whole loop: after the first batch warms their capacities, an
    // iteration performs no heap allocations (asserted by
    // tests/hotpath_test.cpp). The scalar `arena` serves the
    // confirmation re-executions further down.
    RunArena arena;
    BatchRunArena batch_arena;
    EncodeResult encoded;
    FaultedReadout readout;

    // Batched lockstep test loop. Every iteration owns an independent
    // RNG stream seeded from one master stream in iteration order, so
    // the dispatch width is purely operational: batch B consumes the
    // same per-iteration streams as batch 1, lanes are post-processed
    // (encode, fault injection, accumulation) in iteration order, and
    // every summary and digest is bit-identical at any width. The
    // coherent platform has no lockstep engine: Platform's per-lane
    // fallback would run a whole batch, each deadlocked lane to the
    // progress watchdog, before the loop below sees the first crash,
    // so it gets one lane per batch.
    Rng stream_master(cfg.seed);
    const std::uint32_t batch_width =
        cfg.coherent ? 1 : cfg.batch ? cfg.batch : 32;
    std::vector<Rng> lane_rngs;
    std::vector<LaneStatus> lane_status;
    lane_rngs.reserve(batch_width);
    bool stop = false;
    for (std::uint64_t base = 0; base < cfg.iterations && !stop;) {
        const std::uint32_t lanes = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(batch_width,
                                    cfg.iterations - base));
        base += lanes;
        {
            auto scope = prof.scope(Phase::BatchDispatch);
            lane_rngs.clear();
            for (std::uint32_t l = 0; l < lanes; ++l)
                lane_rngs.emplace_back(stream_master());
            lane_status.assign(lanes, LaneStatus::Completed);
        }
        {
            auto scope = prof.scope(Phase::Execute);
            platform.runBatchInto(program, lane_rngs.data(), lanes,
                                  batch_arena, cfg.cancel,
                                  lane_status.data());
        }
        for (std::uint32_t l = 0; l < lanes; ++l) {
            if (lane_status[l] == LaneStatus::Hung) {
                // What the scalar loop would have thrown mid-run; any
                // later lanes' results are discarded with the test,
                // exactly as if they had never been dispatched.
                throw TestHungError(batch_arena.hangMessage());
            }
            if (lane_status[l] == LaneStatus::Crashed) {
                // The paper's bug 3 crashes the whole simulation; by
                // default one deadlock ends this test's campaign, but
                // the recovery policy can grant retries so the rest
                // of the iteration budget still produces signatures.
                // Iteration streams are pre-derived, so a crashed
                // iteration costs exactly its own stream and the
                // retained-iteration set is batch-width-invariant.
                warn(std::string("platform crash: ") +
                     batch_arena.crashMessage(l));
                ++result.platformCrashes;
                if (result.fault.crashRetries <
                    cfg.recovery.crashRetries) {
                    ++result.fault.crashRetries;
                    continue;
                }
                stop = true;
                break;
            }
            ++result.iterationsRun;
            const Execution &execution = batch_arena.executions[l];

            try {
                {
                    auto scope = prof.scope(Phase::Encode);
                    codec.encodeInto(execution, encoded);
                    perturbation.record(execution, encoded,
                                        plan.totalWords());
                }
                auto scope = prof.scope(Phase::Accumulate);
                if (injector) {
                    injector->readInto(encoded.signature, readout);
                    result.fault.recordedIterations += readout.copies;
                    if (readout.copies)
                        record_signature(readout.signature,
                                         readout.copies);
                } else {
                    ++result.fault.recordedIterations;
                    record_signature(encoded.signature, 1);
                }
            } catch (const SignatureAssertError &err) {
                // The instrumented chain caught an impossible value
                // at runtime, before any graph checking.
                if (result.assertionFailures == 0)
                    result.violationWitness = err.what();
                ++result.assertionFailures;
            }
        }
    }
    if (injector)
        result.fault.injected = injector->counts();

    result.uniqueSignatures = signature_counts.uniqueCount();
    perturbation.recordSortComparisons(sort_comparisons);
    result.originalCycles = perturbation.originalCycles();
    result.computeCycles = perturbation.signatureComputationCycles();
    result.sortCycles = perturbation.signatureSortingCycles();
    result.computationOverhead = perturbation.computationOverhead();
    result.sortingOverhead = perturbation.sortingOverhead();

    // One final sort replaces the map's per-insert ordering: the
    // collective checker needs ascending-signature presentation order.
    std::vector<SignatureCount> unique;
    {
        auto scope = prof.scope(Phase::SortUnique);
        unique = signature_counts.takeSortedUnique();
    }

    // Fingerprint the observed-behavior set for the campaign journal:
    // chained FNV over the sorted (words, count) pairs, so any
    // divergence between a resumed unit and its original run — a
    // different signature, a different multiplicity, a different
    // order — changes the digest.
    {
        std::uint64_t digest = 0xcbf29ce484222325ull;
        for (const SignatureCount &entry : unique) {
            digest = fnv1a64(entry.signature.words.data(),
                             entry.signature.words.size() *
                                 sizeof(std::uint64_t),
                             digest);
            digest = fnv1a64(&entry.iterations,
                             sizeof(entry.iterations), digest);
        }
        result.signatureSetDigest = digest;
    }

    // Retain the stream for a trace dump before checking consumes it:
    // the copy carries undecodable entries too, so an offline re-check
    // quarantines them exactly as the inline pipeline is about to.
    if (cfg.keepSignatures)
        result.signatureStream = unique;

    // --- Decode + observed-edge derivation + checking -----------------
    // The whole post-execution stage is shared with the offline trace
    // checker (trace_check.h); only the confirmation protocol below
    // stays here, because it needs a live platform to re-execute on.
    const MemoryModel model =
        cfg.coherent ? cfg.coherent->model : cfg.exec.model;
    std::vector<std::size_t> decoded_unique_idx; // decoded -> unique
    std::vector<bool> collective_verdicts;
    checkSignatureStream(program, codec, model, cfg, unique, prof,
                         result, collective_verdicts,
                         decoded_unique_idx);

    // --- K-re-execution confirmation (fault-tolerant pipeline) --------
    // A cyclic signature read over a faulty path is ambiguous: the DUT
    // may have violated the MCM, or corruption may have decoded into a
    // different — coincidentally cyclic — valid execution. Re-execute
    // the test up to K times through the same faulty readout (real
    // silicon can only be re-read, not read cleanly). The discriminator
    // is *reproduction of the identical violating signature*: random
    // readout corruption essentially never recreates the same word
    // array in an independent re-execution, while the mostly-repeatable
    // platform re-hits genuine violating interleavings. A violation
    // that never reproduces is reclassified as transient readout
    // corruption. With injection off the readout cannot fabricate
    // violations and this stage is skipped entirely, keeping the
    // fault-free pipeline bit-identical.
    if (result.violatingSignatures && injector &&
        cfg.recovery.confirmationRuns > 0) {
        auto confirm_scope = prof.scope(Phase::Confirm);
        std::set<Signature> violating_set;
        for (std::size_t i = 0; i < decoded_unique_idx.size(); ++i) {
            if (collective_verdicts[i])
                violating_set.insert(
                    unique[decoded_unique_idx[i]].signature);
        }

        const std::uint64_t confirm_iters =
            cfg.recovery.confirmationIterations
            ? cfg.recovery.confirmationIterations
            : std::min<std::uint64_t>(cfg.iterations, 256);
        bool confirmed = false;
        bool confirmation_crashed_out = false;

        // Attempt-counted loop rather than a plain for-K: a
        // confirmation re-execution that crashes proves nothing about
        // reproduction, so it must not silently consume one of the K
        // discriminating runs (the old behavior: a crashed run read as
        // "not reproduced", biasing real violations towards the
        // transient-corruption verdict). Instead a crash draws on the
        // same crash-retry budget as the test loop and is replaced by
        // a fresh attempt; only when the budget is exhausted is the
        // remaining confirmation abandoned. The seed mix is keyed by
        // the attempt number, so a crash-free confirmation replays the
        // exact streams of the old k-indexed loop.
        unsigned completed_runs = 0;
        unsigned attempt = 0;
        while (completed_runs < cfg.recovery.confirmationRuns &&
               !confirmed) {
            ++attempt;
            ++result.fault.confirmationRunsUsed;
            std::uint64_t mix =
                cfg.seed ^ (0xC0F1A5EDull + 0x9e3779b9ull * attempt);
            Rng confirm_rng(splitMix64(mix));
            FaultConfig confirm_fault = cfg.fault;
            confirm_fault.seed = splitMix64(mix);
            FaultInjector confirm_injector(confirm_fault, word_layout);

            bool crashed = false;
            for (std::uint64_t iter = 0;
                 iter < confirm_iters && !confirmed; ++iter) {
                try {
                    platform.runInto(program, confirm_rng, arena,
                                     cfg.cancel);
                } catch (const ProtocolDeadlockError &) {
                    crashed = true; // a wedged run proves nothing
                    break;
                }
                try {
                    codec.encodeInto(arena.execution, encoded);
                    confirm_injector.readInto(encoded.signature,
                                              readout);
                    if (!readout.dropped() &&
                        violating_set.count(readout.signature))
                        confirmed = true;
                } catch (const SignatureAssertError &) {
                    // The instrumented chain re-caught an impossible
                    // value: violating behavior reproduced.
                    confirmed = true;
                }
            }

            if (crashed && !confirmed) {
                if (result.fault.crashRetries <
                    cfg.recovery.crashRetries) {
                    ++result.fault.crashRetries;
                    continue; // replacement run; K not consumed
                }
                confirmation_crashed_out = true;
                break;
            }
            ++completed_runs;
        }

        if (confirmed) {
            result.fault.confirmedViolations =
                result.violatingSignatures;
        } else {
            result.fault.transientViolations =
                result.violatingSignatures;
            result.violatingSignatures = 0;
            result.fault.note =
                "violating signature(s) not reproduced in " +
                std::to_string(result.fault.confirmationRunsUsed) +
                " re-execution(s); reclassified as transient readout "
                "corruption";
            if (confirmation_crashed_out) {
                result.fault.note +=
                    "; confirmation cut short by a platform crash "
                    "(crash-retry budget exhausted)";
            }
            if (!result.violationWitness.empty() &&
                !result.assertionFailures) {
                result.fault.note +=
                    "; unconfirmed witness: " + result.violationWitness;
                result.violationWitness.clear();
            }
        }
    } else if (result.violatingSignatures) {
        // No faulty readout (or confirmation disabled): every cyclic
        // signature is a confirmed violation, as in the base pipeline.
        result.fault.confirmedViolations = result.violatingSignatures;
    }

    result.profile = prof.take();
    return result;
}

} // namespace mtc
