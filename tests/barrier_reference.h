/**
 * @file
 * The barrier checking stage for tests: decode every unique signature
 * from scratch, derive its full observed-edge set, then check the
 * whole batch at once, collectively and (optionally) conventionally.
 *
 * It has checkSignatureStream's signature and fills the same
 * deterministic FlowResult fields (not the wall-clock ones, nor the
 * profile), but shares none of the streaming stage's state between
 * signatures: no delta decode (SignatureCodec::decodeInto per
 * signature), no incremental ws inference or edge derivation
 * (dynamicEdges per signature), no diff-fed checking
 * (CollectiveChecker::checkNext over full edge lists). So a slice
 * reused when it should have been re-decoded, a stale ws row, or a
 * dropped diff edge in the streaming stage cannot hide from it. The
 * decode→check channel is the streaming stage's alone, so this
 * ignores FlowConfig::threads and streamWindow; every signature
 * counts as a full decode, so sliceReuses and sliceDecodes stay 0.
 */

#ifndef MTC_TESTS_BARRIER_REFERENCE_H
#define MTC_TESTS_BARRIER_REFERENCE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/collective_checker.h"
#include "core/conventional_checker.h"
#include "core/signature_codec.h"
#include "graph/constraint_graph.h"
#include "graph/cycle_report.h"
#include "graph/graph_builder.h"
#include "graph/po_edges.h"
#include "harness/validation_flow.h"
#include "support/profiler.h"

namespace mtc
{

inline void
barrierCheckSignatureStream(const TestProgram &program,
                            const SignatureCodec &codec,
                            MemoryModel model, const FlowConfig &cfg,
                            const std::vector<SignatureCount> &unique,
                            [[maybe_unused]] PhaseProfiler &prof,
                            FlowResult &result,
                            std::vector<bool> &verdicts_out,
                            std::vector<std::size_t> &decoded_idx_out)
{
    std::vector<DynamicEdgeSet> edge_sets;
    Execution decoded;
    std::vector<std::uint64_t> word_scratch;
    for (std::size_t i = 0; i < unique.size(); ++i) {
        try {
            codec.decodeInto(unique[i].signature, decoded, word_scratch);
        } catch (const SignatureDecodeError &err) {
            result.fault.quarantined.push_back(
                {unique[i].signature, unique[i].iterations, err.kind(),
                 err.thread(), err.word(), err.what()});
            result.fault.quarantinedIterations += unique[i].iterations;
            continue;
        }
        edge_sets.push_back(dynamicEdges(program, decoded));
        decoded_idx_out.push_back(i);
        if (cfg.keepExecutions)
            result.executions.push_back(decoded);
    }

    CollectiveChecker collective(program, model);
    verdicts_out = collective.check(edge_sets);
    result.collective = collective.stats();
    if (cfg.runConventional)
        ConventionalChecker(program, model)
            .check(edge_sets, result.conventional);

    result.fault.decodedSignatures = decoded_idx_out.size();
    for (bool verdict : verdicts_out)
        result.violatingSignatures += verdict ? 1 : 0;

    if (result.violatingSignatures && result.violationWitness.empty()) {
        for (std::size_t i = 0; i < edge_sets.size(); ++i) {
            if (!verdicts_out[i])
                continue;
            ConstraintGraph graph(program.numOps());
            graph.addEdges(programOrderEdges(program, model));
            graph.addEdges(edge_sets[i].edges);
            const auto cycle = findCycle(graph);
            result.violationWitness = cycle.empty()
                ? "contradictory coherence (ws) constraints"
                : describeCycle(program, graph, cycle);
            break;
        }
    }
}

} // namespace mtc

#endif // MTC_TESTS_BARRIER_REFERENCE_H
