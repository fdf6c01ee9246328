/**
 * @file
 * Collective constraint-graph checking (the paper's Section 4).
 *
 * Executions are presented in ascending signature order; adjacent
 * signatures decode to graphs that differ in few observed edges. The
 * checker maintains the current graph's dynamic edge set and a valid
 * topological order, and for each next graph:
 *
 *  1. diffs the sorted dynamic edge lists (added / removed edges);
 *  2. classifies added edges against the current topological
 *     positions — if none is backward, the order is still valid and
 *     re-sorting is skipped entirely;
 *  3. otherwise computes the leading boundary (smallest position
 *     adjacent to a new backward edge) and trailing boundary (largest
 *     such position) and re-sorts only the vertices between them,
 *     writing the new sub-order back into the same position slots
 *     (Figure 7). Failure to sort the window proves a cycle, i.e. an
 *     MCM violation for that signature.
 *
 * Removed and forward edges never invalidate the order (they only
 * release constraints), so they are applied without sorting. After a
 * violating graph no valid order exists; the next graph is checked
 * with one complete sort (counted in the stats as such).
 */

#ifndef MTC_CORE_COLLECTIVE_CHECKER_H
#define MTC_CORE_COLLECTIVE_CHECKER_H

#include <cstdint>
#include <vector>

#include "graph/graph_builder.h"
#include "mcm/memory_model.h"
#include "support/stats.h"
#include "testgen/test_program.h"

namespace mtc
{

/** Work/result accounting of a collective batch check (Figure 14). */
struct CollectiveStats
{
    std::uint64_t graphsChecked = 0;
    std::uint64_t violations = 0;

    /** Graphs checked with a complete sort (the first one, plus
     * recovery sorts after violating graphs). */
    std::uint64_t completeSorts = 0;

    /** Graphs whose added edges were all forward: no re-sorting. */
    std::uint64_t noResortNeeded = 0;

    /** Graphs checked by windowed incremental re-sorting. */
    std::uint64_t incrementalResorts = 0;

    /** Fraction of vertices inside the re-sort window, per
     * incremental graph (Figure 14's line plot). */
    RunningStat affectedFraction;

    std::uint64_t verticesProcessed = 0;
    std::uint64_t edgesProcessed = 0;

    /** Fold another batch's accounting into this one. Counters add and
     * the affected-fraction accumulator merges, so a sum over batches
     * reports exactly the work each batch performed. */
    void merge(const CollectiveStats &other);
};

/**
 * Collective checker bound to one test program. Stateful: feed it the
 * unique executions' edge sets in ascending-signature order.
 */
class CollectiveChecker
{
  public:
    CollectiveChecker(const TestProgram &program, MemoryModel model);

    /**
     * Check the next graph in signature order.
     * @return true iff this execution violates the MCM.
     */
    bool checkNext(const DynamicEdgeSet &edges);

    /**
     * Check the next graph presented as a sorted edge diff versus the
     * previously checked graph (the streaming pipeline's entry
     * point): removed must be a subset of the current edge set, added
     * disjoint from it, both sorted by (from, to). Verdicts, stats,
     * and the maintained order are bit-identical to checkNext() with
     * the corresponding full list — the diff is applied in the same
     * merged key order, so even the successor-list layout (which
     * biases Kahn tie-breaking) matches. Do not mix with checkNext()
     * on one checker: this variant does not maintain the full-list
     * mirror checkNext() diffs against.
     */
    bool checkNextDiff(const EdgeDiff &diff);

    /** Check a whole ordered batch; verdict per edge set. */
    std::vector<bool> check(const std::vector<DynamicEdgeSet> &ordered);

    const CollectiveStats &stats() const { return stat; }

  private:
    bool fullSort();
    bool windowedResort(std::uint32_t lead, std::uint32_t trail);

    /** Apply the edge-list diff to the dynamic adjacency and return
     * the added edges (valid until the next call). */
    const std::vector<Edge> &applyDiff(const std::vector<Edge> &next);

    /** Apply pre-diffed removed/added lists in merged key order. */
    void applyDiffLists(const std::vector<Edge> &removed,
                        const std::vector<Edge> &added);

    /** Shared tail of checkNext()/checkNextDiff(): sort recovery,
     * added-edge classification, windowed re-sort, accounting. */
    bool finishCheck(const std::vector<Edge> &added,
                     bool coherence_violation);

    const TestProgram &prog;
    std::uint32_t numVertices;

    std::vector<bool> isLoad; ///< store-priority sort heuristic

    /** Static (program-order) adjacency in CSR layout: the successor
     * list of vertex v is staticNbr[staticOff[v] .. staticOff[v+1]).
     * The static graph is immutable after construction, and both sort
     * kernels walk it for every processed vertex, so one flat array
     * beats a vector-of-vectors' double indirection on the hot path. */
    std::vector<std::uint32_t> staticOff;
    std::vector<std::uint32_t> staticNbr;

    std::vector<std::vector<std::uint32_t>> dynAdj;
    std::vector<Edge> currentEdges; ///< sorted dynamic edge list

    std::vector<std::uint32_t> orderArr; ///< position -> vertex
    std::vector<std::uint32_t> pos;      ///< vertex -> position
    bool orderValid = false;

    // Scratch buffers for the windowed sort (epoch-stamped membership
    // avoids O(V) clears per window).
    std::vector<std::uint32_t> windowEpoch;
    std::vector<std::uint32_t> windowIndeg;
    std::uint32_t epoch = 0;

    // Hoisted sort/diff scratch: the check phase of a warmed checker
    // touches no allocator (asserted by the hotpath steady-state
    // tests).
    std::vector<std::uint32_t> fullIndeg;
    std::vector<std::uint32_t> storeQueue;
    std::vector<std::uint32_t> loadQueue;
    std::vector<std::uint32_t> orderScratch;
    std::vector<std::uint32_t> windowQueue;
    std::vector<std::uint32_t> windowSubOrder;
    std::vector<Edge> addedScratch;

    CollectiveStats stat;
};

} // namespace mtc

#endif // MTC_CORE_COLLECTIVE_CHECKER_H
