/**
 * @file
 * Assembly of constraint graphs from a program and an observed (or
 * signature-decoded) execution.
 *
 * The static part (program-order/MCM edges) is shared by all
 * executions of one test; the dynamic part (rf, fr, ws) is derived per
 * execution. The collective checker exploits exactly this split:
 * static edges are built once, dynamic edge sets are diffed between
 * adjacent signatures.
 */

#ifndef MTC_GRAPH_GRAPH_BUILDER_H
#define MTC_GRAPH_GRAPH_BUILDER_H

#include <vector>

#include "graph/constraint_graph.h"
#include "graph/ws_inference.h"
#include "mcm/memory_model.h"
#include "testgen/execution.h"
#include "testgen/test_program.h"

namespace mtc
{

/** Observed-edge set (rf + fr + ws) for one execution. */
struct DynamicEdgeSet
{
    std::vector<Edge> edges;

    /**
     * The ws inference found contradictory coherence constraints (or a
     * load observed a value no store produced). This is already a
     * violation regardless of graph cyclicity.
     */
    bool coherenceViolation = false;
};

/** Static graph: vertices for every op, program-order edges only. */
ConstraintGraph buildStaticGraph(const TestProgram &program,
                                 MemoryModel model);

/**
 * Dynamic (observed) edges for @p execution, using ws inferred from
 * the execution's reads-from set. Edges are returned sorted and
 * de-duplicated so adjacent executions can be diffed with a single
 * merge pass.
 */
DynamicEdgeSet dynamicEdges(const TestProgram &program,
                            const Execution &execution);

/** As above but with a caller-provided ws order (e.g. ground truth). */
DynamicEdgeSet dynamicEdges(const TestProgram &program,
                            const Execution &execution,
                            const WsOrder &ws_order);

/**
 * Zero-allocation variant: derives into @p out (cleared first, capacity
 * kept) from an already-inferred @p ws_order. The two dynamicEdges
 * overloads wrap this.
 */
void dynamicEdgesInto(const TestProgram &program,
                      const Execution &execution,
                      const WsOrder &ws_order, DynamicEdgeSet &out);

/** Convenience: static + dynamic edges in one graph. */
ConstraintGraph buildFullGraph(const TestProgram &program,
                               const Execution &execution,
                               MemoryModel model);

/**
 * Dynamic-edge difference between two adjacent executions, both lists
 * sorted by (from, to). `removed` is a subset of the previous edge
 * set, `added` is disjoint from it — exactly the presentation
 * CollectiveChecker::checkNextDiff() applies.
 */
struct EdgeDiff
{
    std::vector<Edge> removed;
    std::vector<Edge> added;

    /** Same meaning as DynamicEdgeSet::coherenceViolation, for the
     * execution the diff leads *to*. */
    bool coherenceViolation = false;

    void
    clear()
    {
        removed.clear();
        added.clear();
        coherenceViolation = false;
    }
};

/**
 * Apply a sorted @p diff to a sorted edge list in place (one merge
 * pass; @p scratch is the swap buffer, reused across calls). The
 * streaming pipeline uses this to maintain the full edge list for the
 * conventional per-execution baseline without re-deriving it.
 */
void applyEdgeDiff(std::vector<Edge> &edges, const EdgeDiff &diff,
                   std::vector<Edge> &scratch);

/**
 * Incremental dynamic-edge derivation over a stream of executions.
 *
 * The global edge list of dynamicEdgesInto() partitions into
 * independent units: per-load units (that load's external rf edge plus
 * its fr edges) and per-location units (the ws pairs of that
 * location). A load's unit depends only on the store its decoded
 * value names and its location's closed ws order; a location's unit
 * depends only on that order. So only the loads whose writer changed
 * (found among the delta decoder's changed threads) and the loads and
 * locations whose order moved (WsOrder::locChanged()) are re-derived,
 * and per-unit diffs compose into the exact global (from, to)-sorted
 * diff: (from, to) keys are unique across the whole edge set — rf
 * targets a load, fr leaves a load, ws connects two stores of one
 * location — so no two units ever produce the same key.
 *
 * A unit is never stored as an edge list: a load's unit is its writer's
 * order index (WsOrder::writerIndex(); its fr edges are that writer's
 * reach row), and a location's unit is its reach rows. The deriver
 * keeps the writers and rows of the previous derive(), so a unit's
 * diff is the XOR of its old and new rows, emitted in ascending order
 * by count-trailing-zeros.
 *
 * Results are bit-identical to re-running dynamicEdgesInto() per
 * execution and diffing the sorted lists.
 */
class EdgeDeriver
{
  public:
    /** Copies the tables it needs; @p program may die first. */
    explicit EdgeDeriver(const TestProgram &program);

    /**
     * Derive the edges of @p execution (whose ws order is @p ws, as
     * produced by infer()/inferDelta() on the same execution, which
     * also resolved each load's writer) and emit the sorted diff
     * versus the previous derive() into @p out. The first call diffs
     * against the empty set. @p changed_tids is the delta decoder's
     * changed-thread list; it is ignored on the first call (everything
     * derives).
     */
    void derive(const Execution &execution, const WsOrder &ws,
                const std::uint32_t *changed_tids, std::size_t n,
                EdgeDiff &out);

    // --- Work counters (cumulative since construction) -----------------

    /** Load units (rf + fr) re-derived. */
    std::uint64_t loadsDerived() const { return derivedLoads; }

    /** Location units (ws) re-derived. */
    std::uint64_t locationsDerived() const { return derivedLocs; }

  private:
    /**
     * Append the diff of load @p ordinal's unit when its writer moves
     * from @p w_old to @p w_new and its location's reach rows from
     * @p old_rows to @p new_rows (row 0 of the location; nullptr is the
     * empty unit, as is writer WsOrder::kNoWriter).
     */
    void diffLoad(std::uint32_t ordinal, std::uint32_t w_old,
                  const std::uint64_t *old_rows, std::uint32_t w_new,
                  const std::uint64_t *new_rows, std::vector<Edge> &removed,
                  std::vector<Edge> &added) const;

    /** Append the diff of @p loc's ws unit from @p old_rows (nullptr:
     * empty) to @p new_rows. */
    void diffLoc(std::uint32_t loc, const std::uint64_t *old_rows,
                 const std::uint64_t *new_rows, std::vector<Edge> &removed,
                 std::vector<Edge> &added) const;

    /** Order @p in by (from, to) into @p out: a stable counting sort
     * by `from`, then an insertion pass over each same-`from` run. */
    void sortByFrom(const std::vector<Edge> &in, std::vector<Edge> &out);

    // Per-program tables, built once by count-then-fill: each load's
    // vertex, location and thread; each thread's load ordinals; each
    // location's stores (vertex and thread, by order index - 1), loads
    // and reach-row geometry.
    std::vector<std::uint32_t> loadVertex;
    std::vector<std::uint32_t> loadLoc;
    std::vector<std::uint32_t> loadTid;
    std::vector<std::uint32_t> threadLoadBegin;
    std::vector<std::uint32_t> locStoreBegin;
    std::vector<std::uint32_t> storeVertex;
    std::vector<std::uint32_t> storeTid;
    std::vector<std::uint32_t> locLoadBegin;
    std::vector<std::uint32_t> locLoads;
    std::vector<std::uint32_t> locWords;
    std::vector<std::size_t> locRowBegin;

    // State of the previous derive(): each load's writer order index
    // (WsOrder::kNoWriter: no unit), each location's closed reach rows.
    std::vector<std::uint32_t> loadWriter;
    std::vector<std::uint64_t> rows;

    // Scratch, sized at construction or grown to a high-water mark.
    std::vector<std::uint8_t> loadQueued;
    std::vector<std::uint32_t> loadQueue;
    std::vector<Edge> rawRemoved;
    std::vector<Edge> rawAdded;
    std::vector<std::uint32_t> fromStart; ///< [vertex + 1] sort buckets
    bool first = true;

    std::uint64_t derivedLoads = 0;
    std::uint64_t derivedLocs = 0;
};

} // namespace mtc

#endif // MTC_GRAPH_GRAPH_BUILDER_H
