/**
 * @file
 * Write-serialization (coherence-order) inference.
 *
 * The checker needs ws edges to derive from-read (fr) edges, but a
 * purely software post-silicon flow cannot observe the coherence order
 * directly. The paper states the write-serialization order is gathered
 * during instrumentation; literally static knowledge is impossible for
 * cross-thread stores, so — as documented in DESIGN.md — we infer a
 * sound partial order from the observed reads-from relationships in the
 * style of TSOtool [Hangal et al., ISCA'04]:
 *
 *  (a) same-thread stores to one location are coherence-ordered in
 *      program order;
 *  (b) if load L reads store W, the last same-thread store W_prev to
 *      that location preceding L must be coherence-before W;
 *  (c) if load L reads W, the first same-thread store to that location
 *      following L must be coherence-after W;
 *  (d) two program-ordered loads of one location in one thread must
 *      read coherence-non-decreasing stores (CoRR).
 *
 * The initial value is modelled as a virtual store that precedes every
 * real store. A contradiction among these constraints (a cycle in the
 * per-location order) is itself a coherence violation and is reported
 * via coherenceViolation().
 */

#ifndef MTC_GRAPH_WS_INFERENCE_H
#define MTC_GRAPH_WS_INFERENCE_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "testgen/execution.h"
#include "testgen/test_program.h"

namespace mtc
{

/**
 * Per-location partial coherence order over stores (plus the virtual
 * initial store). Build either by inference from an execution or from
 * simulator ground truth.
 *
 * Rules (b)-(d) relate only operations of one thread at one location,
 * so the inference works per *segment*: the ops of one (thread,
 * location) pair in program order. A segment's constraints depend on
 * its own load values alone, and a location's closed order on its own
 * segments plus rule (a). inferDelta() exploits both: it re-walks only
 * segments holding a load whose value changed and re-closes only
 * locations one of whose segments' constraint lists changed.
 *
 * Built for reuse: infer() resets the order in place, and the
 * per-program tables (store lists, segments, reachability-row
 * geometry) are rebuilt only when the program changes, so re-inferring
 * over the unique signatures of one test touches no allocator in
 * steady state.
 */
class WsOrder
{
  public:
    WsOrder() = default;

    /** Infer from the observed reads-from of @p execution. */
    WsOrder(const TestProgram &program, const Execution &execution)
    {
        infer(program, execution);
    }

    /**
     * Re-infer in place from another execution, reusing every buffer.
     * The store lists are copied (not aliased) from the program, so a
     * long-lived WsOrder never dangles into a dead TestProgram.
     */
    void infer(const TestProgram &program, const Execution &execution);

    /**
     * Incrementally re-infer from @p execution when only the threads
     * in [changed_tids, changed_tids + n) may have different load
     * values than the execution of the previous infer()/inferDelta()
     * on this object: only the segments of those threads holding a
     * load whose value changed are re-walked, and only locations whose
     * constraint set moved are re-closed. Falls back to a full infer()
     * when there is no previous state or the program changed.
     * Bit-identical to infer() — the closed reach bits depend only on
     * the constraint *set*, and segment walks are independent, so
     * re-walking unchanged segments cannot change anything.
     */
    void inferDelta(const TestProgram &program,
                    const Execution &execution,
                    const std::uint32_t *changed_tids, std::size_t n);

    /**
     * After infer()/inferDelta(): may @p loc's closed order (or its
     * per-location violation flag) differ from the previous
     * inference? infer() marks every location; inferDelta() marks the
     * locations whose closed reach rows actually changed.
     */
    bool locChanged(std::uint32_t loc) const
    {
        return locDirty[loc] != 0;
    }

    /** Adopt the executor-exported total order (testing only). */
    static WsOrder fromGroundTruth(const TestProgram &program,
                                   const Execution &execution);

    /**
     * Is @p w1 known to be coherence-before @p w2 at @p loc?
     * std::nullopt denotes the virtual initial store.
     */
    bool before(std::uint32_t loc, std::optional<OpId> w1,
                std::optional<OpId> w2) const;

    /** All stores known to be coherence-after @p w at @p loc. */
    std::vector<OpId> successorsOf(std::uint32_t loc,
                                   std::optional<OpId> w) const;

    /**
     * Ordered store pairs (w1 coherence-before w2) at @p loc,
     * including only real stores (fr/ws edge material).
     */
    std::vector<std::pair<OpId, OpId>>
    orderedPairs(std::uint32_t loc) const;

    /** Did the constraints contradict each other? */
    bool coherenceViolation() const { return violation; }

    // --- Allocation-free access (the graph builder's hot path) --------

    /** Real stores of @p loc; order index i+1 maps to storesAt(loc)[i]. */
    const std::vector<OpId> &
    storesAt(std::uint32_t loc) const
    {
        return locStores[loc];
    }

    /**
     * Order index of @p w at @p loc (0 = virtual initial store).
     * Throws ConfigError when @p w does not write @p loc.
     */
    std::uint32_t indexOf(std::uint32_t loc, std::optional<OpId> w) const;

    /**
     * Closed reach row of order index @p from at @p loc: bit j of word
     * j / 64 is set iff @p from is coherence-before index j. A row has
     * (storesAt(loc).size() + 64) / 64 words.
     */
    const std::uint64_t *
    reachRow(std::uint32_t loc, std::uint32_t from) const
    {
        return reach.data() + locOffset[loc] +
            static_cast<std::size_t>(from) * locWords[loc];
    }

    /** before() on raw order indices (0 = virtual initial store). */
    bool
    orderedByIndex(std::uint32_t loc, std::uint32_t from,
                   std::uint32_t to) const
    {
        return (reachRow(loc, from)[to >> 6] >> (to & 63)) & 1;
    }

    /** writerIndex() of a load whose value no store of the program
     * wrote. */
    static constexpr std::uint32_t kNoWriter =
        std::numeric_limits<std::uint32_t>::max();

    /**
     * Order index, at its location, of the store that load @p ordinal
     * read in the last inferred execution: 0 for the initial value,
     * kNoWriter when no store wrote the value.
     */
    std::uint32_t
    writerIndex(std::uint32_t ordinal) const
    {
        return loadIndex[ordinal];
    }

    // --- Work counters (cumulative since construction) -----------------

    /** (thread, location) segments walked by rules (b)-(d). */
    std::uint64_t segmentsWalked() const { return walkedSegments; }

    /** Locations whose order was rebuilt and transitively closed. */
    std::uint64_t locationsClosed() const { return closedLocations; }

  private:
    /** One rule-(b)/(c)/(d) constraint at a segment's location. */
    struct Constraint
    {
        std::uint32_t from = 0;
        std::uint32_t to = 0;

        bool operator==(const Constraint &) const = default;
    };

    /** Rebuild the per-program tables when the program changed. */
    void bindProgram(const TestProgram &program);

    /**
     * Record load @p ordinal's value and resolve its order index.
     * @throws ConfigError when a store to another location wrote it
     *         (the error indexOf() raises for that store).
     */
    void resolveLoad(std::uint32_t ordinal, std::uint32_t value);

    /**
     * Re-derive one segment's constraints and contradiction flag from
     * the resolved load indices; true when its constraint list changed.
     */
    bool walkSegment(std::uint32_t seg);

    /** Zero @p loc's rows and seed the virtual-initial-store row. */
    void seedLoc(std::uint32_t loc);

    /** Transitively close @p loc's rows and refresh its violation. */
    void closeLoc(std::uint32_t loc);

    /** Rebuild and re-close one location's order from rule (a) and
     * the constraint lists of its own segments. */
    void rebuildLoc(std::uint32_t loc);

    bool bound = false;
    std::uint64_t boundFingerprint = 0;

    // Per-program layout: per-location store lists and the geometry of
    // the flat reachability bitset (row count n = stores + 1 virtual
    // init, words per row, row-0 offset into `reach`).
    std::vector<std::vector<OpId>> locStores;
    std::vector<std::uint32_t> locN;
    std::vector<std::uint32_t> locWords;
    std::vector<std::size_t> locOffset;

    /** reach bit (loc, i, j): i coherence-before j. */
    std::vector<std::uint64_t> reach;

    /** A store's value and where it sits in its location's order. */
    struct ValueEntry
    {
        std::uint32_t value;
        std::uint32_t loc;
        std::uint32_t index;
    };

    // Per-program tables, built by count-then-fill. valueIndex holds
    // every store sorted by value, so resolving a loaded value is one
    // binary search. Segments are numbered in (location, thread)
    // order; a location's are [locSegBegin[loc], locSegBegin[loc + 1]).
    // A segment's ops are segOps[segBegin[s] .. segBegin[s + 1]): a
    // store as kStoreOp | its order index, a load as its ordinal. Its
    // constraints live in cons[2 * segBegin[s] ...] — a store adds at
    // most one (rule c), a load at most two (rules b and d).
    static constexpr std::uint32_t kStoreOp = 0x80000000u;
    std::vector<ValueEntry> valueIndex;
    std::vector<std::uint32_t> segLoc;
    std::vector<std::uint32_t> segBegin;
    std::vector<std::uint32_t> segOps;
    std::vector<std::uint32_t> locSegBegin;
    std::vector<std::uint32_t> ruleABegin;  ///< rule-(a) pairs of a loc
    std::vector<Constraint> ruleA;
    std::vector<std::uint32_t> loadSeg;     ///< [ordinal] segment
    std::vector<std::uint32_t> threadLoadBegin; ///< ordinals of a thread

    // Inference state: each load's last value and resolved order index,
    // each segment's constraints and contradiction, each location's
    // violation and changed flags, and the violation counts.
    std::vector<std::uint32_t> loadValue;
    std::vector<std::uint32_t> loadIndex;
    std::vector<Constraint> cons;
    std::vector<std::uint32_t> consCount;
    std::vector<std::uint8_t> segViol;
    std::vector<std::uint8_t> locViol;
    std::vector<std::uint8_t> locDirty;
    std::uint32_t violSegs = 0;
    std::uint32_t violLocs = 0;

    // Delta scratch, sized at bind so steady state never allocates.
    std::vector<std::uint8_t> segQueued;
    std::vector<std::uint8_t> locQueued;
    std::vector<std::uint32_t> segQueue;
    std::vector<std::uint32_t> locQueue;
    std::vector<Constraint> walkScratch;
    std::vector<std::uint64_t> prevRows;
    bool haveState = false; ///< an infer() ran since the last bind

    bool violation = false;

    std::uint64_t walkedSegments = 0;
    std::uint64_t closedLocations = 0;
};

} // namespace mtc

#endif // MTC_GRAPH_WS_INFERENCE_H
