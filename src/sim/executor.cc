/**
 * @file
 * The operational executor's engine: a batched lockstep dispatcher
 * over structure-of-arrays run state.
 *
 * One BatchState holds the run state of B independent lanes of the
 * same test program, laid out lane-contiguously (per-lane per-thread
 * PCs and window occupancy, a flat values memory image, lane-major
 * cache-line/LRU state), plus B caller-owned RNG streams. A single
 * dispatch loop advances every active lane one scheduler step per
 * round; program metadata (the FlatOrderTable) is computed once per
 * batch and shared read-only by all lanes.
 *
 * Bit-identity is the engine's hard contract: lanes never share
 * mutable state, and every lane consumes its own RNG stream in
 * exactly the order the scalar engine would, so lane i of a batch is
 * draw-for-draw identical to a scalar runInto() with stream i — at
 * any batch size, including B=1, which is precisely what the scalar
 * runInto() entry point runs. (The pre-batching scalar engine lives
 * on only as this special case; there is one engine, not two.)
 *
 * Lane divergence: lanes retire from the compacted active-lane list
 * as they complete. A lane whose platform crashes (injected protocol
 * deadlock, crash drill) is marked Crashed and retired without
 * disturbing its siblings; a watchdog cancellation marks every
 * still-active lane Hung while completed lanes keep their results.
 *
 * Cross-lane aliasing audit (the SoA hazard): every mutable array is
 * indexed through exactly one of the laneThread/laneOp/laneLoc/
 * laneLine helpers below, each of which multiplies by the full
 * per-lane stride — there is no partially-strided access path — and
 * resetLane() rewrites a lane's entire span of every array, so no
 * state can leak between lanes or across batches.
 */

#include "sim/executor.h"

#include <algorithm>
#include <csignal>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/po_edges.h"
#include "sim/order_table.h"
#include "support/error.h"
#include "support/process.h"

namespace mtc
{

namespace
{

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/** Cache of OrderTables keyed by (program identity, model). */
class OrderTableCache
{
  public:
    const OrderTable &
    get(const TestProgram &program, MemoryModel model)
    {
        if (program.fingerprint() != cachedFingerprint ||
            model != cachedModel) {
            table.build(program, model);
            cachedFingerprint = program.fingerprint();
            cachedModel = model;
        }
        return table;
    }

  private:
    std::uint64_t cachedFingerprint = 0;
    MemoryModel cachedModel = MemoryModel::SC;
    OrderTable table;
};

OrderTableCache &
orderTableCache()
{
    thread_local OrderTableCache cache;
    return cache;
}

/** Bit of @p line_idx in a 64-bit cache-line summary. Lines 64 apart
 * share a bit: a summary is a superset test, never an exact one. */
constexpr std::uint64_t
lineBit(std::uint32_t line_idx)
{
    return std::uint64_t(1) << (line_idx & 63);
}

/** Bits [0, n) set, for n in [0, 32]. */
constexpr std::uint32_t
lowBits(std::uint32_t n)
{
    return static_cast<std::uint32_t>((std::uint64_t(1) << n) - 1);
}

/** Cache lines whose coherence state one perform mutated: at most the
 * op's own line plus one LRU-eviction victim. Per-step transient. */
struct DirtySet
{
    std::uint32_t lines[2] = {0, 0};
    std::uint32_t n = 0;
    std::uint64_t summary = 0; ///< lineBit() of every line added

    void
    add(std::uint32_t line_idx)
    {
        if (n < 2)
            lines[n++] = line_idx;
        summary |= lineBit(line_idx);
    }

    bool
    contains(std::uint32_t line_idx) const
    {
        for (std::uint32_t d = 0; d < n; ++d)
            if (lines[d] == line_idx)
                return true;
        return false;
    }
};

/**
 * Lane-contiguous SoA run state for a batch of B lockstep runs. Lives
 * in the caller's arena (RunArena for B=1, BatchRunArena otherwise)
 * and is re-bound in place between batches: every container is
 * refilled with resize()/assign() so capacity survives, keeping the
 * steady-state batched loop allocation-free after warm-up.
 */
struct BatchState : RunArena::State
{
    const TestProgram *program = nullptr;
    const ExecutorConfig *cfg = nullptr;
    const CancellationToken *cancel = nullptr;

    /** Lane-shared flat program metadata (see FlatOrderTable). */
    FlatOrderTable flat;
    std::uint64_t flatFingerprint = 0;
    MemoryModel flatModel = MemoryModel::SC;
    bool flatValid = false;

    std::uint32_t numLanes = 0;
    std::uint32_t numThreads = 0;
    std::uint32_t numLocs = 0;
    std::uint32_t numLoads = 0;
    std::uint32_t numLines = 0;

    /** Per-lane RNG stream / output buffer (caller-owned). */
    std::vector<Rng *> rngs;
    std::vector<Execution *> outs;

    // --- Per-lane mutable state, flat and lane-major ------------------
    std::vector<std::uint32_t> mem;            ///< [lane × numLocs]
    LaneCompletionBits completion;
    std::vector<std::uint32_t> head;           ///< [lane × T]
    std::vector<std::uint64_t> coreSlot;       ///< [lane × T]
    std::vector<std::uint64_t> completionTime; ///< [lane × totalOps]
    std::vector<std::uint8_t> blocked;         ///< [lane × T]
    std::vector<std::uint64_t> remaining;      ///< [lane]
    std::vector<std::uint64_t> stepsTaken;     ///< [lane]
    std::vector<std::uint64_t> uniformStep;    ///< [lane]

    // --- Timed-policy cache model -------------------------------------
    struct Line
    {
        std::int32_t owner = -1;   ///< core holding M/E, or -1
        std::uint32_t sharers = 0; ///< residency bitmask
        std::uint64_t lastStoreTime = 0;
        std::int32_t lastStoreTid = -1;
        std::uint64_t lastEvictTime = 0;
        bool everEvicted = false;
    };
    std::vector<Line> lines;             ///< [lane × numLines]
    std::vector<std::uint64_t> lruStamp; ///< [lane × T × numLines]
    std::vector<std::uint32_t> lruCount; ///< [lane × T]
    std::vector<std::uint64_t> jitter;   ///< [lane × totalOps]
    /**
     * Cached per-op max of the required predecessors' completion
     * times (kNever = not yet computed). candidateTimes() only ever
     * evaluates eligible ops, whose predecessors are all complete
     * with final times — so the mask-walk over predecessor bits runs
     * once per op instead of once per window re-scan.
     */
    std::vector<std::uint64_t> predIssue; ///< [lane × totalOps]
    /** Per-lane per-location (time, value) history (bug modes only). */
    std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>>
        history;                         ///< [lane × numLocs]

    /** Timed-policy per-thread cached best candidate (see
     * recomputeBest; bestTime kNever = no candidate); the
     * incremental-scheduler dirty-set machinery is per lane — a
     * perform only invalidates its own lane's caches. */
    std::vector<std::uint64_t> bestTime;  ///< [lane × T]
    std::vector<std::uint64_t> bestIssue; ///< [lane × T]
    std::vector<std::uint32_t> bestIdx;   ///< [lane × T]
    /**
     * lineBit() of every cache line the thread's current candidates
     * sit on, rewritten by each recomputeBest (0 while blocked). A
     * perform can change another thread's candidate times only
     * through the lines it dirtied, so a thread whose summary misses
     * the DirtySet's needs no refresh; an aliased bit costs one
     * needless refreshDirty and never skips a needed one.
     */
    std::vector<std::uint64_t> candLines; ///< [lane × T]

    /**
     * Per-op cached candidate times (kNever in candComplete = op not
     * an eligible candidate right now). A thread's entries over its
     * current window are kept fresh: the performing thread's
     * recompute re-times its candidates and clears its completed ops,
     * and other threads' entries can only be invalidated through the
     * ≤2 cache lines a perform mutates — so the dirty refresh
     * re-times exactly the candidates on those lines and leaves the
     * rest cached.
     */
    std::vector<std::uint64_t> candComplete; ///< [lane × totalOps]
    std::vector<std::uint64_t> candIssue;    ///< [lane × totalOps]
    /**
     * Cached issue-independent latency (issue cost + memory-system
     * latency + jitter) of each current candidate. Latency depends
     * only on the op's cache-line state, so it is computed when the
     * op first becomes a candidate and re-derived only when a perform
     * dirties the op's line; every other evaluation is one load and
     * one add instead of the residency branch tree.
     */
    std::vector<std::uint64_t> latCache; ///< [lane × totalOps]

    /** Uniform-policy candidate scratch — rebuilt from scratch every
     * step, so one buffer safely serves every lane in turn. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> eligibleScratch;

    /** Still-running lanes, compacted as lanes retire. */
    std::vector<std::uint32_t> activeLanes;

    // --- SoA addressing (the only cross-array index paths) ------------
    std::size_t
    laneThread(std::uint32_t lane, std::uint32_t tid) const
    {
        return static_cast<std::size_t>(lane) * numThreads + tid;
    }

    std::size_t
    laneOp(std::uint32_t lane) const
    {
        return static_cast<std::size_t>(lane) * flat.totalOps;
    }

    std::size_t
    laneLoc(std::uint32_t lane, std::uint32_t loc) const
    {
        return static_cast<std::size_t>(lane) * numLocs + loc;
    }

    std::size_t
    laneLine(std::uint32_t lane, std::uint32_t line_idx) const
    {
        return static_cast<std::size_t>(lane) * numLines + line_idx;
    }

    /**
     * Bind the batch to (program, cfg) and size every SoA array for
     * @p lanes lanes. The FlatOrderTable is rebuilt only when the
     * (program, model) pair changed, so per-batch rebinding of the
     * same test costs resize()/assign() calls and nothing else.
     */
    void
    bind(const TestProgram &program_arg, const ExecutorConfig &cfg_arg,
         std::uint32_t lanes)
    {
        program = &program_arg;
        cfg = &cfg_arg;
        numLanes = lanes;
        numThreads = program->numThreads();
        numLocs = program->config().numLocations;
        numLoads = static_cast<std::uint32_t>(program->loads().size());
        numLines = program->numLines();
        if (!flatValid || program->fingerprint() != flatFingerprint ||
            cfg->model != flatModel) {
            flat.build(program_arg,
                       orderTableCache().get(program_arg, cfg->model));
            flatFingerprint = program->fingerprint();
            flatModel = cfg->model;
            flatValid = true;
        }

        rngs.assign(lanes, nullptr);
        outs.assign(lanes, nullptr);
        mem.resize(static_cast<std::size_t>(lanes) * numLocs);
        completion.reset(*program, lanes);
        head.resize(static_cast<std::size_t>(lanes) * numThreads);
        coreSlot.resize(static_cast<std::size_t>(lanes) * numThreads);
        completionTime.resize(static_cast<std::size_t>(lanes) *
                              flat.totalOps);
        blocked.resize(static_cast<std::size_t>(lanes) * numThreads);
        remaining.resize(lanes);
        stepsTaken.resize(lanes);
        uniformStep.resize(lanes);

        if (cfg->policy == SchedulingPolicy::Timed) {
            lines.resize(static_cast<std::size_t>(lanes) * numLines);
            lruStamp.resize(static_cast<std::size_t>(lanes) *
                            numThreads * numLines);
            lruCount.resize(static_cast<std::size_t>(lanes) *
                            numThreads);
            jitter.resize(static_cast<std::size_t>(lanes) *
                          flat.totalOps);
            predIssue.resize(static_cast<std::size_t>(lanes) *
                             flat.totalOps);
            candComplete.resize(static_cast<std::size_t>(lanes) *
                                flat.totalOps);
            candIssue.resize(static_cast<std::size_t>(lanes) *
                             flat.totalOps);
            latCache.resize(static_cast<std::size_t>(lanes) *
                            flat.totalOps);
            bestTime.resize(static_cast<std::size_t>(lanes) *
                            numThreads);
            bestIssue.resize(static_cast<std::size_t>(lanes) *
                             numThreads);
            bestIdx.resize(static_cast<std::size_t>(lanes) *
                           numThreads);
            candLines.resize(static_cast<std::size_t>(lanes) *
                             numThreads);
        } else {
            eligibleScratch.reserve(
                static_cast<std::size_t>(numThreads) *
                cfg->reorderWindow);
        }
        if (cfg->bug != BugKind::None)
            history.resize(static_cast<std::size_t>(lanes) * numLocs);
        activeLanes.reserve(lanes);
    }

    /**
     * Reinitialize one lane's span of every array, replaying the
     * scalar engine's construction order exactly: state refill, the
     * per-thread start-skew draws, then (Timed) the initial
     * recomputeBest pass whose lazily-drawn jitter consumes the lane
     * stream in (tid, idx) eligibility-scan order. rngs[lane] and
     * outs[lane] must be bound before the call.
     */
    void
    resetLane(std::uint32_t lane)
    {
        std::fill_n(mem.begin() + laneLoc(lane, 0), numLocs,
                    kInitValue);
        completion.resetLane(lane);
        std::fill_n(completionTime.begin() +
                        static_cast<std::ptrdiff_t>(laneOp(lane)),
                    flat.totalOps, std::uint64_t(0));
        std::fill_n(head.begin() + laneThread(lane, 0), numThreads,
                    std::uint32_t(0));
        std::fill_n(coreSlot.begin() + laneThread(lane, 0), numThreads,
                    std::uint64_t(0));
        std::fill_n(blocked.begin() + laneThread(lane, 0), numThreads,
                    std::uint8_t(0));
        remaining[lane] = flat.totalOps;
        stepsTaken[lane] = 0;
        uniformStep[lane] = 0;

        Execution &out = *outs[lane];
        out.loadValues.assign(numLoads, kInitValue);
        out.duration = 0;
        if (cfg->exportCoherenceOrder) {
            out.coherenceOrder.resize(numLocs);
            for (auto &per_loc : out.coherenceOrder)
                per_loc.clear();
        } else {
            out.coherenceOrder.clear();
        }

        if (cfg->policy == SchedulingPolicy::Timed) {
            std::fill_n(lines.begin() + laneLine(lane, 0), numLines,
                        Line{});
            std::fill_n(lruStamp.begin() +
                            laneThread(lane, 0) * numLines,
                        static_cast<std::size_t>(numThreads) * numLines,
                        kNever);
            std::fill_n(lruCount.begin() + laneThread(lane, 0),
                        numThreads, std::uint32_t(0));
            std::fill_n(jitter.begin() +
                            static_cast<std::ptrdiff_t>(laneOp(lane)),
                        flat.totalOps, kNever);
            std::fill_n(predIssue.begin() +
                            static_cast<std::ptrdiff_t>(laneOp(lane)),
                        flat.totalOps, kNever);
            std::fill_n(candComplete.begin() +
                            static_cast<std::ptrdiff_t>(laneOp(lane)),
                        flat.totalOps, kNever);
            std::fill_n(bestTime.begin() + laneThread(lane, 0),
                        numThreads, kNever);
            std::fill_n(bestIssue.begin() + laneThread(lane, 0),
                        numThreads, std::uint64_t(0));
            std::fill_n(bestIdx.begin() + laneThread(lane, 0),
                        numThreads, std::uint32_t(0));
            std::fill_n(candLines.begin() + laneThread(lane, 0),
                        numThreads, std::uint64_t(0));
            Rng &rng = *rngs[lane];
            for (std::uint32_t tid = 0; tid < numThreads; ++tid) {
                coreSlot[laneThread(lane, tid)] =
                    rng.nextBelow(cfg->timing.startSkewMax + 1);
            }
        }
        if (cfg->bug != BugKind::None) {
            for (std::uint32_t loc = 0; loc < numLocs; ++loc)
                history[laneLoc(lane, loc)].clear();
        }
        if (cfg->policy == SchedulingPolicy::Timed) {
            for (std::uint32_t tid = 0; tid < numThreads; ++tid)
                recomputeBest(lane, tid, nullptr);
        }
    }

    // --- Shared primitives (both policies) ----------------------------

    /**
     * Polled once per scheduler step per lane: abandon the run when
     * the watchdog fired, and enter the injected infinite stall when
     * the drill's step budget is reached.
     */
    void
    checkLiveness(std::uint32_t lane)
    {
        ++stepsTaken[lane];
        if (cancel && cancel->stopRequested()) {
            throw TestHungError(
                "run abandoned by watchdog: test deadline expired");
        }
        if (cfg->stallAfterSteps &&
            stepsTaken[lane] >= cfg->stallAfterSteps) {
            // A non-cooperative wedge never looks at the token:
            // recovery then requires killing the process, which is
            // exactly what the sandbox's hard deadline drills.
            stallUntilCancelled(cfg->stallIgnoresCancel ? nullptr
                                                        : cancel);
        }
    }

    /**
     * Eligibility of @p tid's reorder window [h, h+n) as a bit mask
     * (bit j = op h+j): the op is incomplete and its required
     * predecessors are complete. @p span is windowSpan(h), so op
     * h+j's own completion bit is span bit 32+j and its predecessor
     * window is span bits [j, j+32).
     */
    std::uint32_t
    candidateMask(std::uint32_t tid, std::uint32_t h, std::uint32_t n,
                  std::uint64_t span) const
    {
        const std::uint32_t *preds =
            flat.requiredPreds.data() + flat.opOffset[tid] + h;
        std::uint32_t mask = 0;
        for (std::uint32_t j = 0; j < n; ++j) {
            const std::uint32_t waiting =
                preds[j] & ~static_cast<std::uint32_t>(span >> j);
            mask |= std::uint32_t(waiting == 0) << j;
        }
        return mask & ~static_cast<std::uint32_t>(span >> 32);
    }

    /** Reorder-window length of @p tid at head @p h. */
    std::uint32_t
    windowLength(std::uint32_t tid, std::uint32_t h) const
    {
        const std::uint32_t size =
            flat.opOffset[tid + 1] - flat.opOffset[tid];
        return std::min(size - h, cfg->reorderWindow);
    }

    /**
     * Value forwarded from the latest po-earlier same-location store
     * of the same thread, O(1) via the precomputed priorStore table.
     */
    std::optional<std::uint32_t>
    forwardedValue(std::uint32_t lane, std::uint32_t tid,
                   std::uint32_t idx) const
    {
        const std::uint32_t base = flat.opOffset[tid];
        const std::uint32_t prior = flat.priorStore[base + idx];
        if (prior == kNoPriorStore)
            return std::nullopt;
        if (!completion.isCompleted(lane, tid, prior)) {
            // store-buffer forwarding
            return flat.opValue[base + prior];
        }
        return std::nullopt; // globally visible: read memory
    }

    void
    markCompleted(std::uint32_t lane, std::uint32_t tid,
                  std::uint32_t idx, std::uint64_t time)
    {
        completion.markCompleted(lane, tid, idx);
        completionTime[laneOp(lane) + flat.opOffset[tid] + idx] = time;
        Execution &out = *outs[lane];
        out.duration = std::max(out.duration, time);
        --remaining[lane];
        const std::uint32_t size =
            flat.opOffset[tid + 1] - flat.opOffset[tid];
        std::uint32_t &h = head[laneThread(lane, tid)];
        while (h < size && completion.isCompleted(lane, tid, h))
            ++h;
    }

    void
    completeStore(std::uint32_t lane, std::uint32_t tid,
                  std::uint32_t idx, std::uint64_t time)
    {
        const std::uint32_t fo = flat.opOffset[tid] + idx;
        const std::uint32_t loc = flat.opLoc[fo];
        mem[laneLoc(lane, loc)] = flat.opValue[fo];
        if (cfg->exportCoherenceOrder)
            outs[lane]->coherenceOrder[loc].push_back(OpId{tid, idx});
        if (cfg->bug != BugKind::None) {
            history[laneLoc(lane, loc)].emplace_back(time,
                                                     flat.opValue[fo]);
        }
        markCompleted(lane, tid, idx, time);
    }

    void
    completeLoad(std::uint32_t lane, std::uint32_t tid,
                 std::uint32_t idx, std::uint64_t time,
                 std::uint32_t value)
    {
        outs[lane]
            ->loadValues[flat.loadOrdinal[flat.opOffset[tid] + idx]] =
            value;
        markCompleted(lane, tid, idx, time);
    }

    /**
     * Memory value of @p loc as of time @p when (stale-read lookup):
     * the store with the latest perform time at or before @p when, the
     * later perform on a tie. Perform times are not monotone (a
     * short-latency op can complete before the previous perform's
     * time), so the whole history is scanned.
     */
    std::uint32_t
    valueAt(std::uint32_t lane, std::uint32_t loc,
            std::uint64_t when) const
    {
        std::uint32_t value = kInitValue;
        std::uint64_t latest = 0;
        for (const auto &[time, stored] : history[laneLoc(lane, loc)]) {
            if (time <= when && time >= latest) {
                latest = time;
                value = stored;
            }
        }
        return value;
    }

    // --- Uniform-random policy ----------------------------------------

    void
    stepUniform(std::uint32_t lane)
    {
        checkLiveness(lane);
        auto &eligible = eligibleScratch;
        eligible.clear();
        for (std::uint32_t tid = 0; tid < numThreads; ++tid) {
            const std::uint32_t h = head[laneThread(lane, tid)];
            std::uint32_t cand =
                candidateMask(tid, h, windowLength(tid, h),
                              completion.windowSpan(lane, tid, h));
            for (; cand; cand &= cand - 1)
                eligible.emplace_back(tid, h + __builtin_ctz(cand));
        }
        if (eligible.empty())
            throw PlatformError(
                "uniform executor wedged (internal bug)");

        const auto [tid, idx] =
            eligible[rngs[lane]->pickIndex(eligible.size())];
        const std::uint32_t fo = flat.opOffset[tid] + idx;
        const std::uint64_t step = ++uniformStep[lane];
        switch (static_cast<OpKind>(flat.opKind[fo])) {
          case OpKind::Store:
            completeStore(lane, tid, idx, step);
            break;
          case OpKind::Load: {
            auto forwarded = forwardedValue(lane, tid, idx);
            completeLoad(lane, tid, idx, step,
                         forwarded ? *forwarded
                                   : mem[laneLoc(lane,
                                                 flat.opLoc[fo])]);
            break;
          }
          case OpKind::Fence:
            markCompleted(lane, tid, idx, step);
            break;
        }
    }

    // --- Timed (silicon-like) policy ----------------------------------

    bool
    resident(std::uint32_t tid, const Line &line) const
    {
        return line.owner == static_cast<std::int32_t>(tid) ||
            ((line.sharers >> tid) & 1);
    }

    bool
    bugGate(std::uint32_t lane)
    {
        return rngs[lane]->nextBool(cfg->bugProbability);
    }

    std::uint64_t
    opJitter(std::uint32_t lane, std::uint32_t tid, std::uint32_t idx)
    {
        std::uint64_t &cached =
            jitter[laneOp(lane) + flat.opOffset[tid] + idx];
        if (cached == kNever) {
            const TimingParams &timing = cfg->timing;
            cached = rngs[lane]->nextBool(timing.jitterProbability)
                ? 1 + rngs[lane]->nextBelow(timing.jitterMax)
                : 0;
        }
        return cached;
    }

    /** This lane+core's flat LRU timestamp row. */
    std::uint64_t *
    coreLru(std::uint32_t lane, std::uint32_t tid)
    {
        return lruStamp.data() + laneThread(lane, tid) * numLines;
    }

    /** Drop @p line_idx from @p tid's LRU (no-op when not resident). */
    void
    lruErase(std::uint32_t lane, std::uint32_t tid,
             std::uint32_t line_idx)
    {
        std::uint64_t &stamp = coreLru(lane, tid)[line_idx];
        if (stamp != kNever) {
            stamp = kNever;
            --lruCount[laneThread(lane, tid)];
        }
    }

    /**
     * Max of the required predecessors' completion times, cached per
     * op: only eligible ops are evaluated, and an eligible op's
     * predecessors are all complete with final times.
     */
    std::uint64_t
    predMaxOf(std::uint32_t lane, std::uint32_t tid, std::uint32_t idx)
    {
        const std::uint32_t base = flat.opOffset[tid];
        const std::uint32_t fo = base + idx;
        std::uint64_t pred_max = predIssue[laneOp(lane) + fo];
        if (pred_max == kNever) {
            pred_max = 0;
            std::uint32_t preds = flat.requiredPreds[fo];
            const std::uint64_t *lane_times =
                completionTime.data() + laneOp(lane) + base;
            while (preds) {
                const int b = __builtin_ctz(preds);
                preds &= preds - 1;
                const std::int64_t j =
                    static_cast<std::int64_t>(idx) - 32 + b;
                if (j >= 0)
                    pred_max = std::max(pred_max, lane_times[j]);
            }
            predIssue[laneOp(lane) + fo] = pred_max;
        }
        return pred_max;
    }

    /** Issue-independent candidate latency: issue cost + the memory
     * system's residency-dependent cost + the op's (cached) jitter. */
    std::uint64_t
    computeLatency(std::uint32_t lane, std::uint32_t tid,
                   std::uint32_t idx)
    {
        const std::uint32_t fo = flat.opOffset[tid] + idx;
        const TimingParams &timing = cfg->timing;
        std::uint64_t latency = timing.issueCost;
        const OpKind kind = static_cast<OpKind>(flat.opKind[fo]);
        if (kind != OpKind::Fence) {
            const Line &line = lines[laneLine(lane, flat.opLine[fo])];
            if (kind == OpKind::Load) {
                if (resident(tid, line))
                    latency += timing.hitLatency;
                else if (line.owner >= 0)
                    latency += timing.transferLatency;
                else
                    latency += timing.missLatency;
            } else {
                if (line.owner == static_cast<std::int32_t>(tid)) {
                    latency += timing.hitLatency;
                } else if (resident(tid, line)) {
                    latency += timing.upgradeLatency;
                } else if (line.owner >= 0) {
                    latency += timing.transferLatency;
                } else {
                    latency += timing.missLatency;
                    // Other sharers must also be invalidated.
                    if (line.sharers != 0)
                        latency += timing.upgradeLatency;
                }
            }
        }
        latency += opJitter(lane, tid, idx);
        return latency;
    }

    /**
     * Re-time @p tid's window candidates, refresh its per-op candidate
     * caches and line summary, and cache its best candidate. Runs after
     * the thread's own performs (which shift its window, complete ops,
     * and move its core slot) and at lane seeding. Eligibility comes
     * from candidateMask; only candidates are visited, in ascending
     * idx, so lazily drawn jitter for newly eligible ops keeps the
     * full scan's (tid, idx) draw order.
     */
    void
    recomputeBest(std::uint32_t lane, std::uint32_t tid,
                  const DirtySet *dirty)
    {
        const std::size_t lt = laneThread(lane, tid);
        std::uint64_t best_time = kNever;
        std::uint64_t best_issue = 0;
        std::uint32_t best_idx = 0;
        std::uint64_t cand_lines = 0;
        if (!blocked[lt]) {
            const std::uint32_t base = flat.opOffset[tid];
            const std::uint32_t h = head[lt];
            const std::uint32_t n = windowLength(tid, h);
            const std::uint64_t span = completion.windowSpan(lane, tid, h);
            const std::uint64_t core_slot = coreSlot[lt];
            std::uint64_t *lane_cc = candComplete.data() + laneOp(lane);
            std::uint64_t *lane_ci = candIssue.data() + laneOp(lane);
            std::uint64_t *lane_lat = latCache.data() + laneOp(lane);
            // Eligibility holds from an op's first candidacy until it
            // performs, so the window's completed ops are the only
            // non-candidates whose entry can still hold a time.
            for (std::uint32_t done =
                     static_cast<std::uint32_t>(span >> 32) & lowBits(n);
                 done; done &= done - 1)
                lane_cc[base + h + __builtin_ctz(done)] = kNever;
            for (std::uint32_t cand = candidateMask(tid, h, n, span);
                 cand; cand &= cand - 1) {
                const std::uint32_t idx = h + __builtin_ctz(cand);
                const std::uint32_t fo = base + idx;
                const std::uint32_t line_idx = flat.opLine[fo];
                // First candidacy computes the latency (drawing the
                // op's jitter); the own perform's dirty lines force a
                // re-derivation; everything else reuses the cache.
                std::uint64_t lat;
                if (lane_cc[fo] == kNever ||
                    (dirty && dirty->contains(line_idx))) {
                    lat = computeLatency(lane, tid, idx);
                    lane_lat[fo] = lat;
                } else {
                    lat = lane_lat[fo];
                }
                const std::uint64_t issue =
                    std::max(core_slot, predMaxOf(lane, tid, idx));
                const std::uint64_t completes = issue + lat;
                lane_cc[fo] = completes;
                lane_ci[fo] = issue;
                cand_lines |= lineBit(line_idx);
                // Strict < keeps the earliest idx on a tie,
                // reproducing the full scan's (tid, idx) preference.
                if (completes < best_time) {
                    best_time = completes;
                    best_issue = issue;
                    best_idx = idx;
                }
            }
        }
        bestTime[lt] = best_time;
        bestIssue[lt] = best_issue;
        bestIdx[lt] = best_idx;
        candLines[lt] = cand_lines;
    }

    /**
     * Re-time @p tid's window candidates sitting on a cache line the
     * last perform dirtied and re-pick its best candidate. Another
     * thread's perform cannot change this thread's eligibility, core
     * slot or predecessor times, only latencies through those ≤2
     * lines. stepTimed calls it only for threads whose candLines
     * summary meets the DirtySet's. Draws nothing: every candidate's
     * jitter was drawn when it first became eligible (its own
     * thread's recompute), so the refresh is invisible to the RNG
     * stream.
     */
    void
    refreshDirty(std::uint32_t lane, std::uint32_t tid,
                 const DirtySet &dirty)
    {
        const std::size_t lt = laneThread(lane, tid);
        const std::uint32_t base = flat.opOffset[tid];
        const std::uint32_t h = head[lt];
        const std::uint32_t end = h + windowLength(tid, h);
        std::uint64_t *lane_cc = candComplete.data() + laneOp(lane);
        std::uint64_t *lane_ci = candIssue.data() + laneOp(lane);
        std::uint64_t *lane_lat = latCache.data() + laneOp(lane);
        std::uint64_t best_time = kNever;
        std::uint64_t best_issue = 0;
        std::uint32_t best_idx = 0;
        for (std::uint32_t idx = h; idx < end; ++idx) {
            const std::uint32_t fo = base + idx;
            if (lane_cc[fo] == kNever)
                continue;
            if (dirty.contains(flat.opLine[fo])) {
                const std::uint64_t lat = computeLatency(lane, tid, idx);
                lane_lat[fo] = lat;
                lane_cc[fo] = lane_ci[fo] + lat;
            }
            if (lane_cc[fo] < best_time) {
                best_time = lane_cc[fo];
                best_issue = lane_ci[fo];
                best_idx = idx;
            }
        }
        bestTime[lt] = best_time;
        bestIssue[lt] = best_issue;
        bestIdx[lt] = best_idx;
    }

    /** Touch the LRU and evict over-capacity lines for @p tid. */
    void
    touchLine(std::uint32_t lane, std::uint32_t tid,
              std::uint32_t line_idx, std::uint64_t now,
              DirtySet &dirty)
    {
        const std::uint32_t capacity = cfg->timing.cacheLines;
        std::uint64_t *stamps = coreLru(lane, tid);
        std::uint32_t &count = lruCount[laneThread(lane, tid)];
        if (stamps[line_idx] == kNever)
            ++count;
        stamps[line_idx] = now;
        if (capacity == 0 || count <= capacity)
            return;

        // Evict the least-recently-used other line (lowest line index
        // on a timestamp tie).
        std::uint32_t victim = line_idx;
        std::uint64_t oldest = kNever;
        for (std::uint32_t l = 0; l < numLines; ++l) {
            if (l != line_idx && stamps[l] < oldest) {
                oldest = stamps[l];
                victim = l;
            }
        }
        stamps[victim] = kNever;
        --count;
        dirty.add(victim); // owner/sharers change below
        Line &line = lines[laneLine(lane, victim)];
        if (line.owner == static_cast<std::int32_t>(tid)) {
            // Dirty eviction: writeback (PUTX). Values are already in
            // memory in this model; record the event for the bug-3
            // race window.
            line.owner = -1;
            line.lastEvictTime = now;
            line.everEvicted = true;
        }
        line.sharers &= ~(std::uint32_t(1) << tid);
    }

    /** Does thread @p tid have an incomplete po-earlier store to the
     * same cache line as the load at @p idx (S->M upgrade in flight)? */
    bool
    upgradeInFlight(std::uint32_t lane, std::uint32_t tid,
                    std::uint32_t idx, std::uint32_t line_idx) const
    {
        const std::uint32_t base = flat.opOffset[tid];
        for (std::uint32_t i = head[laneThread(lane, tid)]; i < idx;
             ++i) {
            if (!completion.isCompleted(lane, tid, i) &&
                static_cast<OpKind>(flat.opKind[base + i]) ==
                    OpKind::Store &&
                flat.opLine[base + i] == line_idx) {
                return true;
            }
        }
        return false;
    }

    void
    perform(std::uint32_t lane, std::uint32_t tid, std::uint32_t idx,
            std::uint64_t issue, std::uint64_t now, DirtySet &dirty)
    {
        const std::uint32_t fo = flat.opOffset[tid] + idx;
        const OpKind kind = static_cast<OpKind>(flat.opKind[fo]);
        const TimingParams &timing = cfg->timing;
        std::uint64_t &core_slot = coreSlot[laneThread(lane, tid)];

        if (kind == OpKind::Fence) {
            markCompleted(lane, tid, idx, now);
            core_slot = std::max(core_slot, issue) + timing.issueCost;
            return;
        }

        const std::uint32_t loc = flat.opLoc[fo];
        const std::uint32_t line_idx = flat.opLine[fo];
        Line &line = lines[laneLine(lane, line_idx)];
        dirty.add(line_idx);

        // Bug 3: the ownership-transfer request raced with the owner's
        // writeback and got lost; the requester spins forever.
        if (cfg->bug == BugKind::PutxGetxRace &&
            !resident(tid, line) && line.everEvicted &&
            line.lastEvictTime > issue && bugGate(lane)) {
            blocked[laneThread(lane, tid)] = 1;
            return;
        }

        if (kind == OpKind::Store) {
            // Invalidate all other copies; take ownership.
            if (line.owner >= 0 &&
                line.owner != static_cast<std::int32_t>(tid)) {
                lruErase(lane, static_cast<std::uint32_t>(line.owner),
                         line_idx);
            }
            for (std::uint32_t other = 0; other < numThreads;
                 ++other) {
                if (other != tid && ((line.sharers >> other) & 1))
                    lruErase(lane, other, line_idx);
            }
            line.owner = static_cast<std::int32_t>(tid);
            line.sharers = std::uint32_t(1) << tid;
            line.lastStoreTime = now;
            line.lastStoreTid = static_cast<std::int32_t>(tid);
            touchLine(lane, tid, line_idx, now, dirty);
            completeStore(lane, tid, idx, now);
        } else {
            std::uint32_t value;
            auto forwarded = forwardedValue(lane, tid, idx);
            if (forwarded) {
                value = *forwarded;
            } else {
                value = mem[laneLoc(lane, loc)];

                // Bugs 1/2: a remote store invalidated this line while
                // the load was in flight, but the load is not squashed
                // and returns the stale value it snooped at issue.
                const bool remote_inval = line.lastStoreTid >= 0 &&
                    line.lastStoreTid !=
                        static_cast<std::int32_t>(tid) &&
                    line.lastStoreTime > issue;
                if (remote_inval && cfg->bug != BugKind::None) {
                    const bool fire =
                        (cfg->bug == BugKind::LsqNoSquash ||
                         (cfg->bug == BugKind::StaleLoadOnUpgrade &&
                          upgradeInFlight(lane, tid, idx,
                                          line_idx))) &&
                        bugGate(lane);
                    if (fire)
                        value = valueAt(lane, loc, issue);
                }
            }

            // Owner (if another core) is downgraded to shared.
            if (line.owner >= 0 &&
                line.owner != static_cast<std::int32_t>(tid)) {
                line.sharers |= std::uint32_t(1) << line.owner;
                line.owner = -1;
            }
            line.sharers |= std::uint32_t(1) << tid;
            touchLine(lane, tid, line_idx, now, dirty);
            completeLoad(lane, tid, idx, now, value);
        }

        core_slot = std::max(core_slot, issue) + timing.issueCost;

        // OS-interference mode: occasionally the scheduler preempts
        // the core, stalling its subsequent issues for a full slice.
        if (timing.preemptProbability > 0.0 &&
            rngs[lane]->nextBool(timing.preemptProbability)) {
            core_slot += timing.preemptSlice;
        }
    }

    /**
     * One Timed-policy step: perform the lane's earliest-completing
     * candidate, then bring the cached candidate times back in line
     * with the new state — the performing thread re-times its whole
     * candidate set, every other thread only what the perform's dirty
     * lines can have changed.
     */
    void
    stepTimed(std::uint32_t lane)
    {
        checkLiveness(lane);
        const std::uint64_t *lane_best = bestTime.data() +
            laneThread(lane, 0);
        std::uint32_t best_tid = 0;
        std::uint64_t best_time = kNever;
        // Deterministic tie-break (lowest thread id / oldest op):
        // silicon arbitration is stable, so equal-latency races
        // repeat the same winner.
        for (std::uint32_t tid = 0; tid < numThreads; ++tid) {
            if (lane_best[tid] < best_time) {
                best_time = lane_best[tid];
                best_tid = tid;
            }
        }
        if (best_time == kNever) {
            // Only blocked threads have work left: the injected
            // protocol race wedged the platform.
            throw ProtocolDeadlockError(
                "coherence request lost (PUTX/GETX race): platform "
                "deadlocked");
        }

        DirtySet dirty;
        perform(lane, best_tid, bestIdx[laneThread(lane, best_tid)],
                bestIssue[laneThread(lane, best_tid)], best_time,
                dirty);

        // Eligibility and issue-time inputs are strictly intra-thread,
        // so only the performing thread's candidate set changed — and
        // its recompute runs first, drawing jitter for newly eligible
        // ops in idx order, matching the full rescan's draw sequence.
        // Other threads are affected only through the cache lines this
        // perform mutated, so only those with a candidate on one of
        // them refresh; the refresh draws nothing.
        recomputeBest(lane, best_tid, &dirty);
        const std::uint64_t *lane_lines = candLines.data() +
            laneThread(lane, 0);
        for (std::uint32_t tid = 0; tid < numThreads; ++tid) {
            if (tid != best_tid && (lane_lines[tid] & dirty.summary))
                refreshDirty(lane, tid, dirty);
        }
    }

    // --- Lockstep dispatch --------------------------------------------

    /**
     * Advance every lane in activeLanes one step per round until all
     * retire. With @p capture set, per-lane faults become LaneStatus
     * entries (crash retires one lane; a hang retires them all);
     * without it (the scalar path) they propagate as the exceptions
     * scalar runInto() documents. Retirement swaps the last active
     * lane into the vacated slot, so each round still steps every
     * remaining lane exactly once.
     */
    void
    runLanes(LaneStatus *status, BatchRunArena *capture)
    {
        auto drive = [&](auto step) {
            auto &active = activeLanes;
            while (!active.empty()) {
                for (std::size_t i = 0; i < active.size();) {
                    const std::uint32_t lane = active[i];
                    if (remaining[lane] == 0) {
                        status[lane] = LaneStatus::Completed;
                        active[i] = active.back();
                        active.pop_back();
                        continue;
                    }
                    if (capture) {
                        try {
                            step(lane);
                        } catch (const TestHungError &err) {
                            capture->recordHang(err.what());
                            // A lane that already performed its last
                            // op is complete even if it has not been
                            // retired from the active list yet; only
                            // genuinely unfinished lanes are abandoned.
                            for (std::uint32_t pending : active) {
                                if (remaining[pending] != 0)
                                    status[pending] = LaneStatus::Hung;
                            }
                            active.clear();
                            return;
                        } catch (const ProtocolDeadlockError &err) {
                            capture->recordCrash(lane, err.what());
                            status[lane] = LaneStatus::Crashed;
                            active[i] = active.back();
                            active.pop_back();
                            continue;
                        }
                    } else {
                        step(lane);
                    }
                    ++i;
                }
            }
        };
        if (cfg->policy == SchedulingPolicy::UniformRandom) {
            drive([&](std::uint32_t lane) { stepUniform(lane); });
        } else {
            drive([&](std::uint32_t lane) { stepTimed(lane); });
        }
    }
};

} // anonymous namespace

OperationalExecutor::OperationalExecutor(ExecutorConfig cfg_arg)
    : cfg(cfg_arg)
{
    if (cfg.reorderWindow < 1 || cfg.reorderWindow > kMaxReorderWindow)
        throw ConfigError("reorder window must lie in [1, 32]");
    if (cfg.bugProbability < 0.0 || cfg.bugProbability > 1.0)
        throw ConfigError("bug probability must lie in [0,1]");
    if (cfg.bug != BugKind::None &&
        cfg.policy != SchedulingPolicy::Timed) {
        throw ConfigError("bug injection requires the Timed policy");
    }
}

void
OperationalExecutor::runInto(const TestProgram &program, Rng &rng,
                             RunArena &arena,
                             const CancellationToken *cancel)
{
    // Crash drill: fail the Nth run before touching any state, the
    // way a platform lockup kills a re-execution outright.
    ++runsStarted;
    if (cfg.crashOnRun && runsStarted == cfg.crashOnRun) {
        throw ProtocolDeadlockError(
            "crash drill: scheduled platform crash on run " +
            std::to_string(runsStarted));
    }
    // Hard-failure drills: a REAL fatal signal / allocation bomb, not
    // a catchable exception. In-process these kill the campaign; the
    // sandbox contains them — that asymmetry is what they exist to
    // demonstrate.
    if (cfg.dieAfterRuns && runsStarted == cfg.dieAfterRuns)
        ::raise(cfg.dieSignal);
    if (cfg.leakAfterRuns && runsStarted == cfg.leakAfterRuns)
        allocationBomb();

    // The scalar run is the batch engine at one lane: faults
    // propagate as exceptions instead of lane statuses.
    BatchState &state = arena.stateAs<BatchState>();
    state.bind(program, cfg, 1);
    state.cancel = cancel;
    state.rngs[0] = &rng;
    state.outs[0] = &arena.execution;
    state.resetLane(0);
    state.activeLanes.clear();
    state.activeLanes.push_back(0);
    LaneStatus status = LaneStatus::Completed;
    state.runLanes(&status, nullptr);
}

void
OperationalExecutor::runBatchInto(const TestProgram &program, Rng *rngs,
                                  std::uint32_t num_lanes,
                                  BatchRunArena &batch,
                                  const CancellationToken *cancel,
                                  LaneStatus *status)
{
    batch.beginBatch(num_lanes);
    BatchState &state = batch.stateAs<BatchState>();
    state.bind(program, cfg, num_lanes);
    state.cancel = cancel;
    state.activeLanes.clear();
    for (std::uint32_t lane = 0; lane < num_lanes; ++lane) {
        // Per-lane drill clock: lane k of a batch is run number
        // runsStarted+k, exactly as the scalar loop would count it,
        // and a crash drill fires before the lane consumes any state
        // or RNG draw (the scalar throw point).
        ++runsStarted;
        if (cfg.crashOnRun && runsStarted == cfg.crashOnRun) {
            batch.recordCrash(
                lane,
                "crash drill: scheduled platform crash on run " +
                    std::to_string(runsStarted));
            status[lane] = LaneStatus::Crashed;
            continue;
        }
        if (cfg.dieAfterRuns && runsStarted == cfg.dieAfterRuns)
            ::raise(cfg.dieSignal);
        if (cfg.leakAfterRuns && runsStarted == cfg.leakAfterRuns)
            allocationBomb();
        state.rngs[lane] = &rngs[lane];
        state.outs[lane] = &batch.executions[lane];
        state.resetLane(lane);
        status[lane] = LaneStatus::Completed; // until proven otherwise
        state.activeLanes.push_back(lane);
    }
    state.runLanes(status, &batch);
}

ExecutorConfig
bareMetalConfig(Isa isa)
{
    ExecutorConfig cfg;
    cfg.model = defaultModel(isa);
    cfg.policy = SchedulingPolicy::Timed;
    // The x86 part (Core 2 Quad) is a wider out-of-order machine than
    // the ARM big.LITTLE cores, but its TSO model restricts visible
    // reordering; window sizes are per-thread in-flight memory ops.
    cfg.reorderWindow = isa == Isa::X86 ? 16 : 8;
    return cfg;
}

ExecutorConfig
osConfig(Isa isa)
{
    ExecutorConfig cfg = bareMetalConfig(isa);
    cfg.timing.preemptProbability = 0.002;
    cfg.timing.startSkewMax = 64;
    return cfg;
}

ExecutorConfig
scReferenceConfig()
{
    ExecutorConfig cfg;
    cfg.model = MemoryModel::SC;
    cfg.policy = SchedulingPolicy::UniformRandom;
    cfg.reorderWindow = 1;
    cfg.exportCoherenceOrder = true;
    return cfg;
}

} // namespace mtc
