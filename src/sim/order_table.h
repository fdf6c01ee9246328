/**
 * @file
 * Precomputed intra-thread ordering constraints shared by the platform
 * models.
 *
 * For each op idx, a 32-bit mask over the 32 program-order-preceding
 * ops (bit b stands for op idx-32+b) that must complete before idx may
 * perform, per requiredOrder(). Built once per (program, model) and
 * reused across iterations; eligibility testing against it is the hot
 * path of every executor.
 */

#ifndef MTC_SIM_ORDER_TABLE_H
#define MTC_SIM_ORDER_TABLE_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/po_edges.h"
#include "mcm/memory_model.h"
#include "testgen/test_program.h"

namespace mtc
{

/** Maximum supported reorder window (ordering masks are 32-bit). */
constexpr std::uint32_t kMaxReorderWindow = 32;

/** priorStore sentinel: no program-order-earlier same-location store. */
constexpr std::uint32_t kNoPriorStore =
    std::numeric_limits<std::uint32_t>::max();

/** Required-predecessor masks for one (program, model) pair. */
struct OrderTable
{
    std::vector<std::vector<std::uint32_t>> requiredPreds;

    /**
     * priorStore[tid][idx]: index of the nearest program-order-earlier
     * store of thread @p tid to the same location as op idx, or
     * kNoPriorStore. Store-to-load forwarding only ever consults the
     * *nearest* prior same-location store (a completed one masks every
     * older one), so this table makes forwardedValue O(1) instead of
     * an O(idx) backward scan per load. Model-independent, but built
     * here so it rides the existing per-(program, model) cache.
     */
    std::vector<std::vector<std::uint32_t>> priorStore;

    void
    build(const TestProgram &program, MemoryModel model)
    {
        const auto &threads = program.threadBodies();
        requiredPreds.assign(threads.size(), {});
        priorStore.assign(threads.size(), {});
        std::vector<std::uint32_t> last_store;
        for (std::size_t tid = 0; tid < threads.size(); ++tid) {
            const auto &body = threads[tid];
            requiredPreds[tid].assign(body.size(), 0);
            priorStore[tid].assign(body.size(), kNoPriorStore);
            last_store.assign(program.config().numLocations,
                              kNoPriorStore);
            for (std::uint32_t idx = 0; idx < body.size(); ++idx) {
                std::uint32_t mask = 0;
                for (std::uint32_t b = 0; b < kMaxReorderWindow; ++b) {
                    const std::int64_t j =
                        static_cast<std::int64_t>(idx) - 32 + b;
                    if (j < 0)
                        continue;
                    if (requiredOrder(model, body[j], body[idx]))
                        mask |= std::uint32_t(1) << b;
                }
                requiredPreds[tid][idx] = mask;
                if (body[idx].kind != OpKind::Fence) {
                    priorStore[tid][idx] = last_store[body[idx].loc];
                    if (body[idx].kind == OpKind::Store)
                        last_store[body[idx].loc] = idx;
                }
            }
        }
    }
};

/** loadOrdinal sentinel in FlatOrderTable: op is not a load. */
constexpr std::uint32_t kNotALoad =
    std::numeric_limits<std::uint32_t>::max();

/**
 * Flattened, lane-shareable program metadata for the batched lockstep
 * engine: every per-op table an executor consults on its hot path —
 * required-predecessor masks, nearest-prior-store indexes, op kind/
 * location/value, and load ordinals — laid out as flat arrays indexed
 * by `opOffset[tid] + idx`. The data depends only on the (program,
 * model) pair, so one FlatOrderTable serves every lane of a batch (and
 * every iteration of a test): the vector<vector<...>> indirections and
 * the loadOrdinal hash lookup are paid once per table build instead of
 * once per access.
 */
struct FlatOrderTable
{
    /** Prefix sums of thread sizes; opOffset[numThreads] = totalOps. */
    std::vector<std::uint32_t> opOffset;

    std::vector<std::uint32_t> requiredPreds; ///< [flat op]
    std::vector<std::uint32_t> priorStore;    ///< [flat op]
    std::vector<std::uint8_t> opKind;         ///< [flat op] (OpKind)
    std::vector<std::uint32_t> opLoc;         ///< [flat op]
    std::vector<std::uint32_t> opValue;       ///< [flat op]
    /** Load ordinal of a flat op, or kNotALoad. */
    std::vector<std::uint32_t> loadOrdinal;
    /** loc -> cache line (lineOf() hoisted off the hot path). */
    std::vector<std::uint32_t> locLine;
    /** Cache line of a flat op's location (locLine[opLoc[fo]] fused
     * into one load; 0 for fences, which never consult it). */
    std::vector<std::uint32_t> opLine;

    std::uint32_t totalOps = 0;

    std::uint32_t
    flatIndex(std::uint32_t tid, std::uint32_t idx) const
    {
        return opOffset[tid] + idx;
    }

    void
    build(const TestProgram &program, const OrderTable &table)
    {
        const auto &threads = program.threadBodies();
        const std::uint32_t num_threads = program.numThreads();
        opOffset.assign(num_threads + 1, 0);
        for (std::uint32_t t = 0; t < num_threads; ++t) {
            opOffset[t + 1] = opOffset[t] +
                static_cast<std::uint32_t>(threads[t].size());
        }
        totalOps = opOffset[num_threads];
        requiredPreds.resize(totalOps);
        priorStore.resize(totalOps);
        opKind.resize(totalOps);
        opLoc.resize(totalOps);
        opValue.resize(totalOps);
        loadOrdinal.resize(totalOps);
        for (std::uint32_t t = 0; t < num_threads; ++t) {
            const auto &body = threads[t];
            for (std::uint32_t idx = 0; idx < body.size(); ++idx) {
                const std::uint32_t fo = opOffset[t] + idx;
                requiredPreds[fo] = table.requiredPreds[t][idx];
                priorStore[fo] = table.priorStore[t][idx];
                opKind[fo] = static_cast<std::uint8_t>(body[idx].kind);
                opLoc[fo] = body[idx].loc;
                opValue[fo] = body[idx].value;
                loadOrdinal[fo] = body[idx].kind == OpKind::Load
                    ? program.loadOrdinal(OpId{t, idx})
                    : kNotALoad;
            }
        }
        const std::uint32_t num_locs = program.config().numLocations;
        locLine.resize(num_locs);
        for (std::uint32_t loc = 0; loc < num_locs; ++loc)
            locLine[loc] = program.lineOf(loc);
        opLine.resize(totalOps);
        for (std::uint32_t fo = 0; fo < totalOps; ++fo) {
            opLine[fo] = opKind[fo] ==
                    static_cast<std::uint8_t>(OpKind::Fence)
                ? 0
                : locLine[opLoc[fo]];
        }
    }
};

/**
 * Per-thread completion bitset with O(1) window queries, the companion
 * of OrderTable. Completion bits for ops before idx-32 are implied by
 * the reorder window (every in-flight op is within 32 of the head).
 */
class CompletionBits
{
  public:
    void
    reset(const TestProgram &program)
    {
        const auto &threads = program.threadBodies();
        words.resize(threads.size());
        for (std::size_t t = 0; t < threads.size(); ++t)
            words[t].assign((threads[t].size() + 63) / 64, 0);
    }

    bool
    isCompleted(std::uint32_t tid, std::uint32_t idx) const
    {
        return (words[tid][idx >> 6] >> (idx & 63)) & 1;
    }

    void
    markCompleted(std::uint32_t tid, std::uint32_t idx)
    {
        words[tid][idx >> 6] |= std::uint64_t(1) << (idx & 63);
    }

    /**
     * Completion mask over ops [idx-32, idx): bit b covers op
     * idx-32+b; bits for negative indices read as "complete".
     */
    std::uint32_t
    windowCompleted(std::uint32_t tid, std::uint32_t idx) const
    {
        const auto &thread_words = words[tid];
        auto grab64 = [&](std::uint32_t start) -> std::uint64_t {
            const std::uint32_t word = start >> 6;
            const std::uint32_t off = start & 63;
            std::uint64_t v =
                word < thread_words.size() ? thread_words[word] >> off
                                           : 0;
            if (off && word + 1 < thread_words.size())
                v |= thread_words[word + 1] << (64 - off);
            return v;
        };
        if (idx >= kMaxReorderWindow)
            return static_cast<std::uint32_t>(
                grab64(idx - kMaxReorderWindow));
        if (idx == 0)
            return ~std::uint32_t(0); // whole window predates index 0
        const std::uint32_t real = static_cast<std::uint32_t>(grab64(0))
            << (kMaxReorderWindow - idx);
        const std::uint32_t pad =
            (std::uint32_t(1) << (kMaxReorderWindow - idx)) - 1;
        return real | pad;
    }

  private:
    std::vector<std::vector<std::uint64_t>> words;
};

/**
 * Multi-lane completion bitset: CompletionBits' semantics over a flat
 * lane-contiguous array, the structure-of-arrays form the batched
 * lockstep engine keeps its per-lane completion state in. Every
 * thread's bits occupy a fixed `wordStride` span (sized for the
 * longest thread; a shorter thread's surplus words stay zero, which
 * reads identically to CompletionBits' out-of-range behavior), so
 * lane/thread addressing is pure arithmetic with no per-thread vector
 * hops. reset() refills in place — capacity survives across batches.
 */
class LaneCompletionBits
{
  public:
    void
    reset(const TestProgram &program, std::uint32_t lanes)
    {
        numThreads = program.numThreads();
        std::uint32_t max_ops = 0;
        for (std::uint32_t t = 0; t < numThreads; ++t)
            max_ops = std::max(max_ops, program.opsInThread(t));
        wordStride = (max_ops + 63) / 64;
        words.assign(static_cast<std::size_t>(lanes) * numThreads *
                         wordStride,
                     0);
    }

    /** Zero one lane's bits (per-lane re-reset between batches). */
    void
    resetLane(std::uint32_t lane)
    {
        std::uint64_t *base =
            words.data() +
            static_cast<std::size_t>(lane) * numThreads * wordStride;
        for (std::size_t w = 0;
             w < static_cast<std::size_t>(numThreads) * wordStride; ++w)
            base[w] = 0;
    }

    const std::uint64_t *
    threadWords(std::uint32_t lane, std::uint32_t tid) const
    {
        return words.data() +
            (static_cast<std::size_t>(lane) * numThreads + tid) *
            wordStride;
    }

    bool
    isCompleted(std::uint32_t lane, std::uint32_t tid,
                std::uint32_t idx) const
    {
        return (threadWords(lane, tid)[idx >> 6] >> (idx & 63)) & 1;
    }

    void
    markCompleted(std::uint32_t lane, std::uint32_t tid,
                  std::uint32_t idx)
    {
        std::uint64_t *row = words.data() +
            (static_cast<std::size_t>(lane) * numThreads + tid) *
            wordStride;
        row[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    }

    /**
     * Completion bits of ops [head-32, head+32) in one word: bit k
     * covers op head-32+k; negative indices read as complete, indices
     * past the thread's end as incomplete. For j in [0, 32], op
     * head+j's CompletionBits::windowCompleted mask is the low 32 bits
     * of `span >> j`, and for j < 32 its own bit is bit 32+j — so one
     * grab answers every eligibility query of a reorder window.
     */
    std::uint64_t
    windowSpan(std::uint32_t lane, std::uint32_t tid,
               std::uint32_t head) const
    {
        const std::uint64_t *row = threadWords(lane, tid);
        auto grab64 = [&](std::uint32_t start) -> std::uint64_t {
            const std::uint32_t word = start >> 6;
            const std::uint32_t off = start & 63;
            std::uint64_t v = word < wordStride ? row[word] >> off : 0;
            if (off && word + 1 < wordStride)
                v |= row[word + 1] << (64 - off);
            return v;
        };
        if (head >= kMaxReorderWindow)
            return grab64(head - kMaxReorderWindow);
        const std::uint32_t pad = kMaxReorderWindow - head;
        return (grab64(0) << pad) | ((std::uint64_t(1) << pad) - 1);
    }

  private:
    std::vector<std::uint64_t> words;
    std::uint32_t wordStride = 0;
    std::uint32_t numThreads = 0;
};

} // namespace mtc

#endif // MTC_SIM_ORDER_TABLE_H
