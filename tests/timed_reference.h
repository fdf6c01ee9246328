/**
 * @file
 * Reference Timed scheduler for tests: the executor's silicon-like
 * policy rebuilt from scratch, with no per-op caches and no dirty
 * sets.
 *
 * Every step re-times every reorder-window op of every thread from the
 * current cache-line and LRU state: eligibility from requiredOrder()
 * over the op's 32 program-order predecessors, issue time from the
 * core slot and those predecessors' completion times, latency from
 * the line's residency. The engine in src/sim/executor.cc caches all
 * of that and re-times only what a perform can have changed; a missed
 * invalidation there (a dirty line left out, a thread not refreshed)
 * leaves a stale time that this reference cannot reproduce.
 *
 * The RNG contract both follow, per run: one start-skew draw per
 * thread in tid order; one jitter draw (a Bernoulli, then a magnitude
 * when it fires) the first time an op is eligible, threads in tid
 * order and ops in idx order; during a perform, the bug gate when its
 * trigger holds and then, for loads and stores that did not block, the
 * preemption draw.
 */

#ifndef MTC_TESTS_TIMED_REFERENCE_H
#define MTC_TESTS_TIMED_REFERENCE_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/po_edges.h"
#include "sim/executor_config.h"
#include "sim/order_table.h"
#include "support/rng.h"
#include "testgen/execution.h"
#include "testgen/test_program.h"

namespace mtc
{

/** What one reference run produced. */
struct ReferenceTimedOutcome
{
    bool crashed = false; ///< only blocked threads had work left
    Execution execution;  ///< valid when !crashed

    // What the run exercised, so a test can show its case is live.
    std::uint64_t evictions = 0;   ///< capacity evictions
    std::uint64_t bugGates = 0;    ///< bug-gate draws
    std::uint64_t preemptions = 0; ///< OS preemptions taken
};

class ReferenceTimedExecutor
{
  public:
    explicit ReferenceTimedExecutor(ExecutorConfig cfg_arg)
        : cfg(cfg_arg)
    {
    }

    ReferenceTimedOutcome
    run(const TestProgram &program_arg, Rng &rng_arg)
    {
        program = &program_arg;
        rng = &rng_arg;
        const auto &threads = program->threadBodies();
        const std::uint32_t num_threads = program->numThreads();
        const std::uint32_t num_locs = program->config().numLocations;

        mem.assign(num_locs, kInitValue);
        history.assign(num_locs, {});
        done.assign(num_threads, {});
        doneAt.assign(num_threads, {});
        jitter.assign(num_threads, {});
        for (std::uint32_t t = 0; t < num_threads; ++t) {
            done[t].assign(threads[t].size(), false);
            doneAt[t].assign(threads[t].size(), 0);
            jitter[t].assign(threads[t].size(), std::nullopt);
        }
        head.assign(num_threads, 0);
        blocked.assign(num_threads, false);
        lines.assign(program->numLines(), Line{});
        lru.assign(num_threads,
                   std::vector<std::optional<std::uint64_t>>(
                       program->numLines()));
        result = ReferenceTimedOutcome{};
        Execution &out = result.execution;
        out.loadValues.assign(program->loads().size(), kInitValue);
        if (cfg.exportCoherenceOrder)
            out.coherenceOrder.resize(num_locs);

        slot.assign(num_threads, 0);
        for (std::uint32_t t = 0; t < num_threads; ++t)
            slot[t] = rng->nextBelow(cfg.timing.startSkewMax + 1);

        std::size_t remaining = program->numOps();
        while (remaining != 0) {
            bool found = false;
            std::uint32_t best_tid = 0, best_idx = 0;
            std::uint64_t best_time = 0, best_issue = 0;
            for (std::uint32_t t = 0; t < num_threads; ++t) {
                if (blocked[t])
                    continue;
                const std::uint32_t end = std::min<std::uint32_t>(
                    static_cast<std::uint32_t>(threads[t].size()),
                    head[t] + cfg.reorderWindow);
                for (std::uint32_t idx = head[t]; idx < end; ++idx) {
                    if (done[t][idx] || !ready(t, idx))
                        continue;
                    const std::uint64_t issue =
                        std::max(slot[t], predecessorsDone(t, idx));
                    const std::uint64_t completes =
                        issue + latency(t, idx);
                    if (!found || completes < best_time) {
                        found = true;
                        best_tid = t;
                        best_idx = idx;
                        best_time = completes;
                        best_issue = issue;
                    }
                }
            }
            if (!found) {
                result.crashed = true;
                result.execution = Execution{};
                return result;
            }
            const bool completed =
                perform(best_tid, best_idx, best_issue, best_time);
            remaining -= completed ? 1 : 0;
        }
        return result;
    }

  private:
    struct Line
    {
        std::int32_t owner = -1;
        std::uint32_t sharers = 0;
        std::uint64_t lastStoreTime = 0;
        std::int32_t lastStoreTid = -1;
        std::uint64_t lastEvictTime = 0;
        bool everEvicted = false;
    };

    const MemOp &
    opAt(std::uint32_t tid, std::uint32_t idx) const
    {
        return program->threadBodies()[tid][idx];
    }

    /** First index of @p idx's ordering horizon (32 ops back). */
    static std::uint32_t
    horizon(std::uint32_t idx)
    {
        return idx > kMaxReorderWindow ? idx - kMaxReorderWindow : 0;
    }

    bool
    ready(std::uint32_t tid, std::uint32_t idx) const
    {
        for (std::uint32_t j = horizon(idx); j < idx; ++j) {
            if (!done[tid][j] &&
                requiredOrder(cfg.model, opAt(tid, j), opAt(tid, idx)))
                return false;
        }
        return true;
    }

    std::uint64_t
    predecessorsDone(std::uint32_t tid, std::uint32_t idx) const
    {
        std::uint64_t latest = 0;
        for (std::uint32_t j = horizon(idx); j < idx; ++j) {
            if (requiredOrder(cfg.model, opAt(tid, j), opAt(tid, idx)))
                latest = std::max(latest, doneAt[tid][j]);
        }
        return latest;
    }

    bool
    holds(std::uint32_t tid, const Line &line) const
    {
        return line.owner == static_cast<std::int32_t>(tid) ||
            ((line.sharers >> tid) & 1) != 0;
    }

    std::uint64_t
    latency(std::uint32_t tid, std::uint32_t idx)
    {
        const TimingParams &tp = cfg.timing;
        std::optional<std::uint64_t> &noise = jitter[tid][idx];
        if (!noise) {
            noise = rng->nextBool(tp.jitterProbability)
                ? 1 + rng->nextBelow(tp.jitterMax)
                : 0;
        }
        std::uint64_t cost = tp.issueCost + *noise;
        const MemOp &op = opAt(tid, idx);
        if (op.kind == OpKind::Fence)
            return cost;
        const Line &line = lines[program->lineOf(op.loc)];
        const bool owner = line.owner == static_cast<std::int32_t>(tid);
        const bool remote_owner = line.owner >= 0 && !owner;
        if (op.kind == OpKind::Load) {
            cost += holds(tid, line) ? tp.hitLatency
                : remote_owner       ? tp.transferLatency
                                     : tp.missLatency;
        } else if (owner) {
            cost += tp.hitLatency;
        } else if (holds(tid, line)) {
            cost += tp.upgradeLatency;
        } else if (remote_owner) {
            cost += tp.transferLatency;
        } else {
            cost += tp.missLatency +
                (line.sharers != 0 ? tp.upgradeLatency : 0);
        }
        return cost;
    }

    /** LRU touch, then evict the least recently used other line. */
    void
    touch(std::uint32_t tid, std::uint32_t line_idx, std::uint64_t now)
    {
        auto &stamps = lru[tid];
        stamps[line_idx] = now;
        const std::uint32_t capacity = cfg.timing.cacheLines;
        const auto held = static_cast<std::uint32_t>(std::count_if(
            stamps.begin(), stamps.end(),
            [](const auto &stamp) { return stamp.has_value(); }));
        if (capacity == 0 || held <= capacity)
            return;
        std::optional<std::uint32_t> victim;
        for (std::uint32_t l = 0; l < stamps.size(); ++l) {
            if (l == line_idx || !stamps[l])
                continue;
            if (!victim || *stamps[l] < *stamps[*victim])
                victim = l;
        }
        stamps[*victim].reset();
        ++result.evictions;
        Line &line = lines[*victim];
        if (line.owner == static_cast<std::int32_t>(tid)) {
            line.owner = -1;
            line.lastEvictTime = now;
            line.everEvicted = true;
        }
        line.sharers &= ~(std::uint32_t(1) << tid);
    }

    void
    finish(std::uint32_t tid, std::uint32_t idx, std::uint64_t now)
    {
        done[tid][idx] = true;
        doneAt[tid][idx] = now;
        Execution &out = result.execution;
        out.duration = std::max(out.duration, now);
        while (head[tid] < done[tid].size() && done[tid][head[tid]])
            ++head[tid];
    }

    /**
     * The stale value a squash-free load snooped at @p when: the value
     * of @p loc's store with the latest perform time at or before
     * @p when. Perform times are not monotone (a short-latency op can
     * complete before the previous perform's time), so the newest
     * perform is not necessarily the answer; among stores stamped
     * alike, the later perform wins.
     */
    std::uint32_t
    valueAsOf(std::uint32_t loc, std::uint64_t when) const
    {
        std::optional<std::pair<std::uint64_t, std::uint32_t>> best;
        // Newest perform first, replaced only by a strictly later
        // time, so a tie keeps the later perform.
        for (auto it = history[loc].rbegin(); it != history[loc].rend();
             ++it) {
            if (it->first <= when && (!best || it->first > best->first))
                best = *it;
        }
        return best ? best->second : kInitValue;
    }

    /** Value a po-earlier, still-incomplete same-location store of
     * the thread forwards to the load at @p idx, if any. */
    std::optional<std::uint32_t>
    forwarded(std::uint32_t tid, std::uint32_t idx) const
    {
        const MemOp &load = opAt(tid, idx);
        for (std::uint32_t j = idx; j-- > 0;) {
            const MemOp &op = opAt(tid, j);
            if (op.kind == OpKind::Store && op.loc == load.loc) {
                if (done[tid][j])
                    return std::nullopt;
                return op.value;
            }
        }
        return std::nullopt;
    }

    /** Does the thread have an incomplete store to @p line_idx
     * program-order-before @p idx (an S->M upgrade in flight)? */
    bool
    upgradePending(std::uint32_t tid, std::uint32_t idx,
                   std::uint32_t line_idx) const
    {
        for (std::uint32_t j = head[tid]; j < idx; ++j) {
            const MemOp &op = opAt(tid, j);
            if (!done[tid][j] && op.kind == OpKind::Store &&
                program->lineOf(op.loc) == line_idx)
                return true;
        }
        return false;
    }

    /** Perform one op; false when the PUTX/GETX race blocked it. */
    bool
    perform(std::uint32_t tid, std::uint32_t idx, std::uint64_t issue,
            std::uint64_t now)
    {
        const MemOp &op = opAt(tid, idx);
        const TimingParams &tp = cfg.timing;
        if (op.kind == OpKind::Fence) {
            finish(tid, idx, now);
            slot[tid] = std::max(slot[tid], issue) + tp.issueCost;
            return true;
        }
        const std::uint32_t line_idx = program->lineOf(op.loc);
        Line &line = lines[line_idx];
        if (cfg.bug == BugKind::PutxGetxRace && !holds(tid, line) &&
            line.everEvicted && line.lastEvictTime > issue &&
            bugGate()) {
            blocked[tid] = true;
            return false;
        }
        Execution &out = result.execution;
        if (op.kind == OpKind::Store) {
            for (std::uint32_t other = 0; other < program->numThreads();
                 ++other) {
                if (other != tid && holds(other, line))
                    lru[other][line_idx].reset(); // invalidated
            }
            line.owner = static_cast<std::int32_t>(tid);
            line.sharers = std::uint32_t(1) << tid;
            line.lastStoreTime = now;
            line.lastStoreTid = static_cast<std::int32_t>(tid);
            touch(tid, line_idx, now);
            mem[op.loc] = op.value;
            if (cfg.exportCoherenceOrder)
                out.coherenceOrder[op.loc].push_back(OpId{tid, idx});
            if (cfg.bug != BugKind::None)
                history[op.loc].emplace_back(now, op.value);
        } else {
            std::uint32_t value;
            if (const auto fwd = forwarded(tid, idx)) {
                value = *fwd;
            } else {
                value = mem[op.loc];
                const bool remote_store = line.lastStoreTid >= 0 &&
                    line.lastStoreTid != static_cast<std::int32_t>(tid) &&
                    line.lastStoreTime > issue;
                const bool triggered = remote_store &&
                    (cfg.bug == BugKind::LsqNoSquash ||
                     (cfg.bug == BugKind::StaleLoadOnUpgrade &&
                      upgradePending(tid, idx, line_idx)));
                if (triggered && bugGate())
                    value = valueAsOf(op.loc, issue);
            }
            if (line.owner >= 0 &&
                line.owner != static_cast<std::int32_t>(tid)) {
                line.sharers |= std::uint32_t(1) << line.owner;
                line.owner = -1;
            }
            line.sharers |= std::uint32_t(1) << tid;
            touch(tid, line_idx, now);
            out.loadValues[program->loadOrdinal(OpId{tid, idx})] = value;
        }
        finish(tid, idx, now);
        slot[tid] = std::max(slot[tid], issue) + tp.issueCost;
        if (tp.preemptProbability > 0.0 &&
            rng->nextBool(tp.preemptProbability)) {
            slot[tid] += tp.preemptSlice;
            ++result.preemptions;
        }
        return true;
    }

    bool
    bugGate()
    {
        ++result.bugGates;
        return rng->nextBool(cfg.bugProbability);
    }

    ExecutorConfig cfg;
    const TestProgram *program = nullptr;
    Rng *rng = nullptr;
    ReferenceTimedOutcome result;

    std::vector<std::uint32_t> mem;
    std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>>
        history;
    std::vector<std::vector<bool>> done;
    std::vector<std::vector<std::uint64_t>> doneAt;
    std::vector<std::vector<std::optional<std::uint64_t>>> jitter;
    std::vector<std::uint32_t> head;
    std::vector<bool> blocked;
    std::vector<std::uint64_t> slot;
    std::vector<Line> lines;
    /** Per core, per line: last-touch time while resident. */
    std::vector<std::vector<std::optional<std::uint64_t>>> lru;
};

} // namespace mtc

#endif // MTC_TESTS_TIMED_REFERENCE_H
