/**
 * @file
 * Reference write-serialization inference for tests: rules (a)-(d)
 * applied by one walk over each whole thread.
 *
 * It shares nothing with WsOrder's segment tables: values resolve
 * through TestProgram::storeForValue and a linear scan of the
 * location's stores, every location is rebuilt from every thread's
 * constraint list, the closure runs over plain byte matrices, and each
 * call starts from scratch. WsOrder::infer, WsOrder::inferDelta and
 * the from-scratch dynamicEdges oracle all share one segment walk, so
 * a rule bug there would pass every equivalence test between them;
 * against this reference it cannot.
 */

#ifndef MTC_TESTS_WS_REFERENCE_H
#define MTC_TESTS_WS_REFERENCE_H

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/ws_inference.h"
#include "testgen/execution.h"
#include "testgen/test_program.h"

namespace mtc
{

class ReferenceWsOrder
{
  public:
    void
    infer(const TestProgram &program, const Execution &execution)
    {
        const std::uint32_t num_locs = program.config().numLocations;
        stores.assign(num_locs, {});
        for (std::uint32_t loc = 0; loc < num_locs; ++loc)
            stores[loc] = program.storesTo(loc);
        violation = false;
        std::vector<Cons> cons;
        for (std::uint32_t tid = 0; tid < program.numThreads(); ++tid)
            walkThread(program, execution, tid, cons);

        reach.assign(num_locs, {});
        for (std::uint32_t loc = 0; loc < num_locs; ++loc) {
            const std::size_t n = stores[loc].size() + 1;
            auto &m = reach[loc];
            m.assign(n * n, 0);
            for (std::size_t j = 1; j < n; ++j)
                m[j] = 1; // the initial store precedes every store
            for (std::size_t i = 0; i + 1 < stores[loc].size(); ++i) {
                if (stores[loc][i].tid == stores[loc][i + 1].tid)
                    m[(i + 1) * n + i + 2] = 1; // rule (a)
            }
            for (const Cons &c : cons) {
                if (c.loc == loc)
                    m[c.from * n + c.to] = 1;
            }
            for (std::size_t k = 0; k < n; ++k)
                for (std::size_t i = 0; i < n; ++i)
                    if (m[i * n + k])
                        for (std::size_t j = 0; j < n; ++j)
                            m[i * n + j] |= m[k * n + j];
            for (std::size_t i = 0; i < n; ++i)
                violation = violation || m[i * n + i] != 0;
        }
    }

    /** Order indices at @p loc: its stores plus the initial store. */
    std::uint32_t
    size(std::uint32_t loc) const
    {
        return static_cast<std::uint32_t>(stores[loc].size()) + 1;
    }

    bool
    ordered(std::uint32_t loc, std::uint32_t i, std::uint32_t j) const
    {
        return reach[loc][std::size_t(i) * size(loc) + j] != 0;
    }

    bool coherenceViolation() const { return violation; }

    /** Did any (i, j) bit of @p loc differ from @p other's? */
    bool
    rowsDiffer(const ReferenceWsOrder &other, std::uint32_t loc) const
    {
        return reach[loc] != other.reach[loc];
    }

  private:
    struct Cons
    {
        std::uint32_t loc;
        std::uint32_t from;
        std::uint32_t to;
    };

    std::uint32_t
    indexOf(std::uint32_t loc, std::optional<OpId> w) const
    {
        if (!w)
            return 0;
        for (std::size_t i = 0; i < stores[loc].size(); ++i)
            if (stores[loc][i] == *w)
                return static_cast<std::uint32_t>(i) + 1;
        throw ConfigError("store is not a writer of this location");
    }

    void
    walkThread(const TestProgram &program, const Execution &execution,
               std::uint32_t tid, std::vector<Cons> &cons)
    {
        const auto &body = program.threadBodies()[tid];
        const std::uint32_t num_locs = program.config().numLocations;
        std::vector<std::optional<OpId>> last_store(num_locs);
        std::vector<std::optional<std::uint32_t>> pending_read(num_locs);
        for (std::uint32_t idx = 0; idx < body.size(); ++idx) {
            const MemOp &mem_op = body[idx];
            if (mem_op.kind == OpKind::Fence)
                continue;
            const std::uint32_t loc = mem_op.loc;
            if (mem_op.kind == OpKind::Store) {
                if (pending_read[loc]) { // rule (c)
                    std::optional<OpId> w;
                    if (*pending_read[loc] != kInitValue)
                        w = program.storeForValue(*pending_read[loc]);
                    const std::uint32_t from = indexOf(loc, w);
                    const std::uint32_t to = indexOf(loc, OpId{tid, idx});
                    if (from == to)
                        violation = true;
                    else
                        cons.push_back({loc, from, to});
                    pending_read[loc].reset();
                }
                last_store[loc] = OpId{tid, idx};
                continue;
            }
            const std::uint32_t value =
                execution.loadValues.at(program.loadOrdinal({tid, idx}));
            std::optional<OpId> w;
            if (value != kInitValue) {
                w = program.storeForValue(value);
                if (!w) {
                    violation = true;
                    continue;
                }
            }
            if (last_store[loc] && w != last_store[loc]) { // rule (b)
                cons.push_back({loc, indexOf(loc, last_store[loc]),
                                indexOf(loc, w)});
            }
            if (!w && last_store[loc])
                violation = true;
            if (pending_read[loc] && *pending_read[loc] != value) {
                std::optional<OpId> w_old; // rule (d)
                if (*pending_read[loc] != kInitValue)
                    w_old = program.storeForValue(*pending_read[loc]);
                cons.push_back({loc, indexOf(loc, w_old), indexOf(loc, w)});
            }
            pending_read[loc] = value;
        }
    }

    std::vector<std::vector<OpId>> stores;
    std::vector<std::vector<std::uint8_t>> reach; ///< [loc] n x n
    bool violation = false;
};

/**
 * Expect every (location, i, j) reach bit and the violation flag of
 * @p ws to equal @p ref's, and locChanged(loc) wherever @p ref's rows
 * moved since @p prev (the previous step's reference; nullptr on the
 * first step, when every location counts as changed).
 */
inline void
expectMatchesReference(const WsOrder &ws, const ReferenceWsOrder &ref,
                       const ReferenceWsOrder *prev,
                       std::uint32_t num_locs)
{
    EXPECT_EQ(ws.coherenceViolation(), ref.coherenceViolation());
    for (std::uint32_t loc = 0; loc < num_locs; ++loc) {
        const std::uint32_t n = ref.size(loc);
        ASSERT_EQ(ws.storesAt(loc).size() + 1, n);
        for (std::uint32_t i = 0; i < n; ++i) {
            for (std::uint32_t j = 0; j < n; ++j) {
                // One assertion per mismatch, not per bit: a stream
                // compares millions of bits.
                if (ws.orderedByIndex(loc, i, j) != ref.ordered(loc, i, j)) {
                    ADD_FAILURE() << "reach bit differs at loc " << loc
                                  << " (" << i << ", " << j << ")";
                    return;
                }
            }
        }
        if (prev == nullptr || ref.rowsDiffer(*prev, loc)) {
            EXPECT_TRUE(ws.locChanged(loc)) << "loc " << loc;
        }
    }
}

} // namespace mtc

#endif // MTC_TESTS_WS_REFERENCE_H
