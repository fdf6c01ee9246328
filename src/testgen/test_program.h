/**
 * @file
 * Multi-threaded test-program intermediate representation.
 *
 * A TestProgram is the static artifact produced by the test generator
 * and consumed by everything downstream: the executors run it, the
 * instrumentation pass analyzes it, and the constraint-graph builder
 * uses its operations as graph vertices. Every store is assigned a
 * unique non-zero value (Section 2 of the paper: "every store
 * operation is assigned a unique ID, which is the value actually
 * written into memory"), so a loaded value identifies the store it
 * reads from; value 0 denotes the initial memory contents.
 */

#ifndef MTC_TESTGEN_TEST_PROGRAM_H
#define MTC_TESTGEN_TEST_PROGRAM_H

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcm/op_kind.h"
#include "testgen/test_config.h"

namespace mtc
{

/** Identity of one static operation: (thread, index within thread). */
struct OpId
{
    std::uint32_t tid = 0;
    std::uint32_t idx = 0;

    auto operator<=>(const OpId &) const = default;
};

/** The memory value denoting "initial contents" (no store read). */
constexpr std::uint32_t kInitValue = 0;

/** One static memory operation. */
struct MemOp
{
    OpKind kind = OpKind::Load;

    /** Shared-location index in [0, cfg.numLocations); 0 for fences. */
    std::uint32_t loc = 0;

    /** Unique non-zero store ID for stores; unused for loads/fences. */
    std::uint32_t value = 0;
};

/** Encode the unique value written by store (tid, idx). */
std::uint32_t storeValue(OpId id);

/** Decode a store value back into its OpId (value must be non-zero). */
OpId storeIdFromValue(std::uint32_t value);

/**
 * A complete multi-threaded test program plus derived lookup indexes.
 * Construct via the generator / litmus factories, or build the thread
 * bodies manually and call rebuildIndex().
 */
class TestProgram
{
  public:
    TestProgram() = default;
    TestProgram(TestConfig cfg_arg,
                std::vector<std::vector<MemOp>> threads_arg);

    /** Recompute all derived indexes after editing threads. */
    void rebuildIndex();

    const TestConfig &config() const { return cfg; }
    const std::vector<std::vector<MemOp>> &threadBodies() const
    {
        return threads;
    }

    std::uint32_t numThreads() const
    {
        return static_cast<std::uint32_t>(threads.size());
    }

    std::uint32_t opsInThread(std::uint32_t tid) const
    {
        return static_cast<std::uint32_t>(threads.at(tid).size());
    }

    /** Total static operations across all threads. */
    std::uint32_t numOps() const { return totalOps; }

    const MemOp &op(OpId id) const { return threads.at(id.tid).at(id.idx); }

    /** Dense vertex index of an operation (graph vertex id). */
    std::uint32_t globalIndex(OpId id) const;

    /** Inverse of globalIndex(). */
    OpId opIdAt(std::uint32_t global_index) const;

    /** All loads, ordered by (tid, idx). */
    const std::vector<OpId> &loads() const { return loadList; }

    /** Ordinal of a load within loads(); throws if not a load. */
    std::uint32_t loadOrdinal(OpId id) const;

    /** Loads of one thread, in program order. */
    const std::vector<OpId> &loadsOfThread(std::uint32_t tid) const
    {
        return threadLoads.at(tid);
    }

    /** All stores targeting @p loc, ordered by (tid, idx). */
    const std::vector<OpId> &storesTo(std::uint32_t loc) const
    {
        return storesPerLoc.at(loc);
    }

    /** All stores in the program, ordered by (tid, idx). */
    const std::vector<OpId> &stores() const { return storeList; }

    /** Resolve a loaded value to the store that produced it. */
    std::optional<OpId> storeForValue(std::uint32_t value) const;

    /** Cache line (index) a location maps to under the config layout. */
    std::uint32_t lineOf(std::uint32_t loc) const
    {
        return loc / cfg.wordsPerLine;
    }

    /** Simulated byte address of a location. */
    std::uint64_t
    byteAddress(std::uint32_t loc) const
    {
        return static_cast<std::uint64_t>(lineOf(loc)) * cfg.lineBytes +
            static_cast<std::uint64_t>(loc % cfg.wordsPerLine) *
            cfg.bytesPerWord;
    }

    /** Number of distinct cache lines the shared data occupies. */
    std::uint32_t
    numLines() const
    {
        return (cfg.numLocations + cfg.wordsPerLine - 1) /
            cfg.wordsPerLine;
    }

    /** Human-readable listing (used by examples and failure reports). */
    std::string toString() const;

    /**
     * Content hash over the program's shape (thread count, each
     * thread's op count, numLocations, wordsPerLine) and every
     * operation (kind, location, value). Used to key caches of
     * per-program derived structures: pointer identity alone is unsafe
     * because short-lived programs can reuse an address. Never
     * persisted.
     */
    std::uint64_t fingerprint() const { return contentHash; }

  private:
    TestConfig cfg;
    std::vector<std::vector<MemOp>> threads;

    std::uint32_t totalOps = 0;
    std::vector<std::uint32_t> threadBase; ///< prefix sums for globalIndex
    std::vector<OpId> loadList;
    std::vector<OpId> storeList;
    std::vector<std::vector<OpId>> threadLoads;
    std::vector<std::vector<OpId>> storesPerLoc;
    std::unordered_map<std::uint32_t, OpId> valueToStore;
    std::unordered_map<std::uint64_t, std::uint32_t> loadOrdinalMap;
    std::uint64_t contentHash = 0;
};

} // namespace mtc

#endif // MTC_TESTGEN_TEST_PROGRAM_H
