#include "testgen/test_program.h"

#include <sstream>

#include "support/error.h"

namespace mtc
{

namespace
{

inline std::uint64_t
packOpId(OpId id)
{
    return (static_cast<std::uint64_t>(id.tid) << 32) | id.idx;
}

} // anonymous namespace

std::uint32_t
storeValue(OpId id)
{
    // (tid+1) in the high bits keeps values non-zero and unique for any
    // test with < 2^12 threads and < 2^20 ops per thread.
    if (id.tid >= (1u << 12) || id.idx >= (1u << 20))
        throw ConfigError("test too large for store-value encoding");
    return ((id.tid + 1) << 20) | (id.idx + 1);
}

OpId
storeIdFromValue(std::uint32_t value)
{
    if (value == kInitValue)
        throw ConfigError("initial value has no producing store");
    OpId id;
    id.tid = (value >> 20) - 1;
    id.idx = (value & 0xfffffu) - 1;
    return id;
}

TestProgram::TestProgram(TestConfig cfg_arg,
                         std::vector<std::vector<MemOp>> threads_arg)
    : cfg(std::move(cfg_arg)), threads(std::move(threads_arg))
{
    rebuildIndex();
}

void
TestProgram::rebuildIndex()
{
    totalOps = 0;
    threadBase.assign(threads.size() + 1, 0);
    loadList.clear();
    storeList.clear();
    threadLoads.assign(threads.size(), {});
    storesPerLoc.assign(cfg.numLocations, {});
    valueToStore.clear();
    loadOrdinalMap.clear();

    contentHash = 1469598103934665603ull;
    auto mix = [this](std::uint64_t x) {
        contentHash ^= x;
        contentHash *= 1099511628211ull;
    };
    // The shape goes in too: a load carries no value, so the same op
    // sequence split differently across threads, or laid out over a
    // different location count or line packing (lineOf), must not
    // share a fingerprint with it.
    mix(threads.size());
    mix(cfg.numLocations);
    mix(cfg.wordsPerLine);

    for (std::uint32_t tid = 0; tid < threads.size(); ++tid) {
        threadBase[tid] = totalOps;
        totalOps += static_cast<std::uint32_t>(threads[tid].size());
        mix(threads[tid].size());
        for (std::uint32_t idx = 0; idx < threads[tid].size(); ++idx) {
            const MemOp &mem_op = threads[tid][idx];
            const OpId id{tid, idx};
            mix((static_cast<std::uint64_t>(mem_op.kind) << 56) ^
                (static_cast<std::uint64_t>(mem_op.loc) << 32) ^
                mem_op.value);
            switch (mem_op.kind) {
              case OpKind::Load:
                if (mem_op.loc >= cfg.numLocations)
                    throw ConfigError("load location out of range");
                loadOrdinalMap[packOpId(id)] =
                    static_cast<std::uint32_t>(loadList.size());
                loadList.push_back(id);
                threadLoads[tid].push_back(id);
                break;
              case OpKind::Store:
                if (mem_op.loc >= cfg.numLocations)
                    throw ConfigError("store location out of range");
                if (mem_op.value == kInitValue)
                    throw ConfigError("store value must be non-zero");
                if (!valueToStore.emplace(mem_op.value, id).second)
                    throw ConfigError("duplicate store value in test");
                storeList.push_back(id);
                storesPerLoc[mem_op.loc].push_back(id);
                break;
              case OpKind::Fence:
                break;
            }
        }
    }
    threadBase[threads.size()] = totalOps;
}

std::uint32_t
TestProgram::globalIndex(OpId id) const
{
    if (id.tid >= threads.size() || id.idx >= threads[id.tid].size())
        throw ConfigError("OpId out of range");
    return threadBase[id.tid] + id.idx;
}

OpId
TestProgram::opIdAt(std::uint32_t global_index) const
{
    if (global_index >= totalOps)
        throw ConfigError("global op index out of range");
    // threadBase is small (numThreads entries); linear scan suffices.
    std::uint32_t tid = 0;
    while (threadBase[tid + 1] <= global_index)
        ++tid;
    return OpId{tid, global_index - threadBase[tid]};
}

std::uint32_t
TestProgram::loadOrdinal(OpId id) const
{
    auto it = loadOrdinalMap.find(packOpId(id));
    if (it == loadOrdinalMap.end())
        throw ConfigError("loadOrdinal of a non-load operation");
    return it->second;
}

std::optional<OpId>
TestProgram::storeForValue(std::uint32_t value) const
{
    auto it = valueToStore.find(value);
    if (it == valueToStore.end())
        return std::nullopt;
    return it->second;
}

std::string
TestProgram::toString() const
{
    std::ostringstream os;
    os << "test " << cfg.name() << "\n";
    for (std::uint32_t tid = 0; tid < threads.size(); ++tid) {
        os << "  thread " << tid << ":\n";
        for (std::uint32_t idx = 0; idx < threads[tid].size(); ++idx) {
            const MemOp &mem_op = threads[tid][idx];
            os << "    [" << idx << "] " << opKindName(mem_op.kind);
            if (mem_op.kind != OpKind::Fence) {
                os << " loc" << mem_op.loc << " (0x" << std::hex
                   << byteAddress(mem_op.loc) << std::dec << ")";
            }
            if (mem_op.kind == OpKind::Store)
                os << " := " << mem_op.value;
            os << "\n";
        }
    }
    return os.str();
}

} // namespace mtc
