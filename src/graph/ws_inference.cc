#include "graph/ws_inference.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"

namespace mtc
{

void
WsOrder::bindProgram(const TestProgram &program)
{
    if (bound && boundFingerprint == program.fingerprint())
        return;

    const std::uint32_t num_locs = program.config().numLocations;
    const std::uint32_t num_threads = program.numThreads();
    const std::uint32_t num_loads =
        static_cast<std::uint32_t>(program.loads().size());
    locStores.resize(num_locs);
    locN.resize(num_locs);
    locWords.resize(num_locs);
    locOffset.resize(num_locs);
    std::size_t total = 0;
    for (std::uint32_t loc = 0; loc < num_locs; ++loc) {
        locStores[loc] = program.storesTo(loc);
        const std::uint32_t n =
            static_cast<std::uint32_t>(locStores[loc].size()) + 1;
        locN[loc] = n;
        locWords[loc] = (n + 63) / 64;
        locOffset[loc] = total;
        total += static_cast<std::size_t>(n) * locWords[loc];
    }
    reach.assign(total, 0);
    valueIndex.clear();
    valueIndex.reserve(program.stores().size());
    for (std::uint32_t loc = 0; loc < num_locs; ++loc) {
        const auto &stores = locStores[loc];
        for (std::uint32_t i = 0; i < stores.size(); ++i)
            valueIndex.push_back({program.op(stores[i]).value, loc, i + 1});
    }
    std::sort(valueIndex.begin(), valueIndex.end(),
              [](const ValueEntry &a, const ValueEntry &b) {
                  return a.value < b.value;
              });

    // Segments, count-then-fill: count each (thread, location) pair's
    // ops, then number the non-empty pairs in (location, thread) order
    // so a location's segments are contiguous. storesTo() is ordered
    // by (tid, idx) and so is the fill walk, so a per-location counter
    // yields each store's order index; loads() is ordered the same
    // way, so a running counter yields each load's ordinal.
    const auto pair = [num_threads](std::uint32_t loc, std::uint32_t tid) {
        return static_cast<std::size_t>(loc) * num_threads + tid;
    };
    std::vector<std::uint32_t> seg_of(
        static_cast<std::size_t>(num_threads) * num_locs, 0);
    threadLoadBegin.assign(num_threads + 1, 0);
    const auto &bodies = program.threadBodies();
    for (std::uint32_t tid = 0; tid < num_threads; ++tid) {
        threadLoadBegin[tid + 1] = threadLoadBegin[tid];
        for (const MemOp &mem_op : bodies[tid]) {
            if (mem_op.kind == OpKind::Fence)
                continue;
            ++seg_of[pair(mem_op.loc, tid)]; // op count, for now
            if (mem_op.kind == OpKind::Load)
                ++threadLoadBegin[tid + 1];
        }
    }
    segLoc.clear();
    segBegin.assign(1, 0);
    locSegBegin.assign(num_locs + 1, 0);
    std::uint32_t max_ops = 0;
    for (std::uint32_t loc = 0; loc < num_locs; ++loc) {
        for (std::uint32_t tid = 0; tid < num_threads; ++tid) {
            const std::uint32_t ops = seg_of[pair(loc, tid)];
            if (ops == 0)
                continue;
            seg_of[pair(loc, tid)] = static_cast<std::uint32_t>(segLoc.size());
            segLoc.push_back(loc);
            segBegin.push_back(segBegin.back() + ops);
            max_ops = std::max(max_ops, ops);
        }
        locSegBegin[loc + 1] = static_cast<std::uint32_t>(segLoc.size());
    }
    const auto num_segs = static_cast<std::uint32_t>(segLoc.size());
    segOps.assign(segBegin[num_segs], 0);
    loadSeg.assign(num_loads, 0);
    std::vector<std::uint32_t> cursor(segBegin.begin(),
                                      segBegin.end() - 1);
    std::vector<std::uint32_t> stores_seen(num_locs, 0);
    std::uint32_t ordinal = 0;
    for (std::uint32_t tid = 0; tid < num_threads; ++tid) {
        for (const MemOp &mem_op : bodies[tid]) {
            if (mem_op.kind == OpKind::Fence)
                continue;
            const std::uint32_t seg = seg_of[pair(mem_op.loc, tid)];
            if (mem_op.kind == OpKind::Store) {
                segOps[cursor[seg]++] =
                    kStoreOp | ++stores_seen[mem_op.loc];
            } else {
                loadSeg[ordinal] = seg;
                segOps[cursor[seg]++] = ordinal++;
            }
        }
    }

    // Rule (a): program order among same-thread stores to one
    // location. Adjacent same-tid entries of storesTo() are
    // program-ordered; chaining adjacent pairs is sufficient. A
    // property of the program alone, cached per bind.
    ruleABegin.assign(num_locs + 1, 0);
    ruleA.clear();
    for (std::uint32_t loc = 0; loc < num_locs; ++loc) {
        const auto &stores = locStores[loc];
        for (std::uint32_t i = 0; i + 1 < stores.size(); ++i) {
            if (stores[i].tid == stores[i + 1].tid)
                ruleA.push_back({i + 1, i + 2});
        }
        ruleABegin[loc + 1] = static_cast<std::uint32_t>(ruleA.size());
    }

    loadValue.assign(num_loads, 0);
    loadIndex.assign(num_loads, 0);
    cons.assign(2 * static_cast<std::size_t>(segBegin[num_segs]), {});
    consCount.assign(num_segs, 0);
    segViol.assign(num_segs, 0);
    locViol.assign(num_locs, 0);
    locDirty.assign(num_locs, 1);
    violSegs = 0;
    violLocs = 0;
    segQueued.assign(num_segs, 0);
    locQueued.assign(num_locs, 0);
    segQueue.clear();
    segQueue.reserve(num_segs);
    locQueue.clear();
    locQueue.reserve(num_locs);
    walkScratch.assign(2 * static_cast<std::size_t>(max_ops), {});
    haveState = false;

    bound = true;
    boundFingerprint = program.fingerprint();
}

void
WsOrder::resolveLoad(std::uint32_t ordinal, std::uint32_t value)
{
    loadValue[ordinal] = value;
    if (value == kInitValue) {
        loadIndex[ordinal] = 0;
        return;
    }
    const auto it = std::lower_bound(
        valueIndex.begin(), valueIndex.end(), value,
        [](const ValueEntry &e, std::uint32_t v) { return e.value < v; });
    if (it == valueIndex.end() || it->value != value) {
        loadIndex[ordinal] = kNoWriter;
        return;
    }
    if (it->loc != segLoc[loadSeg[ordinal]])
        throw ConfigError("store is not a writer of this location");
    loadIndex[ordinal] = it->index;
}

bool
WsOrder::walkSegment(std::uint32_t seg)
{
    // Walk the segment once, tracking the last own store and the last
    // load-observed index, to apply rules (b), (c), (d). The rules
    // relate only ops of one thread at one location, so the result
    // depends on nothing outside the segment.
    constexpr std::uint32_t kNone = kNoWriter;
    Constraint *out = walkScratch.data();
    std::uint32_t count = 0;
    std::uint8_t contradiction = 0;
    std::uint32_t last_store = kNone;
    std::uint32_t pending_read = kNone; // read since the last own store

    for (std::uint32_t k = segBegin[seg]; k < segBegin[seg + 1]; ++k) {
        const std::uint32_t op = segOps[k];
        if (op & kStoreOp) {
            const std::uint32_t to = op & ~kStoreOp;
            // Rule (c): the store follows whatever the last load of
            // this location read.
            if (pending_read != kNone) {
                if (pending_read == to)
                    contradiction = 1; // a load read its own future store
                else
                    out[count++] = {pending_read, to};
                pending_read = kNone;
            }
            last_store = to;
            continue;
        }

        const std::uint32_t w = loadIndex[op];
        if (w == kNoWriter) {
            // Value produced by no store in the test: platform
            // corruption; treat as a violation.
            contradiction = 1;
            continue;
        }
        // Rule (b): last same-thread store must be coherence-<= W.
        if (last_store != kNone && w != last_store)
            out[count++] = {last_store, w};
        // Reading the initial value after this thread stored: the (b)
        // constraint above targets index 0 and closes a cycle with the
        // base init-first edges.
        if (w == 0 && last_store != kNone)
            contradiction = 1;
        // Rule (d): CoRR against the previous load of this location, if
        // no own store intervened (an intervening store subsumes the
        // constraint through rules (b)+(c)).
        if (pending_read != kNone && pending_read != w)
            out[count++] = {pending_read, w};
        pending_read = w;
    }

    ++walkedSegments;
    if (segViol[seg] != contradiction) {
        segViol[seg] = contradiction;
        if (contradiction)
            ++violSegs;
        else
            --violSegs;
    }
    Constraint *stored = cons.data() + 2 * std::size_t(segBegin[seg]);
    if (count == consCount[seg] && std::equal(out, out + count, stored))
        return false;
    std::copy(out, out + count, stored);
    consCount[seg] = count;
    return true;
}

void
WsOrder::seedLoc(std::uint32_t loc)
{
    const std::uint32_t n = locN[loc];
    std::uint64_t *base = reach.data() + locOffset[loc];
    std::fill(base, base + static_cast<std::size_t>(n) * locWords[loc], 0);
    // The virtual initial store is index 0 and precedes everything.
    for (std::uint32_t i = 1; i < n; ++i)
        base[i >> 6] |= std::uint64_t(1) << (i & 63);
}

void
WsOrder::closeLoc(std::uint32_t loc)
{
    const std::uint32_t n = locN[loc];
    const std::uint32_t words = locWords[loc];
    std::uint64_t *base = reach.data() + locOffset[loc];

    // Floyd-Warshall-style bitset closure: n is small (stores per
    // location), so O(n^2) word operations are cheap. The closed bits
    // depend only on the constraint *set*, never on insertion order,
    // which is what makes incremental rebuilds bit-identical.
    for (std::uint32_t k = 0; k < n; ++k) {
        const std::uint64_t *row_k = base + k * words;
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint64_t *row_i = base + i * words;
            if ((row_i[k >> 6] >> (k & 63)) & 1) {
                for (std::uint32_t w = 0; w < words; ++w)
                    row_i[w] |= row_k[w];
            }
        }
    }
    std::uint8_t cyclic = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t *row_i = base + i * words;
        if ((row_i[i >> 6] >> (i & 63)) & 1)
            cyclic = 1;
    }
    if (locViol[loc] != cyclic) {
        locViol[loc] = cyclic;
        if (cyclic)
            ++violLocs;
        else
            --violLocs;
    }
}

void
WsOrder::rebuildLoc(std::uint32_t loc)
{
    seedLoc(loc);
    std::uint64_t *base = reach.data() + locOffset[loc];
    const std::uint32_t words = locWords[loc];
    const auto set_bit = [&](const Constraint &c) {
        std::uint64_t *row = base + static_cast<std::size_t>(c.from) * words;
        row[c.to >> 6] |= std::uint64_t(1) << (c.to & 63);
    };
    for (std::uint32_t k = ruleABegin[loc]; k < ruleABegin[loc + 1]; ++k)
        set_bit(ruleA[k]);
    for (std::uint32_t seg = locSegBegin[loc]; seg < locSegBegin[loc + 1];
         ++seg) {
        const Constraint *c = cons.data() + 2 * std::size_t(segBegin[seg]);
        for (std::uint32_t i = 0; i < consCount[seg]; ++i)
            set_bit(c[i]);
    }
    closeLoc(loc);
    ++closedLocations;
}

void
WsOrder::infer(const TestProgram &program, const Execution &execution)
{
    bindProgram(program);
    haveState = false; // a throwing resolve leaves no usable state
    const auto num_loads = static_cast<std::uint32_t>(loadValue.size());
    if (execution.loadValues.size() < num_loads)
        throw ConfigError("execution has fewer load values than loads");

    for (std::uint32_t ordinal = 0; ordinal < num_loads; ++ordinal)
        resolveLoad(ordinal, execution.loadValues[ordinal]);
    for (std::uint32_t seg = 0; seg < segLoc.size(); ++seg)
        walkSegment(seg);
    for (std::uint32_t loc = 0; loc < locN.size(); ++loc) {
        rebuildLoc(loc);
        locDirty[loc] = 1;
    }
    std::fill(segQueued.begin(), segQueued.end(), 0);
    std::fill(locQueued.begin(), locQueued.end(), 0);
    violation = violSegs != 0 || violLocs != 0;
    haveState = true;
}

void
WsOrder::inferDelta(const TestProgram &program,
                    const Execution &execution,
                    const std::uint32_t *changed_tids, std::size_t n)
{
    if (!haveState || !bound ||
        boundFingerprint != program.fingerprint()) {
        infer(program, execution);
        return;
    }
    if (execution.loadValues.size() < loadValue.size())
        throw ConfigError("execution has fewer load values than loads");
    haveState = false;

    std::fill(locDirty.begin(), locDirty.end(), 0);

    // Segments holding a load whose value changed.
    segQueue.clear();
    for (std::size_t k = 0; k < n; ++k) {
        const std::uint32_t tid = changed_tids[k];
        for (std::uint32_t ordinal = threadLoadBegin[tid];
             ordinal < threadLoadBegin[tid + 1]; ++ordinal) {
            const std::uint32_t value = execution.loadValues[ordinal];
            if (value == loadValue[ordinal])
                continue;
            resolveLoad(ordinal, value);
            const std::uint32_t seg = loadSeg[ordinal];
            if (!segQueued[seg]) {
                segQueued[seg] = 1;
                segQueue.push_back(seg);
            }
        }
    }

    // Locations one of whose segments' constraint lists changed.
    locQueue.clear();
    for (const std::uint32_t seg : segQueue) {
        segQueued[seg] = 0;
        if (!walkSegment(seg))
            continue; // same constraints: the location cannot move
        const std::uint32_t loc = segLoc[seg];
        if (!locQueued[loc]) {
            locQueued[loc] = 1;
            locQueue.push_back(loc);
        }
    }

    for (const std::uint32_t loc : locQueue) {
        locQueued[loc] = 0;
        // Copy (not swap) into the scratch: swapping would rotate one
        // buffer across locations of different sizes and realloc
        // forever, defeating the steady-state zero-allocation guarantee.
        const std::size_t row_words =
            static_cast<std::size_t>(locN[loc]) * locWords[loc];
        const std::uint64_t *base = reach.data() + locOffset[loc];
        prevRows.assign(base, base + row_words);
        rebuildLoc(loc);
        locDirty[loc] =
            std::memcmp(prevRows.data(), base,
                        row_words * sizeof(std::uint64_t)) != 0
            ? 1
            : 0;
    }
    violation = violSegs != 0 || violLocs != 0;
    haveState = true;
}

WsOrder
WsOrder::fromGroundTruth(const TestProgram &program,
                         const Execution &execution)
{
    WsOrder order;
    order.bindProgram(program);
    if (execution.coherenceOrder.size() !=
        program.config().numLocations) {
        throw ConfigError("execution has no coherence-order ground truth");
    }
    for (std::uint32_t loc = 0; loc < order.locStores.size(); ++loc) {
        order.seedLoc(loc);
        const auto &total = execution.coherenceOrder[loc];
        for (std::size_t i = 0; i + 1 < total.size(); ++i) {
            const std::uint32_t from = order.indexOf(loc, total[i]);
            const std::uint32_t to = order.indexOf(loc, total[i + 1]);
            std::uint64_t *row = order.reach.data() +
                order.locOffset[loc] +
                static_cast<std::size_t>(from) * order.locWords[loc];
            row[to >> 6] |= std::uint64_t(1) << (to & 63);
        }
        order.closeLoc(loc);
    }
    order.violation = order.violLocs != 0;
    return order;
}

std::uint32_t
WsOrder::indexOf(std::uint32_t loc, std::optional<OpId> w) const
{
    if (!w)
        return 0;
    const auto &stores = locStores.at(loc);
    for (std::size_t i = 0; i < stores.size(); ++i)
        if (stores[i] == *w)
            return static_cast<std::uint32_t>(i) + 1;
    throw ConfigError("store is not a writer of this location");
}

bool
WsOrder::before(std::uint32_t loc, std::optional<OpId> w1,
                std::optional<OpId> w2) const
{
    return orderedByIndex(loc, indexOf(loc, w1), indexOf(loc, w2));
}

std::vector<OpId>
WsOrder::successorsOf(std::uint32_t loc, std::optional<OpId> w) const
{
    const auto &stores = locStores.at(loc);
    const std::uint32_t from = indexOf(loc, w);
    std::vector<OpId> result;
    for (std::size_t i = 0; i < stores.size(); ++i) {
        if (orderedByIndex(loc, from,
                           static_cast<std::uint32_t>(i) + 1)) {
            result.push_back(stores[i]);
        }
    }
    return result;
}

std::vector<std::pair<OpId, OpId>>
WsOrder::orderedPairs(std::uint32_t loc) const
{
    const auto &stores = locStores.at(loc);
    std::vector<std::pair<OpId, OpId>> pairs;
    for (std::size_t i = 0; i < stores.size(); ++i) {
        for (std::size_t j = 0; j < stores.size(); ++j) {
            if (i != j &&
                orderedByIndex(loc, static_cast<std::uint32_t>(i) + 1,
                               static_cast<std::uint32_t>(j) + 1)) {
                pairs.emplace_back(stores[i], stores[j]);
            }
        }
    }
    return pairs;
}

} // namespace mtc
