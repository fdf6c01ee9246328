#include "graph/graph_builder.h"

#include <algorithm>
#include <bit>

#include "graph/po_edges.h"
#include "support/error.h"

namespace mtc
{

ConstraintGraph
buildStaticGraph(const TestProgram &program, MemoryModel model)
{
    ConstraintGraph graph(program.numOps());
    graph.addEdges(programOrderEdges(program, model));
    return graph;
}

DynamicEdgeSet
dynamicEdges(const TestProgram &program, const Execution &execution)
{
    // One inference workspace per worker thread: decoding a test's
    // unique signatures re-infers thousands of times over one program,
    // and the reused WsOrder keeps that loop off the allocator.
    thread_local WsOrder scratch;
    scratch.infer(program, execution);
    DynamicEdgeSet result;
    dynamicEdgesInto(program, execution, scratch, result);
    return result;
}

DynamicEdgeSet
dynamicEdges(const TestProgram &program, const Execution &execution,
             const WsOrder &ws_order)
{
    DynamicEdgeSet result;
    dynamicEdgesInto(program, execution, ws_order, result);
    return result;
}

void
dynamicEdgesInto(const TestProgram &program, const Execution &execution,
                 const WsOrder &ws_order, DynamicEdgeSet &result)
{
    result.edges.clear();
    result.coherenceViolation = ws_order.coherenceViolation();

    // rf and fr edges, one pass over the loads.
    const auto &loads = program.loads();
    for (std::uint32_t ordinal = 0; ordinal < loads.size(); ++ordinal) {
        const OpId load_id = loads[ordinal];
        const std::uint32_t load_vertex = program.globalIndex(load_id);
        const std::uint32_t loc = program.op(load_id).loc;
        const std::uint32_t value = execution.loadValues.at(ordinal);

        std::optional<OpId> writer;
        if (value != kInitValue) {
            writer = program.storeForValue(value);
            if (!writer) {
                result.coherenceViolation = true;
                continue;
            }
            // Only *external* reads-from edges are global ordering.
            // An intra-thread rf may be satisfied by store-buffer
            // forwarding before the store is globally visible, so it
            // must not order the load after the store (the same
            // reasoning as the paper's footnote 4 for intra-thread
            // store->load program-order edges). The load's fr edges
            // below remain sound for forwarded reads: the forwarding
            // store commits before every ws-successor.
            if (writer->tid != load_id.tid) {
                result.edges.push_back(
                    Edge{program.globalIndex(*writer), load_vertex,
                         EdgeKind::ReadsFrom});
            }
        }

        // fr: the load precedes every store coherence-after its writer.
        const auto &stores = ws_order.storesAt(loc);
        const std::uint32_t from = ws_order.indexOf(loc, writer);
        for (std::size_t i = 0; i < stores.size(); ++i) {
            if (!ws_order.orderedByIndex(
                    loc, from, static_cast<std::uint32_t>(i) + 1)) {
                continue;
            }
            if (writer && stores[i] == *writer)
                continue;
            result.edges.push_back(Edge{load_vertex,
                                        program.globalIndex(stores[i]),
                                        EdgeKind::FromRead});
        }
    }

    // ws edges from the (partial) coherence order.
    for (std::uint32_t loc = 0; loc < program.config().numLocations;
         ++loc) {
        const auto &stores = ws_order.storesAt(loc);
        for (std::size_t i = 0; i < stores.size(); ++i) {
            for (std::size_t j = 0; j < stores.size(); ++j) {
                if (i == j ||
                    !ws_order.orderedByIndex(
                        loc, static_cast<std::uint32_t>(i) + 1,
                        static_cast<std::uint32_t>(j) + 1)) {
                    continue;
                }
                result.edges.push_back(
                    Edge{program.globalIndex(stores[i]),
                         program.globalIndex(stores[j]),
                         EdgeKind::WriteSerialization});
            }
        }
    }

    // Sorted + de-duplicated so edge sets can be merged/diffed.
    std::sort(result.edges.begin(), result.edges.end());
    result.edges.erase(
        std::unique(result.edges.begin(), result.edges.end(),
                    [](const Edge &a, const Edge &b) {
                        return a.from == b.from && a.to == b.to;
                    }),
        result.edges.end());
}

ConstraintGraph
buildFullGraph(const TestProgram &program, const Execution &execution,
               MemoryModel model)
{
    ConstraintGraph graph = buildStaticGraph(program, model);
    graph.addEdges(dynamicEdges(program, execution).edges);
    return graph;
}

namespace
{

std::uint64_t
edgeKey(const Edge &e)
{
    return (static_cast<std::uint64_t>(e.from) << 32) | e.to;
}

} // namespace

void
applyEdgeDiff(std::vector<Edge> &edges, const EdgeDiff &diff,
              std::vector<Edge> &scratch)
{
    scratch.clear();
    std::size_t i = 0, r = 0, a = 0;
    while (i < edges.size() || a < diff.added.size()) {
        if (i < edges.size() && r < diff.removed.size() &&
            edgeKey(edges[i]) == edgeKey(diff.removed[r])) {
            ++i;
            ++r;
            continue;
        }
        if (a == diff.added.size() ||
            (i < edges.size() &&
             edgeKey(edges[i]) < edgeKey(diff.added[a]))) {
            scratch.push_back(edges[i++]);
        } else {
            scratch.push_back(diff.added[a++]);
        }
    }
    edges.swap(scratch);
}

EdgeDeriver::EdgeDeriver(const TestProgram &program)
{
    const auto &loads = program.loads();
    const auto num_loads = static_cast<std::uint32_t>(loads.size());
    const std::uint32_t num_locs = program.config().numLocations;

    loadVertex.resize(num_loads);
    loadLoc.resize(num_loads);
    loadTid.resize(num_loads);
    threadLoadBegin.assign(program.numThreads() + 1, 0);
    locLoadBegin.assign(num_locs + 1, 0);
    for (std::uint32_t ordinal = 0; ordinal < num_loads; ++ordinal) {
        const OpId id = loads[ordinal];
        loadVertex[ordinal] = program.globalIndex(id);
        loadLoc[ordinal] = program.op(id).loc;
        loadTid[ordinal] = id.tid;
        ++threadLoadBegin[id.tid + 1];
        ++locLoadBegin[loadLoc[ordinal] + 1];
    }
    for (std::uint32_t tid = 0; tid < program.numThreads(); ++tid)
        threadLoadBegin[tid + 1] += threadLoadBegin[tid];
    for (std::uint32_t loc = 0; loc < num_locs; ++loc)
        locLoadBegin[loc + 1] += locLoadBegin[loc];
    locLoads.resize(num_loads);
    std::vector<std::uint32_t> cursor(locLoadBegin.begin(),
                                      locLoadBegin.end() - 1);
    for (std::uint32_t ordinal = 0; ordinal < num_loads; ++ordinal)
        locLoads[cursor[loadLoc[ordinal]]++] = ordinal;

    locStoreBegin.assign(num_locs + 1, 0);
    locWords.resize(num_locs);
    locRowBegin.resize(num_locs);
    std::size_t total = 0;
    for (std::uint32_t loc = 0; loc < num_locs; ++loc) {
        const auto &stores = program.storesTo(loc);
        for (const OpId store : stores) {
            storeVertex.push_back(program.globalIndex(store));
            storeTid.push_back(store.tid);
        }
        locStoreBegin[loc + 1] =
            static_cast<std::uint32_t>(storeVertex.size());
        const auto n = static_cast<std::uint32_t>(stores.size()) + 1;
        locWords[loc] = (n + 63) / 64;
        locRowBegin[loc] = total;
        total += static_cast<std::size_t>(n) * locWords[loc];
    }
    rows.assign(total, 0);

    loadWriter.assign(num_loads, WsOrder::kNoWriter);
    loadQueued.assign(num_loads, 0);
    loadQueue.reserve(num_loads);
    fromStart.assign(program.numOps() + 1, 0);
}

namespace
{

/**
 * Append an edge of @p kind from @p from to each store whose reach bit
 * leaves (@p removed) or enters (@p added) between @p old_row and
 * @p new_row. Targets are real stores (index >= 1) other than the
 * row's own index (@p old_self, @p new_self); a null row is an empty
 * unit. Bits are read by count-trailing-zeros, so each list gains its
 * edges in ascending store, hence vertex, order.
 */
void
diffRow(const std::uint64_t *old_row, std::uint32_t old_self,
        const std::uint64_t *new_row, std::uint32_t new_self,
        std::uint32_t words, std::uint32_t from,
        const std::uint32_t *store_vertex, EdgeKind kind,
        std::vector<Edge> &removed, std::vector<Edge> &added)
{
    const auto targets = [](const std::uint64_t *row, std::uint32_t w,
                            std::uint32_t self) -> std::uint64_t {
        if (row == nullptr)
            return 0;
        std::uint64_t bits = row[w];
        if (w == 0)
            bits &= ~std::uint64_t(1);
        if ((self >> 6) == w)
            bits &= ~(std::uint64_t(1) << (self & 63));
        return bits;
    };
    const auto emit = [&](std::uint64_t bits, std::uint32_t w,
                          std::vector<Edge> &out) {
        for (; bits != 0; bits &= bits - 1) {
            const auto j = w * 64 +
                static_cast<std::uint32_t>(std::countr_zero(bits));
            out.push_back(Edge{from, store_vertex[j - 1], kind});
        }
    };
    for (std::uint32_t w = 0; w < words; ++w) {
        const std::uint64_t before = targets(old_row, w, old_self);
        const std::uint64_t after = targets(new_row, w, new_self);
        emit(before & ~after, w, removed);
        emit(after & ~before, w, added);
    }
}

} // namespace

void
EdgeDeriver::diffLoad(std::uint32_t ordinal, std::uint32_t w_old,
                      const std::uint64_t *old_rows, std::uint32_t w_new,
                      const std::uint64_t *new_rows,
                      std::vector<Edge> &removed,
                      std::vector<Edge> &added) const
{
    // The unit mirrors the per-load body of dynamicEdgesInto(): an
    // external rf edge from a real writer, and fr edges to every store
    // coherence-after the writer except the writer itself. A load of a
    // value no store wrote has no unit (the coherence violation it
    // implies is already ws.coherenceViolation()).
    const std::uint32_t loc = loadLoc[ordinal];
    const std::uint32_t vertex = loadVertex[ordinal];
    const std::uint32_t stores = locStoreBegin[loc];
    const auto rf_from = [&](std::uint32_t w, std::uint32_t &from) {
        if (w == WsOrder::kNoWriter || w == 0 ||
            storeTid[stores + w - 1] == loadTid[ordinal]) {
            return false;
        }
        from = storeVertex[stores + w - 1];
        return true;
    };
    std::uint32_t from = 0;
    if (w_old != w_new) {
        if (rf_from(w_old, from))
            removed.push_back(Edge{from, vertex, EdgeKind::ReadsFrom});
        if (rf_from(w_new, from))
            added.push_back(Edge{from, vertex, EdgeKind::ReadsFrom});
    }

    const std::uint32_t words = locWords[loc];
    const auto row_of = [words](const std::uint64_t *base,
                                std::uint32_t w) -> const std::uint64_t * {
        return base == nullptr || w == WsOrder::kNoWriter
            ? nullptr
            : base + static_cast<std::size_t>(w) * words;
    };
    diffRow(row_of(old_rows, w_old), w_old, row_of(new_rows, w_new), w_new,
            words, vertex, storeVertex.data() + stores, EdgeKind::FromRead,
            removed, added);
}

void
EdgeDeriver::diffLoc(std::uint32_t loc, const std::uint64_t *old_rows,
                     const std::uint64_t *new_rows,
                     std::vector<Edge> &removed,
                     std::vector<Edge> &added) const
{
    const std::uint32_t words = locWords[loc];
    const std::uint32_t stores = locStoreBegin[loc];
    const std::uint32_t n = locStoreBegin[loc + 1] - stores + 1;
    for (std::uint32_t i = 1; i < n; ++i) {
        const std::size_t row = static_cast<std::size_t>(i) * words;
        diffRow(old_rows == nullptr ? nullptr : old_rows + row, i,
                new_rows + row, i, words, storeVertex[stores + i - 1],
                storeVertex.data() + stores, EdgeKind::WriteSerialization,
                removed, added);
    }
}

void
EdgeDeriver::sortByFrom(const std::vector<Edge> &in, std::vector<Edge> &out)
{
    out.resize(in.size());
    if (in.size() < 2) {
        std::copy(in.begin(), in.end(), out.begin());
        return;
    }
    std::fill(fromStart.begin(), fromStart.end(), 0);
    for (const Edge &e : in)
        ++fromStart[e.from + 1];
    for (std::size_t v = 1; v < fromStart.size(); ++v)
        fromStart[v] += fromStart[v - 1];
    for (const Edge &e : in)
        out[fromStart[e.from]++] = e;
    // A same-`from` run is a concatenation of sorted unit runs (every
    // unit emits ascending `to`), so this pass moves few elements.
    // (from, to) keys are unique, so the result equals std::sort's.
    for (std::size_t i = 1; i < out.size(); ++i) {
        const Edge e = out[i];
        std::size_t j = i;
        while (j > 0 && out[j - 1].from == e.from && out[j - 1].to > e.to) {
            out[j] = out[j - 1];
            --j;
        }
        out[j] = e;
    }
}

void
EdgeDeriver::derive(const Execution &execution, const WsOrder &ws,
                    const std::uint32_t *changed_tids, std::size_t n,
                    EdgeDiff &out)
{
    out.coherenceViolation = ws.coherenceViolation();
    rawRemoved.clear();
    rawAdded.clear();
    const auto num_loads = static_cast<std::uint32_t>(loadWriter.size());
    if (execution.loadValues.size() < num_loads)
        throw ConfigError("execution has fewer load values than loads");

    // Loads to re-derive: every load the first time; then the loads
    // whose writer changed (only changed threads can hold one) and the
    // loads at locations whose order moved. A value change between two
    // values no store wrote keeps the writer kNoWriter, and such a load
    // has no unit either way.
    loadQueue.clear();
    const auto queue = [&](std::uint32_t ordinal) {
        if (!loadQueued[ordinal]) {
            loadQueued[ordinal] = 1;
            loadQueue.push_back(ordinal);
        }
    };
    if (first) {
        for (std::uint32_t ordinal = 0; ordinal < num_loads; ++ordinal)
            queue(ordinal);
    } else {
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t tid = changed_tids[k];
            for (std::uint32_t ordinal = threadLoadBegin[tid];
                 ordinal < threadLoadBegin[tid + 1]; ++ordinal) {
                if (ws.writerIndex(ordinal) != loadWriter[ordinal])
                    queue(ordinal);
            }
        }
        for (std::uint32_t loc = 0; loc < locWords.size(); ++loc) {
            if (!ws.locChanged(loc))
                continue;
            for (std::uint32_t k = locLoadBegin[loc];
                 k < locLoadBegin[loc + 1]; ++k)
                queue(locLoads[k]);
        }
    }

    // Load units first: they read the previous rows, which the
    // location pass below overwrites.
    for (const std::uint32_t ordinal : loadQueue) {
        loadQueued[ordinal] = 0;
        const std::uint32_t loc = loadLoc[ordinal];
        const std::uint32_t w_new = ws.writerIndex(ordinal);
        diffLoad(ordinal, loadWriter[ordinal],
                 rows.data() + locRowBegin[loc], w_new,
                 ws.reachRow(loc, 0), rawRemoved, rawAdded);
        loadWriter[ordinal] = w_new;
        ++derivedLoads;
    }
    for (std::uint32_t loc = 0; loc < locWords.size(); ++loc) {
        if (!first && !ws.locChanged(loc))
            continue;
        std::uint64_t *old_rows = rows.data() + locRowBegin[loc];
        diffLoc(loc, old_rows, ws.reachRow(loc, 0), rawRemoved, rawAdded);
        const std::size_t row_words =
            static_cast<std::size_t>(locStoreBegin[loc + 1] -
                                     locStoreBegin[loc] + 1) *
            locWords[loc];
        std::copy(ws.reachRow(loc, 0), ws.reachRow(loc, 0) + row_words,
                  old_rows);
        ++derivedLocs;
    }
    first = false;

    sortByFrom(rawRemoved, out.removed);
    sortByFrom(rawAdded, out.added);
}

} // namespace mtc
