#include "core/collective_checker.h"

#include <algorithm>

#include "graph/po_edges.h"
#include "support/error.h"

namespace mtc
{

void
CollectiveStats::merge(const CollectiveStats &other)
{
    graphsChecked += other.graphsChecked;
    violations += other.violations;
    completeSorts += other.completeSorts;
    noResortNeeded += other.noResortNeeded;
    incrementalResorts += other.incrementalResorts;
    affectedFraction.merge(other.affectedFraction);
    verticesProcessed += other.verticesProcessed;
    edgesProcessed += other.edgesProcessed;
}

CollectiveChecker::CollectiveChecker(const TestProgram &program,
                                     MemoryModel model)
    : prog(program), numVertices(program.numOps()),
      dynAdj(numVertices),
      windowEpoch(numVertices, 0), windowIndeg(numVertices, 0)
{
    // Build the immutable static adjacency directly in CSR form:
    // degree count, prefix sum, then a second pass placing neighbours
    // with per-vertex cursors (preserving programOrderEdges order).
    const std::vector<Edge> po_edges = programOrderEdges(program, model);
    staticOff.assign(numVertices + 1, 0);
    for (const Edge &edge : po_edges)
        ++staticOff[edge.from + 1];
    for (std::uint32_t v = 0; v < numVertices; ++v)
        staticOff[v + 1] += staticOff[v];
    staticNbr.resize(po_edges.size());
    std::vector<std::uint32_t> cursor(staticOff.begin(),
                                      staticOff.end() - 1);
    for (const Edge &edge : po_edges)
        staticNbr[cursor[edge.from]++] = edge.to;

    isLoad.assign(numVertices, false);
    for (std::uint32_t v = 0; v < numVertices; ++v)
        isLoad[v] = program.op(program.opIdAt(v)).kind == OpKind::Load;

    storeQueue.reserve(numVertices);
    loadQueue.reserve(numVertices);
    orderScratch.reserve(numVertices);
}

namespace
{

std::uint64_t
edgeKey(const Edge &e)
{
    return (static_cast<std::uint64_t>(e.from) << 32) | e.to;
}

} // namespace

const std::vector<Edge> &
CollectiveChecker::applyDiff(const std::vector<Edge> &next)
{
    // Both lists are sorted by (from, to): merge to find additions and
    // removals.
    addedScratch.clear();

    std::size_t i = 0, j = 0;
    while (i < currentEdges.size() || j < next.size()) {
        if (j == next.size() ||
            (i < currentEdges.size() &&
             edgeKey(currentEdges[i]) < edgeKey(next[j]))) {
            // Removed edge: releases a constraint, never invalidates.
            // Swap-and-pop instead of erase(find(...)): the find is
            // unavoidable without an index, but erase's element shift
            // made diff application quadratic in the successor-list
            // length on dense tests. Successor order is irrelevant to
            // correctness (it only biases which of several valid
            // topological orders the sort produces).
            auto &succ = dynAdj[currentEdges[i].from];
            auto it = std::find(succ.begin(), succ.end(),
                                currentEdges[i].to);
            *it = succ.back();
            succ.pop_back();
            ++i;
        } else if (i == currentEdges.size() ||
                   edgeKey(next[j]) < edgeKey(currentEdges[i])) {
            dynAdj[next[j].from].push_back(next[j].to);
            addedScratch.push_back(next[j]);
            ++j;
        } else {
            ++i;
            ++j;
        }
    }
    currentEdges = next;
    return addedScratch;
}

void
CollectiveChecker::applyDiffLists(const std::vector<Edge> &removed,
                                  const std::vector<Edge> &added)
{
    // Merge the (disjoint, sorted) lists and apply in ascending key
    // order — the exact removal/insertion interleaving applyDiff()
    // performs, so the resulting successor-list layout (and with it
    // every Kahn tie-break downstream) is bit-identical.
    std::size_t i = 0, j = 0;
    while (i < removed.size() || j < added.size()) {
        if (j == added.size() ||
            (i < removed.size() &&
             edgeKey(removed[i]) < edgeKey(added[j]))) {
            auto &succ = dynAdj[removed[i].from];
            auto it =
                std::find(succ.begin(), succ.end(), removed[i].to);
            *it = succ.back();
            succ.pop_back();
            ++i;
        } else {
            dynAdj[added[j].from].push_back(added[j].to);
            ++j;
        }
    }
}

bool
CollectiveChecker::fullSort()
{
    ++stat.completeSorts;

    // Work accounting matches topologicalSort(): vertices dequeued and
    // edges relaxed; in-degree building is not separately charged.
    fullIndeg.assign(numVertices, 0);
    for (std::uint32_t to : staticNbr)
        ++fullIndeg[to];
    for (std::uint32_t v = 0; v < numVertices; ++v) {
        for (std::uint32_t to : dynAdj[v])
            ++fullIndeg[to];
    }

    // Two-bucket Kahn preferring stores over loads: like the paper's
    // observation about tsort, placing stores as early as the
    // constraints allow makes most *new* reads-from edges forward, so
    // subsequent graphs skip re-sorting entirely.
    storeQueue.clear();
    loadQueue.clear();
    auto enqueue = [&](std::uint32_t v) {
        (isLoad[v] ? loadQueue : storeQueue).push_back(v);
    };
    for (std::uint32_t v = 0; v < numVertices; ++v)
        if (fullIndeg[v] == 0)
            enqueue(v);

    orderScratch.clear();
    std::size_t store_head = 0, load_head = 0;
    while (store_head < storeQueue.size() ||
           load_head < loadQueue.size()) {
        const std::uint32_t v = store_head < storeQueue.size()
            ? storeQueue[store_head++]
            : loadQueue[load_head++];
        ++stat.verticesProcessed;
        orderScratch.push_back(v);
        const auto relax = [&](std::uint32_t to) {
            ++stat.edgesProcessed;
            if (--fullIndeg[to] == 0)
                enqueue(to);
        };
        for (std::uint32_t e = staticOff[v]; e < staticOff[v + 1]; ++e)
            relax(staticNbr[e]);
        for (std::uint32_t to : dynAdj[v])
            relax(to);
    }

    if (orderScratch.size() != numVertices) {
        orderValid = false;
        return false;
    }

    orderArr.swap(orderScratch);
    pos.assign(numVertices, 0);
    for (std::uint32_t p = 0; p < numVertices; ++p)
        pos[orderArr[p]] = p;
    orderValid = true;
    return true;
}

bool
CollectiveChecker::windowedResort(std::uint32_t lead, std::uint32_t trail)
{
    // Membership + in-window in-degrees via epoch stamping.
    ++epoch;
    const std::uint32_t window_size = trail - lead + 1;
    for (std::uint32_t p = lead; p <= trail; ++p) {
        const std::uint32_t v = orderArr[p];
        windowEpoch[v] = epoch;
        windowIndeg[v] = 0;
    }
    for (std::uint32_t p = lead; p <= trail; ++p) {
        const std::uint32_t v = orderArr[p];
        const auto count = [&](std::uint32_t to) {
            if (windowEpoch[to] == epoch)
                ++windowIndeg[to];
        };
        for (std::uint32_t e = staticOff[v]; e < staticOff[v + 1]; ++e)
            count(staticNbr[e]);
        for (std::uint32_t to : dynAdj[v])
            count(to);
    }

    windowQueue.clear();
    for (std::uint32_t p = lead; p <= trail; ++p) {
        const std::uint32_t v = orderArr[p];
        if (windowIndeg[v] == 0)
            windowQueue.push_back(v);
    }

    windowSubOrder.clear();
    std::size_t head = 0;
    while (head < windowQueue.size()) {
        const std::uint32_t v = windowQueue[head++];
        ++stat.verticesProcessed;
        windowSubOrder.push_back(v);
        // Every successor is touched (charged), but only in-window
        // targets participate in the sort.
        const auto relax = [&](std::uint32_t to) {
            ++stat.edgesProcessed;
            if (windowEpoch[to] != epoch)
                return;
            if (--windowIndeg[to] == 0)
                windowQueue.push_back(to);
        };
        for (std::uint32_t e = staticOff[v]; e < staticOff[v + 1]; ++e)
            relax(staticNbr[e]);
        for (std::uint32_t to : dynAdj[v])
            relax(to);
    }

    if (windowSubOrder.size() != window_size) {
        orderValid = false; // cycle inside the window
        return false;
    }

    // Write the new sub-order back into the same position slots.
    // Cross-boundary edges stay forward: predecessors of the window
    // occupy positions < lead, successors positions > trail.
    for (std::uint32_t k = 0; k < window_size; ++k) {
        orderArr[lead + k] = windowSubOrder[k];
        pos[windowSubOrder[k]] = lead + k;
    }
    return true;
}

bool
CollectiveChecker::checkNext(const DynamicEdgeSet &edges)
{
    ++stat.graphsChecked;
    const std::vector<Edge> &added = applyDiff(edges.edges);
    return finishCheck(added, edges.coherenceViolation);
}

bool
CollectiveChecker::checkNextDiff(const EdgeDiff &diff)
{
    ++stat.graphsChecked;
    applyDiffLists(diff.removed, diff.added);
    return finishCheck(diff.added, diff.coherenceViolation);
}

bool
CollectiveChecker::finishCheck(const std::vector<Edge> &added,
                               bool coherence_violation)
{
    if (coherence_violation) {
        // Contradictory ws constraints: flagged without sorting. The
        // maintained order may no longer be valid for this graph, so
        // the next graph starts from a complete sort.
        ++stat.violations;
        orderValid = false;
        return true;
    }

    if (!orderValid) {
        // First graph, or recovery after a violating graph.
        const bool ok = fullSort();
        if (!ok)
            ++stat.violations;
        return !ok;
    }

    // Classify added edges against the current order.
    std::uint32_t lead = numVertices, trail = 0;
    for (const Edge &edge : added) {
        if (pos[edge.from] > pos[edge.to]) { // backward
            lead = std::min(lead, pos[edge.to]);
            trail = std::max(trail, pos[edge.from]);
        }
    }

    if (lead > trail) {
        ++stat.noResortNeeded; // all added edges forward
        return false;
    }

    ++stat.incrementalResorts;
    stat.affectedFraction.add(static_cast<double>(trail - lead + 1) /
                              numVertices);
    const bool ok = windowedResort(lead, trail);
    if (!ok)
        ++stat.violations;
    return !ok;
}

std::vector<bool>
CollectiveChecker::check(const std::vector<DynamicEdgeSet> &ordered)
{
    std::vector<bool> verdicts;
    verdicts.reserve(ordered.size());
    for (const DynamicEdgeSet &edges : ordered)
        verdicts.push_back(checkNext(edges));
    return verdicts;
}

} // namespace mtc
