#include "workflow/analysis.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "common/logging.h"
#include "common/units.h"
#include "common/string_util.h"

namespace faasflow::workflow {

ValidationResult
validate(const Dag& dag)
{
    ValidationResult result;
    if (dag.nodeCount() == 0) {
        result.ok = false;
        result.error = "empty workflow";
        return result;
    }

    // Kahn's algorithm detects cycles.
    std::vector<int> indeg(dag.nodeCount(), 0);
    for (const auto& e : dag.edges())
        ++indeg[static_cast<size_t>(e.to)];
    std::queue<NodeId> ready;
    for (size_t i = 0; i < dag.nodeCount(); ++i) {
        if (indeg[i] == 0)
            ready.push(static_cast<NodeId>(i));
    }
    size_t visited = 0;
    while (!ready.empty()) {
        const NodeId id = ready.front();
        ready.pop();
        ++visited;
        for (size_t e : dag.outEdges(id)) {
            const NodeId to = dag.edge(e).to;
            if (--indeg[static_cast<size_t>(to)] == 0)
                ready.push(to);
        }
    }
    if (visited != dag.nodeCount()) {
        result.ok = false;
        result.error = strFormat("cycle detected (%zu of %zu nodes reachable "
                                 "in topological order)",
                                 visited, dag.nodeCount());
        return result;
    }

    if (sourceNodes(dag).empty() || sinkNodes(dag).empty()) {
        result.ok = false;
        result.error = "workflow needs at least one source and one sink";
        return result;
    }

    // Isolated virtual nodes indicate a parser bug.
    for (const auto& node : dag.nodes()) {
        if (node.isVirtual() && dag.inEdges(node.id).empty() &&
            dag.outEdges(node.id).empty()) {
            result.ok = false;
            result.error =
                strFormat("virtual node '%s' is isolated", node.name.c_str());
            return result;
        }
    }
    return result;
}

std::vector<NodeId>
topoOrder(const Dag& dag)
{
    std::vector<int> indeg(dag.nodeCount(), 0);
    for (const auto& e : dag.edges())
        ++indeg[static_cast<size_t>(e.to)];
    // Use the lowest-id-first rule so the order is deterministic.
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
    for (size_t i = 0; i < dag.nodeCount(); ++i) {
        if (indeg[i] == 0)
            ready.push(static_cast<NodeId>(i));
    }
    std::vector<NodeId> order;
    order.reserve(dag.nodeCount());
    while (!ready.empty()) {
        const NodeId id = ready.top();
        ready.pop();
        order.push_back(id);
        for (size_t e : dag.outEdges(id)) {
            const NodeId to = dag.edge(e).to;
            if (--indeg[static_cast<size_t>(to)] == 0)
                ready.push(to);
        }
    }
    if (order.size() != dag.nodeCount())
        fatal("topoOrder on cyclic dag '%s'", dag.name().c_str());
    return order;
}

namespace {

/** Shared longest-path DP; `use_edge_weights` toggles edge contribution. */
CriticalPath
longestPath(const Dag& dag, bool use_edge_weights)
{
    const auto order = topoOrder(dag);
    const size_t n = dag.nodeCount();
    std::vector<SimTime> dist(n, SimTime::zero());
    std::vector<size_t> via_edge(n, SIZE_MAX);

    for (const NodeId id : order) {
        const size_t i = static_cast<size_t>(id);
        dist[i] += dag.node(id).exec_estimate;
        for (size_t e : dag.outEdges(id)) {
            const DagEdge& edge = dag.edge(e);
            const size_t j = static_cast<size_t>(edge.to);
            SimTime cand = dist[i];
            if (use_edge_weights)
                cand += edge.weight;
            if (via_edge[j] == SIZE_MAX || cand > dist[j]) {
                dist[j] = cand;
                via_edge[j] = e;
            }
        }
    }

    // Find the heaviest sink and walk back.
    NodeId end = -1;
    SimTime best = SimTime::zero();
    for (size_t i = 0; i < n; ++i) {
        if (dist[i] >= best) {
            best = dist[i];
            end = static_cast<NodeId>(i);
        }
    }

    CriticalPath path;
    path.length = best;
    NodeId cur = end;
    while (cur != -1) {
        path.nodes.push_back(cur);
        const size_t e = via_edge[static_cast<size_t>(cur)];
        if (e == SIZE_MAX)
            break;
        path.edges.push_back(e);
        cur = dag.edge(e).from;
    }
    std::reverse(path.nodes.begin(), path.nodes.end());
    std::reverse(path.edges.begin(), path.edges.end());
    return path;
}

}  // namespace

CriticalPath
criticalPath(const Dag& dag)
{
    return longestPath(dag, true);
}

SimTime
criticalPathExecTime(const Dag& dag)
{
    return longestPath(dag, false).length;
}

std::string
DagStats::str() const
{
    return strFormat(
        "%zu tasks, %zu fences, %zu edges, depth %zu, width %zu, "
        "fan-out<=%zu, foreach<=%d, %d switch(es), %s payload, "
        "critical path %s",
        tasks, virtual_fences, edges, depth, max_width, max_fan_out,
        max_foreach_width, switch_count,
        formatBytes(total_payload_bytes).c_str(),
        critical_path.str().c_str());
}

DagStats
computeStats(const Dag& dag)
{
    DagStats stats;
    stats.edges = dag.edgeCount();
    std::set<int> switches;
    for (const auto& node : dag.nodes()) {
        if (node.isTask()) {
            ++stats.tasks;
        } else {
            ++stats.virtual_fences;
        }
        stats.max_fan_out =
            std::max(stats.max_fan_out, dag.outEdges(node.id).size());
        stats.max_fan_in =
            std::max(stats.max_fan_in, dag.inEdges(node.id).size());
        stats.max_foreach_width =
            std::max(stats.max_foreach_width, node.foreach_width);
        if (node.switch_id >= 0)
            switches.insert(node.switch_id);
    }
    stats.switch_count = static_cast<int>(switches.size());
    stats.total_payload_bytes = dag.totalDataBytes();
    stats.critical_path = criticalPath(dag).length;

    // Depth/width: longest-hop level per node over the topo order.
    std::vector<size_t> level(dag.nodeCount(), 0);
    for (const NodeId id : topoOrder(dag)) {
        for (const size_t e : dag.outEdges(id)) {
            const size_t j = static_cast<size_t>(dag.edge(e).to);
            level[j] = std::max(level[j],
                                level[static_cast<size_t>(id)] + 1);
        }
    }
    std::map<size_t, size_t> width_at;
    for (const size_t l : level) {
        ++width_at[l];
        stats.depth = std::max(stats.depth, l + 1);
    }
    for (const auto& [l, w] : width_at)
        stats.max_width = std::max(stats.max_width, w);
    return stats;
}

Dag
linearize(const Dag& dag)
{
    Dag chain(dag.name() + "-seq");
    std::vector<NodeId> order;
    for (const NodeId id : topoOrder(dag)) {
        if (dag.node(id).isTask())
            order.push_back(id);
    }
    std::vector<NodeId> mapped;
    for (const NodeId id : order) {
        DagNode node = dag.node(id);
        node.id = -1;
        // Sequence-only vendors have no foreach/switch: every task runs
        // exactly once.
        node.foreach_width = 1;
        node.switch_id = -1;
        node.switch_branch = -1;
        mapped.push_back(chain.addNode(std::move(node)));
    }
    // Chain edges carry the producer's output.
    const DagIndex index = indexDag(dag);
    for (size_t i = 0; i + 1 < order.size(); ++i) {
        const int64_t bytes =
            index.output_bytes[static_cast<size_t>(order[i])];
        chain.addEdge(mapped[i], mapped[i + 1], bytes,
                      SimTime::seconds(static_cast<double>(bytes) / 50e6));
    }
    return chain;
}

std::vector<NodeId>
sourceNodes(const Dag& dag)
{
    std::vector<NodeId> out;
    for (const auto& node : dag.nodes()) {
        if (dag.inEdges(node.id).empty())
            out.push_back(node.id);
    }
    return out;
}

std::vector<NodeId>
sinkNodes(const Dag& dag)
{
    std::vector<NodeId> out;
    for (const auto& node : dag.nodes()) {
        if (dag.outEdges(node.id).empty())
            out.push_back(node.id);
    }
    return out;
}

DagIndex
indexDag(const Dag& dag)
{
    const size_t n = dag.nodeCount();
    DagIndex index;
    index.output_bytes.assign(n, 0);
    index.consumers.assign(n, {});
    index.sharers.assign(n, 0);
    for (const auto& edge : dag.edges()) {
        for (const auto& item : edge.payload) {
            auto& readers = index.consumers[static_cast<size_t>(item.origin)];
            if (readers.empty())
                index.output_bytes[static_cast<size_t>(item.origin)] =
                    item.bytes;
            readers.push_back(edge.to);
        }
    }
    std::map<std::string, int> per_function;
    for (const auto& node : dag.nodes()) {
        if (node.isTask())
            ++per_function[node.function];
        if (node.switch_id >= 0) {
            int& branches = index.switch_branches[node.switch_id];
            branches = std::max(branches, node.switch_branch + 1);
        }
    }
    for (const auto& node : dag.nodes()) {
        if (node.isTask())
            index.sharers[static_cast<size_t>(node.id)] =
                per_function[node.function];
    }
    return index;
}

}  // namespace faasflow::workflow
