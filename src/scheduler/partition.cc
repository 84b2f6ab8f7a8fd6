#include "scheduler/partition.h"

#include <algorithm>
#include <limits>
#include <map>

#include "common/logging.h"
#include "common/string_util.h"
#include "workflow/analysis.h"

namespace faasflow::scheduler {

bool
PartitionContext::conflicts(const std::string& a, const std::string& b) const
{
    return contention.count({a, b}) > 0 || contention.count({b, a}) > 0;
}

namespace {

/** Groups nodes assigned to the same worker into Placement::groups. */
void
buildGroupsFromWorkers(const workflow::Dag& dag, Placement& placement)
{
    std::map<int, std::vector<workflow::NodeId>> by_worker;
    for (const auto& node : dag.nodes())
        by_worker[placement.workerOf(node.id)].push_back(node.id);
    placement.groups.clear();
    placement.group_worker.clear();
    for (auto& [worker, members] : by_worker) {
        placement.groups.push_back(std::move(members));
        placement.group_worker.push_back(worker);
    }
}

}  // namespace

Placement
randomPartition(const workflow::Dag& dag, int worker_count, int version,
                Rng rng)
{
    if (worker_count <= 0)
        fatal("randomPartition needs at least one worker");
    Placement placement;
    placement.version = version;
    placement.worker_of.resize(dag.nodeCount());
    placement.storage_mem.assign(dag.nodeCount(), false);
    for (size_t i = 0; i < dag.nodeCount(); ++i) {
        placement.worker_of[i] =
            static_cast<int>(rng.uniformInt(0, worker_count - 1));
    }
    buildGroupsFromWorkers(dag, placement);
    return placement;
}

Placement
roundRobinPartition(const workflow::Dag& dag, int worker_count, int version)
{
    if (worker_count <= 0)
        fatal("roundRobinPartition needs at least one worker");
    Placement placement;
    placement.version = version;
    placement.worker_of.resize(dag.nodeCount());
    placement.storage_mem.assign(dag.nodeCount(), false);
    int next = 0;
    for (const workflow::NodeId id : workflow::topoOrder(dag)) {
        placement.worker_of[static_cast<size_t>(id)] = next;
        next = (next + 1) % worker_count;
    }
    buildGroupsFromWorkers(dag, placement);
    return placement;
}

Placement
hashPartition(const workflow::Dag& dag, int worker_count, int version)
{
    if (worker_count <= 0)
        fatal("hashPartition needs at least one worker");
    Placement placement;
    placement.version = version;
    placement.worker_of.resize(dag.nodeCount(), 0);
    placement.storage_mem.assign(dag.nodeCount(), false);

    for (const auto& node : dag.nodes()) {
        placement.worker_of[static_cast<size_t>(node.id)] = static_cast<int>(
            fnv1a(node.name) % static_cast<uint64_t>(worker_count));
    }
    // Keep virtual fences with a real neighbour so constructs are not cut
    // around a zero-cost node arbitrarily.
    for (const auto& node : dag.nodes()) {
        if (!node.isVirtual())
            continue;
        const auto neighbours = node.kind == workflow::StepKind::VirtualStart
                                    ? dag.successors(node.id)
                                    : dag.predecessors(node.id);
        for (const workflow::NodeId n : neighbours) {
            if (dag.node(n).isTask()) {
                placement.worker_of[static_cast<size_t>(node.id)] =
                    placement.workerOf(n);
                break;
            }
        }
    }
    buildGroupsFromWorkers(dag, placement);
    return placement;
}

GreedyGrouper::GreedyGrouper(const workflow::Dag& dag,
                             const cluster::FunctionRegistry& registry,
                             const RuntimeFeedback& feedback,
                             PartitionContext context, Rng rng)
    : dag_(dag), registry_(registry), feedback_(feedback),
      context_(std::move(context)), rng_(rng)
{
    if (context_.capacity.empty())
        fatal("GreedyGrouper needs at least one worker capacity entry");
}

int
GreedyGrouper::find(int x)
{
    while (parent_[static_cast<size_t>(x)] != x) {
        parent_[static_cast<size_t>(x)] =
            parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
        x = parent_[static_cast<size_t>(x)];
    }
    return x;
}

double
GreedyGrouper::nodeScale(workflow::NodeId id) const
{
    const auto& node = dag_.node(id);
    if (node.isVirtual())
        return 0.0;
    // A foreach body deploys Map(v) = foreach-width executors; the
    // Scale(v) feedback observes concurrent containers, which already
    // includes those executors — take the larger of observation and
    // width rather than multiplying them.
    return std::max(feedback_.scale(node.name),
                    static_cast<double>(node.foreach_width));
}

double
GreedyGrouper::groupScale(int rep)
{
    double total = 0.0;
    for (size_t i = 0; i < dag_.nodeCount(); ++i) {
        if (find(static_cast<int>(i)) == rep)
            total += nodeScale(static_cast<workflow::NodeId>(i));
    }
    return total;
}

SimTime
GreedyGrouper::effectiveWeight(const workflow::DagEdge& edge)
{
    // Only an edge whose producer was actually granted in-memory storage
    // gets the cheap local-copy weight; a co-located pair whose data was
    // denied by the quota still pays the remote round trip.
    if (find(edge.from) == find(edge.to) &&
        (storage_mem_[static_cast<size_t>(edge.from)] ||
         edge.dataBytes() == 0)) {
        return SimTime::seconds(static_cast<double>(edge.dataBytes()) /
                                context_.local_copy_bandwidth) +
               SimTime::micros(200);
    }
    return edge.weight;
}

int
GreedyGrouper::binpack(double demand) const
{
    // Best fit: the worker whose remaining capacity is smallest but still
    // sufficient, so large groups keep their options open.
    int best = -1;
    int best_cap = std::numeric_limits<int>::max();
    for (size_t w = 0; w < context_.capacity.size(); ++w) {
        const int cap = context_.capacity[w];
        if (static_cast<double>(cap) >= demand && cap < best_cap) {
            best = static_cast<int>(w);
            best_cap = cap;
        }
    }
    return best;
}

bool
GreedyGrouper::tryMerge(size_t edge_idx)
{
    const auto& edge = dag_.edge(edge_idx);
    const int rep_start = find(edge.from);
    const int rep_end = find(edge.to);
    if (rep_start == rep_end)
        return false;

    const double n_start = groupScale(rep_start);
    const double n_end = groupScale(rep_end);
    const double demand = n_start + n_end;

    // Tentatively release both groups' current reservations (Alg. 1
    // lines 10-11); revert on any constraint failure.
    auto& cap = context_.capacity;
    const int w_start = group_worker_[static_cast<size_t>(rep_start)];
    const int w_end = group_worker_[static_cast<size_t>(rep_end)];
    cap[static_cast<size_t>(w_start)] += static_cast<int>(n_start);
    cap[static_cast<size_t>(w_end)] += static_cast<int>(n_end);
    auto revert = [&] {
        cap[static_cast<size_t>(w_start)] -= static_cast<int>(n_start);
        cap[static_cast<size_t>(w_end)] -= static_cast<int>(n_end);
    };

    // Line 12: the merged group must fit on some worker.
    const int max_cap = *std::max_element(cap.begin(), cap.end());
    if (demand > static_cast<double>(max_cap)) {
        revert();
        return false;
    }

    // Lines 13-18: localizing this edge's data must fit Quota(G). When
    // the quota is exhausted the merge itself still proceeds — the
    // functions co-locate for cheap triggering — but the producer keeps
    // StorageType 'DB', so its data continues through the remote store
    // (FaaStore enforces the same quota at run time).
    const int64_t bytes = edge.dataBytes();
    bool will_localize =
        bytes > 0 && !storage_mem_[static_cast<size_t>(edge.from)];
    if (will_localize && mem_consume_ + bytes > context_.quota)
        will_localize = false;

    // Lines 19-20: no contention pair inside the merged group.
    std::vector<std::string> start_fns, end_fns;
    for (size_t i = 0; i < dag_.nodeCount(); ++i) {
        const int rep = find(static_cast<int>(i));
        if (rep != rep_start && rep != rep_end)
            continue;
        const auto& node = dag_.node(static_cast<workflow::NodeId>(i));
        if (!node.isTask())
            continue;
        (rep == rep_start ? start_fns : end_fns).push_back(node.function);
    }
    for (const auto& a : start_fns) {
        for (const auto& b : end_fns) {
            if (context_.conflicts(a, b)) {
                revert();
                return false;
            }
        }
    }

    // Lines 21-22: bin-pack the merged group onto a worker.
    const int target = binpack(demand);
    if (target < 0) {
        revert();
        return false;
    }

    // Commit.
    if (will_localize) {
        mem_consume_ += bytes;
        storage_mem_[static_cast<size_t>(edge.from)] = true;
    }
    parent_[static_cast<size_t>(rep_end)] = rep_start;
    group_worker_[static_cast<size_t>(rep_start)] = target;
    cap[static_cast<size_t>(target)] -= static_cast<int>(demand);
    ++merge_count_;
    return true;
}

Placement
GreedyGrouper::run(int version)
{
    const size_t n = dag_.nodeCount();
    parent_.resize(n);
    group_worker_.resize(n);
    storage_mem_.assign(n, false);
    merge_count_ = 0;
    mem_consume_ = 0;

    // Line 1: singleton groups on random workers; charge capacities.
    const int workers = static_cast<int>(context_.capacity.size());
    for (size_t i = 0; i < n; ++i) {
        parent_[i] = static_cast<int>(i);
        const int w =
            static_cast<int>(rng_.uniformInt(0, workers - 1));
        group_worker_[i] = w;
        context_.capacity[static_cast<size_t>(w)] -= static_cast<int>(
            nodeScale(static_cast<workflow::NodeId>(i)));
    }

    // Lines 3-26: merge along the critical path until convergence.
    const auto topo = workflow::topoOrder(dag_);
    while (true) {
        // Critical path with effective (locality-aware) edge weights.
        std::vector<SimTime> dist(n, SimTime::zero());
        std::vector<size_t> via(n, SIZE_MAX);
        for (const workflow::NodeId id : topo) {
            const size_t i = static_cast<size_t>(id);
            dist[i] += dag_.node(id).exec_estimate;
            for (size_t e : dag_.outEdges(id)) {
                const auto& edge = dag_.edge(e);
                const size_t j = static_cast<size_t>(edge.to);
                const SimTime cand = dist[i] + effectiveWeight(edge);
                if (via[j] == SIZE_MAX || cand > dist[j]) {
                    dist[j] = cand;
                    via[j] = e;
                }
            }
        }
        workflow::NodeId end = 0;
        for (size_t i = 0; i < n; ++i) {
            if (dist[i] > dist[static_cast<size_t>(end)])
                end = static_cast<workflow::NodeId>(i);
        }
        std::vector<size_t> cpath_edges;
        for (workflow::NodeId cur = end;
             via[static_cast<size_t>(cur)] != SIZE_MAX;
             cur = dag_.edge(via[static_cast<size_t>(cur)]).from) {
            cpath_edges.push_back(via[static_cast<size_t>(cur)]);
        }

        // Lines 5-6: heaviest edges first.
        std::sort(cpath_edges.begin(), cpath_edges.end(),
                  [this](size_t a, size_t b) {
                      return effectiveWeight(dag_.edge(a)) >
                             effectiveWeight(dag_.edge(b));
                  });

        bool merged = false;
        for (const size_t e : cpath_edges) {
            if (tryMerge(e)) {
                merged = true;
                break;
            }
        }
        if (!merged)
            break;
    }

    // Assemble the placement from the union-find state.
    Placement placement;
    placement.version = version;
    placement.worker_of.resize(n);
    placement.storage_mem = storage_mem_;
    std::map<int, std::vector<workflow::NodeId>> by_rep;
    for (size_t i = 0; i < n; ++i) {
        const int rep = find(static_cast<int>(i));
        placement.worker_of[i] = group_worker_[static_cast<size_t>(rep)];
        by_rep[rep].push_back(static_cast<workflow::NodeId>(i));
    }
    for (auto& [rep, members] : by_rep) {
        placement.group_worker.push_back(
            group_worker_[static_cast<size_t>(rep)]);
        placement.groups.push_back(std::move(members));
    }
    return placement;
}

}  // namespace faasflow::scheduler
