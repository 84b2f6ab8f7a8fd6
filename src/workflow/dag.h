#ifndef FAASFLOW_WORKFLOW_DAG_H_
#define FAASFLOW_WORKFLOW_DAG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace faasflow::workflow {

/** Dense node index within one Dag. */
using NodeId = int;

/** What a DAG node represents at runtime. */
enum class StepKind {
    Task,          ///< a real function invocation
    VirtualStart,  ///< entry fence of a parallel/switch/foreach step
    VirtualEnd     ///< exit fence of a parallel/switch/foreach step
};

/**
 * One node of a parsed workflow DAG.
 *
 * Virtual nodes (§4.1.1) carry no function and no cost; they only keep a
 * parallel/switch/foreach construct atomic during graph partition.
 * `foreach_width` is the static executor width of a foreach body — the
 * control-plane node maps to `foreach_width` data-plane instances
 * (the paper's Map(v)).
 */
struct DagNode
{
    NodeId id = -1;
    std::string name;      ///< unique within the workflow
    std::string function;  ///< FunctionRegistry key; empty for virtual nodes
    StepKind kind = StepKind::Task;

    /** Parallel instances a foreach body spawns at run time (>= 1). */
    int foreach_width = 1;

    /** Switch membership: construct id and branch index, or -1 / -1. */
    int switch_id = -1;
    int switch_branch = -1;

    /** Estimated execution time (scheduler input; refined by feedback). */
    SimTime exec_estimate;

    bool isTask() const { return kind == StepKind::Task; }
    bool isVirtual() const { return kind != StepKind::Task; }
};

/**
 * One datum flowing along an edge: `origin` is the task that produced the
 * bytes. Virtual nodes relay data without copying, so an edge leaving a
 * VirtualEnd can carry payloads originating from several branch tasks;
 * the consumer fetches each item from wherever its origin's output lives.
 */
struct DataItem
{
    NodeId origin = -1;
    int64_t bytes = 0;
};

/**
 * A directed data/control dependency. `payload` lists the data the
 * consumer fetches when this edge fires; `weight` is the scheduler's
 * estimate of the edge's 99%-ile transmission latency (the DAG Parser
 * seeds it, runtime feedback re-estimates it each partition iteration).
 */
struct DagEdge
{
    NodeId from = -1;
    NodeId to = -1;
    std::vector<DataItem> payload;
    SimTime weight;

    /** Total bytes across all payload items. */
    int64_t
    dataBytes() const
    {
        int64_t total = 0;
        for (const auto& item : payload)
            total += item.bytes;
        return total;
    }
};

/**
 * A workflow DAG: the in-memory object the DAG Parser produces and the
 * Graph Scheduler partitions.
 *
 * Nodes are identified by dense ids in insertion order; edges are stored
 * once plus per-node adjacency indices for O(out-degree) traversal.
 */
class Dag
{
  public:
    explicit Dag(std::string name = "workflow") : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    /** Adds a node; returns its id. Node names must be unique. */
    NodeId addNode(DagNode node);

    /** Adds an edge whose payload originates at `from` (the common,
     *  task-to-task case); endpoints must exist and differ. */
    void addEdge(NodeId from, NodeId to, int64_t data_bytes,
                 SimTime weight = SimTime::zero());

    /** Adds an edge with an explicit payload list (virtual-node relays). */
    void addEdgeWithPayload(NodeId from, NodeId to,
                            std::vector<DataItem> payload,
                            SimTime weight = SimTime::zero());

    size_t nodeCount() const { return nodes_.size(); }
    size_t edgeCount() const { return edges_.size(); }

    const DagNode& node(NodeId id) const;
    DagNode& node(NodeId id);
    const std::vector<DagNode>& nodes() const { return nodes_; }

    const DagEdge& edge(size_t idx) const { return edges_[idx]; }
    DagEdge& edge(size_t idx) { return edges_[idx]; }
    const std::vector<DagEdge>& edges() const { return edges_; }

    /** Edge indices leaving / entering a node. */
    const std::vector<size_t>& outEdges(NodeId id) const;
    const std::vector<size_t>& inEdges(NodeId id) const;

    std::vector<NodeId> successors(NodeId id) const;
    std::vector<NodeId> predecessors(NodeId id) const;

    /** Node lookup by unique name; -1 when absent. */
    NodeId findByName(const std::string& name) const;

    /** Count of real (non-virtual) function nodes. */
    size_t taskCount() const;

    /** Sum of data_bytes over all edges. */
    int64_t totalDataBytes() const;

  private:
    std::string name_;
    std::vector<DagNode> nodes_;
    std::vector<DagEdge> edges_;
    std::vector<std::vector<size_t>> out_edges_;
    std::vector<std::vector<size_t>> in_edges_;
    std::map<std::string, NodeId> by_name_;

    void checkNode(NodeId id) const;
};

}  // namespace faasflow::workflow

#endif  // FAASFLOW_WORKFLOW_DAG_H_
