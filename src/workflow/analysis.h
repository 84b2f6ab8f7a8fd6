#ifndef FAASFLOW_WORKFLOW_ANALYSIS_H_
#define FAASFLOW_WORKFLOW_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "workflow/dag.h"

namespace faasflow::workflow {

/** Result of validating a Dag; `ok` with an empty `error` on success. */
struct ValidationResult
{
    bool ok = true;
    std::string error;
};

/**
 * Checks structural invariants: acyclicity, at least one source and one
 * sink, and connectivity of every node to the graph (isolated virtual
 * nodes are parser bugs).
 */
ValidationResult validate(const Dag& dag);

/**
 * Kahn topological order. Fatals on cyclic graphs — run validate() first
 * for untrusted input.
 */
std::vector<NodeId> topoOrder(const Dag& dag);

/** A critical path: node sequence plus the edge indices between them. */
struct CriticalPath
{
    std::vector<NodeId> nodes;
    std::vector<size_t> edges;  ///< edge indices, size = nodes.size() - 1
    SimTime length;             ///< total node exec estimates + edge weights
};

/**
 * Longest path through the DAG where a node costs its exec_estimate and
 * an edge costs its weight — the critical path Algorithm 1 greedily
 * merges along (§4.1.3).
 */
CriticalPath criticalPath(const Dag& dag);

/**
 * Critical-path sum of exec estimates only (no edge weights): the ideal
 * execution time used to compute scheduling overhead (§2.3: overhead =
 * end-to-end latency minus critical-path function time).
 */
SimTime criticalPathExecTime(const Dag& dag);

/** All sources (in-degree 0) / sinks (out-degree 0). */
std::vector<NodeId> sourceNodes(const Dag& dag);
std::vector<NodeId> sinkNodes(const Dag& dag);

/**
 * The facts the run time asks of a deployed DAG's data and constructs,
 * built once at deploy so that nothing scans the edge list per node.
 * Payloads are fixed after deploy (repartitioning rewrites only edge
 * weights), so the index holds for the workflow's lifetime.
 */
struct DagIndex
{
    /** Per node: the size of the object it saves — the first payload
     *  item it originates, in edge order, or 0. The only output-size
     *  rule. */
    std::vector<int64_t> output_bytes;

    /** Per origin: the target of every edge that carries one of its
     *  items, fence relays included. */
    std::vector<std::vector<NodeId>> consumers;

    /** Per node: task nodes that run its function (0 for fences). */
    std::vector<int> sharers;

    /** Switch construct id -> branch count (max branch index + 1). */
    std::map<int, int> switch_branches;
};

/** Builds `dag`'s index; System::deploy runs it once per workflow. */
DagIndex indexDag(const Dag& dag);

/** Structural summary of a workflow, for tooling and reports. */
struct DagStats
{
    size_t tasks = 0;
    size_t virtual_fences = 0;
    size_t edges = 0;
    size_t depth = 0;         ///< longest node chain (hop count)
    size_t max_width = 0;     ///< most nodes at one depth level
    size_t max_fan_out = 0;
    size_t max_fan_in = 0;
    int max_foreach_width = 1;
    int switch_count = 0;
    int64_t total_payload_bytes = 0;
    SimTime critical_path;    ///< exec estimates + edge weights

    /** One-line human-readable rendering. */
    std::string str() const;
};

/** Computes structural statistics for a DAG. */
DagStats computeStats(const Dag& dag);

/**
 * Converts a DAG into the function *sequence* a sequence-only vendor
 * (§2.1: "most cloud vendors only support sequential workflow") would
 * force: tasks chained in topological order, virtual fences dropped,
 * each producer's payload delivered to its direct chain successor.
 * Parallelism and foreach fan-out are lost by construction — the
 * baseline that motivates DAG-based engines.
 */
Dag linearize(const Dag& dag);

}  // namespace faasflow::workflow

#endif  // FAASFLOW_WORKFLOW_ANALYSIS_H_
