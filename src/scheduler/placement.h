#ifndef FAASFLOW_SCHEDULER_PLACEMENT_H_
#define FAASFLOW_SCHEDULER_PLACEMENT_H_

#include <string>
#include <vector>

#include "workflow/analysis.h"
#include "workflow/dag.h"

namespace faasflow::scheduler {

/**
 * The output of graph partitioning: which worker owns every DAG node,
 * the function groups (sub-graphs) themselves, and Algorithm 1's
 * per-function storage decision.
 */
struct Placement
{
    /** Red-black deployment version (§4.2.2); bumped per iteration. */
    int version = 0;

    /** Worker index per DAG node (size = dag.nodeCount()). */
    std::vector<int> worker_of;

    /** Algorithm 1's StorageType marker: true = 'MEM', false = 'DB'. */
    std::vector<bool> storage_mem;

    /** The function groups; each group lives on one worker. */
    std::vector<std::vector<workflow::NodeId>> groups;

    /** Worker index per group (size = groups.size()). */
    std::vector<int> group_worker;

    bool
    valid() const
    {
        return !worker_of.empty() &&
               worker_of.size() == storage_mem.size() &&
               groups.size() == group_worker.size();
    }

    int workerOf(workflow::NodeId id) const
    {
        return worker_of[static_cast<size_t>(id)];
    }

    /**
     * True when `origin` has a consumer and every one of them sits on the
     * same worker as `origin` — the locality test FaaStore applies when
     * it picks a store (§3.2). The index's consumers follow payload
     * origins, so data relayed through virtual fences is handled
     * correctly.
     */
    bool allConsumersLocal(const workflow::DagIndex& index,
                           workflow::NodeId origin) const;

    /** Count of nodes placed on each of `worker_count` workers. */
    std::vector<int> nodesPerWorker(int worker_count) const;
};

}  // namespace faasflow::scheduler

#endif  // FAASFLOW_SCHEDULER_PLACEMENT_H_
