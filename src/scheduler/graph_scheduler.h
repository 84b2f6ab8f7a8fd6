#ifndef FAASFLOW_SCHEDULER_GRAPH_SCHEDULER_H_
#define FAASFLOW_SCHEDULER_GRAPH_SCHEDULER_H_

#include <cstdint>
#include <set>
#include <vector>

#include "cluster/function.h"
#include "common/rng.h"
#include "common/units.h"
#include "scheduler/feedback.h"
#include "scheduler/partition.h"
#include "scheduler/placement.h"
#include "workflow/dag.h"

namespace faasflow::scheduler {

/**
 * The master-node Graph Scheduler (§4.1): resolves parsed workflows into
 * placements. The first partition iteration is hash based; subsequent
 * iterations run Algorithm 1 with the runtime feedback FaaStore
 * collected (edge 99%-ile latencies, Scale(v)) and each node's static
 * Map(v).
 *
 * The scheduler is deliberately stateless across workflows — per-workflow
 * deployment state (versions, in-flight counts) lives in the engines so
 * the master stays a pure partitioner under WorkerSP.
 */
class GraphScheduler
{
  public:
    struct Config
    {
        /** Container size used to convert node memory into Cap[node]. */
        int64_t container_size = 256 * kMB;
        /** Eq. 1 safety margin mu. */
        int64_t headroom = 32 * kMiB;
        /** cont(G): function pairs that must not share a group. */
        std::set<ContentionPair> contention;
        /** Localized-edge bandwidth for critical-path relaxation. */
        double local_copy_bandwidth = 2e9;
        /**
         * Upper bound on the container slots one workflow may plan onto
         * a single worker. Real platforms reserve node capacity for
         * prewarm pools and co-tenants, so Cap[node] is far below the
         * raw memory-derived slot count; this is what spreads 50-node
         * scientific workflows across workers (Fig. 15).
         */
        int capacity_cap = 36;
        /** Seed for the random initial group assignment. */
        uint64_t seed = 42;
    };

    GraphScheduler(const cluster::FunctionRegistry& registry, Config config);
    explicit GraphScheduler(const cluster::FunctionRegistry& registry);

    /**
     * First-iteration placement: hash partition (no feedback yet).
     * @param worker_count workers available to this workflow
     */
    Placement initialPlacement(const workflow::Dag& dag,
                               int worker_count) const;

    /**
     * One partition iteration (§4.1.2): applies the feedback's edge
     * weights to the DAG, recomputes Quota(G), and runs Algorithm 1.
     * @param capacities container slots left per worker (Cap[node])
     * @param previous_version the active red-black version; the result
     *        carries previous_version + 1
     */
    Placement iterate(workflow::Dag& dag, const RuntimeFeedback& feedback,
                      std::vector<int> capacities, int previous_version);

    /**
     * Quota(G) by Eq. (2): reclaimable memory summed over the workflow's
     * task nodes, weighted by each node's Map(v) (its foreach width).
     */
    int64_t computeQuota(const workflow::Dag& dag) const;

    const Config& config() const { return config_; }

  private:
    const cluster::FunctionRegistry& registry_;
    Config config_;
    Rng rng_;
};

}  // namespace faasflow::scheduler

#endif  // FAASFLOW_SCHEDULER_GRAPH_SCHEDULER_H_
