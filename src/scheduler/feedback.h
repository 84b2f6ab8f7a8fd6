#ifndef FAASFLOW_SCHEDULER_FEEDBACK_H_
#define FAASFLOW_SCHEDULER_FEEDBACK_H_

#include <map>
#include <string>

#include "common/sim_time.h"
#include "common/stats.h"
#include "workflow/dag.h"

namespace faasflow::scheduler {

/**
 * Runtime metrics FaaStore collects during a partition iteration
 * (§4.1.2): the average container scale of each function node and
 * per-edge transmission latency samples whose 99%-ile becomes the next
 * iteration's edge weight. A foreach node's executor map, Map(v), is
 * its static foreach width, so it is read from the DAG, not collected.
 */
class RuntimeFeedback
{
  public:
    /** Records an observation of a node's concurrent container count. */
    void recordScale(const std::string& node_name, double instances);

    /** Records one transmission latency sample for edge `edge_idx`. */
    void recordEdgeLatency(size_t edge_idx, SimTime latency);

    /** Scale(v): average scaled instances, default 1 with no samples. */
    double scale(const std::string& node_name) const;

    /** Whether any edge latency samples exist. */
    bool hasEdgeSamples() const { return !edge_latency_.empty(); }

    /**
     * Applies the collected 99%-ile latencies onto the DAG's edge
     * weights (edges without samples keep their previous weight).
     */
    void applyEdgeWeights(workflow::Dag& dag) const;

    void clear();

  private:
    std::map<std::string, Summary> scale_;
    std::map<size_t, Percentiles> edge_latency_;
};

}  // namespace faasflow::scheduler

#endif  // FAASFLOW_SCHEDULER_FEEDBACK_H_
