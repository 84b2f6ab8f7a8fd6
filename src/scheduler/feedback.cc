#include "scheduler/feedback.h"

namespace faasflow::scheduler {

void
RuntimeFeedback::recordScale(const std::string& node_name, double instances)
{
    scale_[node_name].add(instances);
}

void
RuntimeFeedback::recordEdgeLatency(size_t edge_idx, SimTime latency)
{
    edge_latency_[edge_idx].add(static_cast<double>(latency.micros()));
}

double
RuntimeFeedback::scale(const std::string& node_name) const
{
    const auto it = scale_.find(node_name);
    if (it == scale_.end() || it->second.count() == 0)
        return 1.0;
    return std::max(1.0, it->second.mean());
}

void
RuntimeFeedback::applyEdgeWeights(workflow::Dag& dag) const
{
    for (const auto& [idx, samples] : edge_latency_) {
        if (idx < dag.edgeCount() && samples.count() > 0) {
            dag.edge(idx).weight =
                SimTime::micros(static_cast<int64_t>(samples.p99()));
        }
    }
}

void
RuntimeFeedback::clear()
{
    scale_.clear();
    edge_latency_.clear();
}

}  // namespace faasflow::scheduler
