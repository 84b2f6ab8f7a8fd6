#include "scheduler/graph_scheduler.h"

#include <algorithm>

#include "storage/faastore.h"

namespace faasflow::scheduler {

GraphScheduler::GraphScheduler(const cluster::FunctionRegistry& registry,
                               Config config)
    : registry_(registry), config_(config), rng_(config.seed)
{
}

GraphScheduler::GraphScheduler(const cluster::FunctionRegistry& registry)
    : GraphScheduler(registry, Config{})
{
}

Placement
GraphScheduler::initialPlacement(const workflow::Dag& dag,
                                 int worker_count) const
{
    return hashPartition(dag, worker_count, 0);
}

int64_t
GraphScheduler::computeQuota(const workflow::Dag& dag) const
{
    std::vector<std::pair<const cluster::FunctionSpec*, double>> members;
    for (const auto& node : dag.nodes()) {
        if (!node.isTask())
            continue;
        members.emplace_back(&registry_.get(node.function),
                             static_cast<double>(node.foreach_width));
    }
    return storage::FaaStore::groupQuota(members, config_.headroom);
}

Placement
GraphScheduler::iterate(workflow::Dag& dag, const RuntimeFeedback& feedback,
                        std::vector<int> capacities, int previous_version)
{
    feedback.applyEdgeWeights(dag);

    PartitionContext context;
    context.capacity = std::move(capacities);
    context.quota = computeQuota(dag);
    context.contention = config_.contention;
    context.local_copy_bandwidth = config_.local_copy_bandwidth;

    GreedyGrouper grouper(dag, registry_, feedback, std::move(context),
                          rng_.split());
    return grouper.run(previous_version + 1);
}

}  // namespace faasflow::scheduler
