#include "scheduler/placement.h"

namespace faasflow::scheduler {

bool
Placement::allConsumersLocal(const workflow::DagIndex& index,
                             workflow::NodeId origin) const
{
    const auto& consumers = index.consumers[static_cast<size_t>(origin)];
    const int home = workerOf(origin);
    for (const workflow::NodeId to : consumers) {
        if (workerOf(to) != home)
            return false;
    }
    return !consumers.empty();
}

std::vector<int>
Placement::nodesPerWorker(int worker_count) const
{
    std::vector<int> counts(static_cast<size_t>(worker_count), 0);
    for (const int w : worker_of) {
        if (w >= 0 && w < worker_count)
            ++counts[static_cast<size_t>(w)];
    }
    return counts;
}

}  // namespace faasflow::scheduler
