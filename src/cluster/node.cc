#include "cluster/node.h"

#include <cassert>

#include "common/logging.h"

namespace faasflow::cluster {

WorkerNode::WorkerNode(sim::Simulator& sim, const FunctionRegistry& registry,
                       net::NodeId net_id, std::string name, Config config,
                       Rng rng)
    : sim_(sim), net_id_(net_id), name_(std::move(name)), config_(config)
{
    pool_ = std::make_unique<ContainerPool>(
        sim, registry, config.pool, rng,
        [this](int64_t bytes) { return reserveMemory(bytes); },
        [this](int64_t bytes) { releaseMemory(bytes); });
}

void
WorkerNode::crash()
{
    ++crash_epoch_;
    alive_ = false;
    core_waiters_.clear();
    cores_in_use_ = 0;
    pool_->crash();
}

void
WorkerNode::acquireCore(std::function<void()> granted)
{
    if (cores_in_use_ < config_.cores) {
        noteCpuChange(+1);
        // Asynchronous grant keeps caller stacks shallow and uniform.
        sim_.schedule(SimTime::zero(), std::move(granted));
    } else {
        core_waiters_.push_back(std::move(granted));
    }
}

void
WorkerNode::releaseCore()
{
    if (cores_in_use_ <= 0)
        panic("releaseCore with no core in use on %s", name_.c_str());
    if (!core_waiters_.empty()) {
        // Hand the core straight to the next waiter; utilisation unchanged.
        auto next = std::move(core_waiters_.front());
        core_waiters_.pop_front();
        sim_.schedule(SimTime::zero(), std::move(next));
    } else {
        noteCpuChange(-1);
    }
}

void
WorkerNode::noteCpuChange(int delta)
{
    cores_in_use_ += delta;
    assert(cores_in_use_ >= 0 && cores_in_use_ <= config_.cores);
}

bool
WorkerNode::reserveMemory(int64_t bytes)
{
    assert(bytes >= 0);
    if (memory_used_ + bytes > memoryCapacity())
        return false;
    memory_used_ += bytes;
    return true;
}

void
WorkerNode::releaseMemory(int64_t bytes)
{
    assert(bytes >= 0);
    if (bytes > memory_used_)
        panic("releaseMemory underflow on %s", name_.c_str());
    memory_used_ -= bytes;
}

int64_t
WorkerNode::memoryCapacity() const
{
    return config_.memory - config_.reserved_memory;
}

int64_t
WorkerNode::memoryFree() const
{
    return memoryCapacity() - memory_used_;
}

int
WorkerNode::containerCapacityLeft(int64_t container_size) const
{
    if (container_size <= 0)
        return 0;
    return static_cast<int>(memoryFree() / container_size);
}

}  // namespace faasflow::cluster
