#ifndef FAASFLOW_CLUSTER_CONTAINER_H_
#define FAASFLOW_CLUSTER_CONTAINER_H_

#include <cstdint>
#include <string>

#include "common/sim_time.h"

namespace faasflow::cluster {

/** Lifecycle of a function container. */
enum class ContainerState {
    Starting,  ///< cold start in progress
    Idle,      ///< warm, ready for reuse
    Busy,      ///< executing an invocation
    Destroyed  ///< evicted (lifetime expiry or red-black recycle)
};

/**
 * One container instance bound to a single function on a single node.
 *
 * The engine never manipulates containers directly; ContainerPool hands
 * them out and takes them back. `mem_limit` starts at the function's
 * provisioned size and can be shrunk by FaaStore's reclamation (the
 * simulated cgroup limit update of §4.3.2).
 */
class Container
{
  public:
    Container(uint64_t id, std::string function, int64_t mem_limit)
        : id_(id), function_(std::move(function)), mem_limit_(mem_limit)
    {
    }

    uint64_t id() const { return id_; }
    const std::string& function() const { return function_; }
    ContainerState state() const { return state_; }
    int64_t memLimit() const { return mem_limit_; }

    /** Number of invocations this container has served (warm reuses). */
    uint64_t useCount() const { return use_count_; }

    SimTime lastUsed() const { return last_used_; }

  private:
    friend class ContainerPool;

    uint64_t id_;
    std::string function_;
    int64_t mem_limit_;
    ContainerState state_ = ContainerState::Starting;
    uint64_t use_count_ = 0;
    SimTime last_used_;
    bool recycle_on_release_ = false;
};

}  // namespace faasflow::cluster

#endif  // FAASFLOW_CLUSTER_CONTAINER_H_
