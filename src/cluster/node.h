#ifndef FAASFLOW_CLUSTER_NODE_H_
#define FAASFLOW_CLUSTER_NODE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "cluster/container_pool.h"
#include "cluster/function.h"
#include "common/units.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace faasflow::cluster {

/**
 * A worker machine: CPU cores, DRAM, a NIC (registered with the network),
 * and a container pool. Matches the paper's ecs.g7.2xlarge workers:
 * 8 cores, 32 GB DRAM.
 *
 * CPU is modelled as a counting semaphore with a FIFO run queue: each
 * executing function occupies one core (the paper caps containers at
 * 1 core). Memory is a byte budget shared by container reservations and
 * FaaStore's reclaimed in-memory pool.
 */
class WorkerNode
{
  public:
    struct Config
    {
        int cores = 8;
        int64_t memory = 32LL * kGiB;
        /** Memory kept back for OS + engine (the paper's engine uses
         *  47 MB; we also hold out kernel/daemon overhead). */
        int64_t reserved_memory = 1 * kGiB;
        ContainerPool::Config pool;
    };

    WorkerNode(sim::Simulator& sim, const FunctionRegistry& registry,
               net::NodeId net_id, std::string name, Config config, Rng rng);

    net::NodeId netId() const { return net_id_; }
    const std::string& name() const { return name_; }
    const Config& config() const { return config_; }

    ContainerPool& pool() { return *pool_; }
    const ContainerPool& pool() const { return *pool_; }

    /**
     * Power-loss crash: every container and queued core grant is lost
     * and the crash epoch advances, so asynchronous completions that
     * were in flight for this node abandon themselves on resume.
     * Memory held by containers returns to the ledger; FaaStore pool
     * reservations stay (the recovered node re-attaches to the same
     * partition plan). The caller flips `setAlive(true)` on recovery.
     */
    void crash();
    void setAlive(bool alive) { alive_ = alive; }
    bool alive() const { return alive_; }
    uint64_t crashEpoch() const { return crash_epoch_; }

    /** Grants one core to `granted`, FIFO when all cores are busy. */
    void acquireCore(std::function<void()> granted);

    /** Releases a core previously granted. */
    void releaseCore();

    int coresInUse() const { return cores_in_use_; }
    int coresTotal() const { return config_.cores; }
    size_t runQueueDepth() const { return core_waiters_.size(); }

    /** Reserves memory from the node budget; false when insufficient. */
    bool reserveMemory(int64_t bytes);
    void releaseMemory(int64_t bytes);

    int64_t memoryFree() const;
    int64_t memoryUsed() const { return memory_used_; }
    int64_t memoryCapacity() const;

    /**
     * Container slots that can still be created on this node, assuming
     * the registry-wide default container size — the Cap[node] input to
     * Algorithm 1.
     */
    int containerCapacityLeft(int64_t container_size) const;

  private:
    sim::Simulator& sim_;
    net::NodeId net_id_;
    std::string name_;
    Config config_;
    std::unique_ptr<ContainerPool> pool_;

    bool alive_ = true;
    uint64_t crash_epoch_ = 0;
    int cores_in_use_ = 0;
    std::deque<std::function<void()>> core_waiters_;
    int64_t memory_used_ = 0;

    void noteCpuChange(int delta);
};

}  // namespace faasflow::cluster

#endif  // FAASFLOW_CLUSTER_NODE_H_
