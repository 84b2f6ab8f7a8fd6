#ifndef FAASFLOW_CLUSTER_CONTAINER_POOL_H_
#define FAASFLOW_CLUSTER_CONTAINER_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/container.h"
#include "cluster/function.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/string_util.h"
#include "sim/simulator.h"

namespace faasflow::cluster {

/** Result metadata handed to the engine with each acquired container. */
struct AcquireResult
{
    Container* container = nullptr;
    bool cold_start = false;
    SimTime queue_delay;  ///< time spent waiting for a container/slot
};

/**
 * Idle-container retention policies (cold-start mitigation; the paper's
 * related work discusses these as orthogonal to FaaSFlow).
 */
enum class KeepAlivePolicy {
    FixedLifetime,  ///< evict after an idle lifetime (the paper's 600 s)
    GreedyDual,     ///< FaasCache: evict lowest (uses x cold-cost / size)
                    ///< priority idle container only under memory pressure
    NeverEvict,     ///< keep warm forever (upper bound)
    AlwaysCold      ///< destroy on release (lower bound, no reuse)
};

/**
 * Per-node container pool implementing the paper's container policy:
 * warm reuse, cold start on miss, a 600 s idle lifetime, and a cap of 10
 * containers per function per node. Memory for containers is reserved
 * from the owning node (callbacks below), so the pool also implements
 * the node-capacity constraint the Graph Scheduler plans against.
 */
class ContainerPool
{
  public:
    struct Config
    {
        SimTime cold_start_mean = SimTime::millis(600);
        double cold_start_sigma = 0.10;  ///< lognormal jitter
        SimTime container_lifetime = SimTime::seconds(600);
        int per_function_limit = 10;
        KeepAlivePolicy keep_alive = KeepAlivePolicy::FixedLifetime;
    };

    /**
     * @param reserve_memory returns false when the node lacks capacity
     * @param release_memory returns memory to the node
     */
    ContainerPool(sim::Simulator& sim, const FunctionRegistry& registry,
                  Config config, Rng rng,
                  std::function<bool(int64_t)> reserve_memory,
                  std::function<void(int64_t)> release_memory);

    ~ContainerPool();

    ContainerPool(const ContainerPool&) = delete;
    ContainerPool& operator=(const ContainerPool&) = delete;

    /**
     * Requests a container for `function`. The callback fires when one is
     * available: instantly for a warm hit, after the cold-start delay for
     * a fresh container, or later if queued behind limits.
     */
    void acquire(const std::string& function,
                 std::function<void(AcquireResult)> on_ready);

    /**
     * Node crash: every container (idle, starting or busy) is destroyed,
     * its memory returned, and queued acquisitions are dropped — their
     * executors abandon via the owning node's crash epoch. Cold-start
     * completions already scheduled before the crash are invalidated so
     * they cannot resurrect containers on the dead node.
     */
    void crash();

    /** Returns a Busy container to Idle; serves the wait queue. */
    void release(Container* container);

    /** Returns a Busy container whose execution crashed: the sandbox is
     *  destroyed instead of kept warm (a crashed runtime is not safe to
     *  reuse); the wait queue is served with the freed memory. */
    void releaseCrashed(Container* container);

    /**
     * Shrinks a container's cgroup memory limit (FaaStore reclamation);
     * the delta goes back to the node. `new_limit` must not exceed the
     * current limit.
     */
    void shrinkMemLimit(Container* container, int64_t new_limit);

    /**
     * Red-black recycle scoped to one function (used when a partition
     * iteration moves a function to another worker without disturbing
     * co-located workflows): idle/starting containers are destroyed now,
     * busy ones as soon as their in-flight task returns.
     */
    void recycleFunction(const std::string& function);

    /**
     * Reactive scale-up: starts up to `count` containers for `function`
     * ahead of demand (they cold-start now and join the idle set, so
     * later acquisitions hit warm). Respects the per-function limit and
     * node memory like any other creation; waiters queued for the
     * function are served as the prewarmed containers come up. Returns
     * how many starts were actually initiated.
     */
    int prewarm(const std::string& function, int count);

    /**
     * Reactive scale-down: destroys idle containers of `function` beyond
     * `keep`, coldest (least-recently-used) first, returning their
     * memory to the node (which may unblock waiters of other functions).
     * Returns how many were destroyed.
     */
    int trimIdle(const std::string& function, int keep);

    /** Waiters queued for `function` specifically. */
    size_t waitersFor(const std::string& function) const;

    /** Prewarm starts initiated / idle containers trimmed (autoscaler
     *  observability; prewarms are not counted in coldStarts()). */
    uint64_t prewarmStarts() const { return prewarm_starts_; }
    uint64_t idleTrims() const { return idle_trims_; }

    int containerCount(const std::string& function) const;
    int totalContainers() const;
    int busyContainers(const std::string& function) const;
    size_t waitQueueDepth() const { return wait_queue_.size(); }

    /** Idle (warm) containers across every function — the warm half of
     *  the telemetry warm/total container gauge pair. */
    int idleContainers() const
    {
        int n = 0;
        for (const auto& [fn, idx] : fn_index_)
            n += static_cast<int>(idx.idle.size());
        return n;
    }

    /** Time-weighted average of busy containers for `function` since the
     *  pool was built — the paper's Scale(v) feedback. */
    double averageConcurrency(const std::string& function) const;

    /** Peak concurrent busy containers since the pool was built. */
    int peakConcurrency(const std::string& function) const;

    uint64_t coldStarts() const { return cold_starts_; }
    uint64_t warmHits() const { return warm_hits_; }
    uint64_t pressureEvictions() const { return pressure_evictions_; }

  private:
    struct Waiter
    {
        std::string function;
        SimTime enqueue_time;
        std::function<void(AcquireResult)> on_ready;
    };

    struct FunctionStats
    {
        int busy = 0;
        int peak = 0;
        double busy_integral = 0.0;  ///< busy-count x seconds
        SimTime last_change;
    };

    /** Per-function view of the pool so the acquire path never scans
     *  unrelated containers: `idle` holds exactly the Idle containers of
     *  the function (unordered; selection applies its own tie-break) and
     *  `count` tracks the per-function limit. */
    struct FnIndex
    {
        std::vector<Container*> idle;
        int count = 0;
    };

    sim::Simulator& sim_;
    const FunctionRegistry& registry_;
    Config config_;
    Rng rng_;
    std::function<bool(int64_t)> reserve_memory_;
    std::function<void(int64_t)> release_memory_;

    std::map<uint64_t, std::unique_ptr<Container>> containers_;
    std::deque<Waiter> wait_queue_;
    std::unordered_map<std::string, FunctionStats, StringHash,
                       std::equal_to<>>
        stats_;
    std::unordered_map<std::string, FnIndex, StringHash, std::equal_to<>>
        fn_index_;
    uint64_t next_id_ = 1;
    uint64_t crash_epoch_ = 0;
    uint64_t cold_starts_ = 0;
    uint64_t warm_hits_ = 0;
    uint64_t pressure_evictions_ = 0;
    uint64_t prewarm_starts_ = 0;
    uint64_t idle_trims_ = 0;
    SimTime stats_epoch_;

    Container* findIdle(const std::string& function);

    void addIdle(Container* container);
    void removeIdle(Container* container);

    /**
     * GreedyDual: frees memory by evicting the idle container with the
     * lowest keep-alive priority (use frequency x cold-start cost /
     * memory size) until `bytes_needed` fit or no idle container is
     * left. Returns true when the space was freed.
     */
    bool evictForSpace(int64_t bytes_needed);

    /** Attempts to create a container; consumes `on_ready` only when it
     *  returns true (limits and memory permitting). */
    bool tryCreate(const std::string& function,
                   std::function<void(AcquireResult)>& on_ready,
                   SimTime queued_since);
    void destroy(Container* container);
    void scheduleLifetimeCheck(Container* container);
    void serveWaiters();
    void noteBusyChange(const std::string& function, int delta);
};

}  // namespace faasflow::cluster

#endif  // FAASFLOW_CLUSTER_CONTAINER_POOL_H_
