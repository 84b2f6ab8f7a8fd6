#ifndef FAASFLOW_STORAGE_FAASTORE_H_
#define FAASFLOW_STORAGE_FAASTORE_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "cluster/container_pool.h"
#include "cluster/node.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "storage/mem_store.h"
#include "storage/remote_store.h"

namespace faasflow::storage {

/**
 * The adaptive hybrid storage library of §3.2/§4.3: one instance per
 * worker node, co-designed with the worker engine.
 *
 * Data produced by a function is saved to the node-local MemStore when
 * (a) the engine knows every consumer is co-located (`prefer_local`,
 * derived from Algorithm 1's StorageType decision) and (b) the
 * workflow's reclaimed-memory quota has room. Otherwise the object goes
 * to the remote store. The quota comes from memory *reclamation* —
 * over-provisioned container memory (Eq. 1–2) — so FaaStore never adds
 * net memory pressure on the node.
 */
class FaaStore
{
  public:
    /** Function isolation technology (§4.3.2). */
    enum class Sandbox {
        Container,  ///< runc-style containers: cgroup limits shrinkable
        MicroVM     ///< Firecracker-style VMs: no memory hot-unplug
    };

    struct Config
    {
        /** Safety margin mu left inside each container (Eq. 1). */
        int64_t headroom = 32 * kMiB;
        MemStore::Config mem;

        /**
         * With MicroVM sandboxes, dynamic memory hot-unplug (ballooning,
         * virtio-mem) is avoided for its overhead and instability; the
         * in-memory store is instead built into the VMs. Reclamation
         * becomes a no-op and local accesses pay a vsock hop.
         */
        Sandbox sandbox = Sandbox::Container;

        /** Extra per-operation latency of cross-VM (vsock) access. */
        SimTime microvm_access_latency = SimTime::micros(250);
    };

    FaaStore(sim::Simulator& sim, cluster::WorkerNode& node,
             RemoteStore& remote, Config config);
    FaaStore(sim::Simulator& sim, cluster::WorkerNode& node,
             RemoteStore& remote);

    /**
     * Eq. (1): over-provisioned memory reclaimable from one function
     * node, O(v) = max(Mem(v) - S - mu, 0) * Map(v).
     */
    static int64_t overProvision(const cluster::FunctionSpec& spec,
                                 double map_factor, int64_t headroom);

    /**
     * Eq. (2): the in-memory quota of a function group — the sum of
     * O(v) over its members. `members` pairs each function spec with its
     * node's Map(v), the foreach width.
     */
    static int64_t
    groupQuota(const std::vector<std::pair<const cluster::FunctionSpec*,
                                           double>>& members,
               int64_t headroom);

    /**
     * Creates (or resizes) the memory pool backing one workflow's local
     * data, reserving the bytes from the node budget. Returns false when
     * the node cannot cover the quota (the pool is then left at its
     * previous size).
     */
    bool allocatePool(const std::string& workflow, int64_t quota);

    /** Releases a workflow's pool back to the node. */
    void releasePool(const std::string& workflow);

    int64_t poolQuota(const std::string& workflow) const;
    int64_t poolUsed(const std::string& workflow) const;

    /**
     * Saves a function output. Local placement is attempted only when
     * `prefer_local`; on quota pressure the object falls back to the
     * remote store transparently.
     * @param on_done receives elapsed time and whether the object landed
     *                in local memory
     * @param cause trace span causing the save (remote fallbacks record
     *              a storage span flowing from it; local hits are
     *              in-memory and stay untraced)
     */
    void save(const std::string& workflow, const std::string& key,
              int64_t bytes, bool prefer_local,
              std::function<void(SimTime, bool local)> on_done,
              obs::SpanId cause = 0);

    /** True when `key` lives in this node's MemStore. */
    bool hasLocal(const std::string& key) const;

    /** Reads an object from wherever it lives (local first). Remote
     *  reads record a storage span flowing back into `cause`. */
    void fetch(const std::string& key, GetCallback on_done,
               obs::SpanId cause = 0);

    /** Drops an object (end-of-invocation cleanup, §4.2.1). */
    void drop(const std::string& workflow, const std::string& key);

    /**
     * The owning node crashed: all local objects are lost (each pool's
     * `used` resets to zero) but quota reservations persist on the node
     * ledger — they encode the partitioner's plan, which the recovered
     * node re-attaches to. Objects that lived only here must be
     * re-produced by the recovery machinery; fetches fall back to the
     * remote store automatically.
     */
    void onNodeCrash();

    /**
     * Applies the simulated cgroup shrink of §4.3.2 to a container:
     * its limit drops to peak + headroom, releasing the over-provisioned
     * memory back to the node (where allocatePool can pick it up).
     */
    void reclaimContainerMemory(cluster::ContainerPool& pool,
                                cluster::Container* container,
                                const cluster::FunctionSpec& spec) const;

    MemStore& memStore() { return *mem_; }
    RemoteStore& remoteStore() { return remote_; }

    /** Counters for the evaluation: how many saves went local/remote. */
    uint64_t localSaves() const { return local_saves_; }
    uint64_t remoteSaves() const { return remote_saves_; }
    uint64_t quotaRejections() const { return quota_rejections_; }

  private:
    struct Pool
    {
        int64_t quota = 0;
        int64_t used = 0;
    };

    sim::Simulator& sim_;
    cluster::WorkerNode& node_;
    RemoteStore& remote_;
    Config config_;
    std::unique_ptr<MemStore> mem_;
    std::unordered_map<std::string, Pool, StringHash, std::equal_to<>>
        pools_;
    /** Owning workflow of each locally stored key. */
    std::unordered_map<std::string, std::string, StringHash,
                       std::equal_to<>>
        key_workflow_;
    uint64_t local_saves_ = 0;
    uint64_t remote_saves_ = 0;
    uint64_t quota_rejections_ = 0;
};

}  // namespace faasflow::storage

#endif  // FAASFLOW_STORAGE_FAASTORE_H_
