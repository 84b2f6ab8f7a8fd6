#ifndef FAASFLOW_STORAGE_REMOTE_STORE_H_
#define FAASFLOW_STORAGE_REMOTE_STORE_H_

#include <string>
#include <unordered_map>

#include "common/string_util.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "storage/kv_store.h"

namespace faasflow::storage {

/**
 * The remote key-value database (the paper's CouchDB on the storage
 * node). Every put ships the object over the writer's and the storage
 * node's NICs as a bulk flow; every get ships it back. Transfers
 * therefore contend for the storage node's bandwidth — the bottleneck
 * the paper throttles with wondershaper in §5.4.
 */
class RemoteStore
{
  public:
    struct Config
    {
        /** Fixed per-operation latency (request handling, indexing). */
        SimTime op_latency = SimTime::millis(2.0);
    };

    RemoteStore(sim::Simulator& sim, net::Network& network,
                net::NodeId storage_node, Config config);
    RemoteStore(sim::Simulator& sim, net::Network& network,
                net::NodeId storage_node);

    /**
     * Stores `bytes` under `key`, overwriting any previous object, and
     * ships them from `from_node` to the storage node. With a trace
     * attached, records a "storage" span on the Storage track for the
     * operation's lifetime with a flow arrow from `cause` (the producer
     * shipping its output); `cause` 0 records the span without arrows.
     */
    void put(const std::string& key, int64_t bytes, int from_node,
             PutCallback on_done, obs::SpanId cause = 0);

    /**
     * Reads the object under `key` back to `to_node`; a missing key is a
     * protocol bug in the engine and panics. Traced like put(), with the
     * arrow running from the get back into `cause` (the data arriving at
     * the consumer).
     */
    void get(const std::string& key, int to_node, GetCallback on_done,
             obs::SpanId cause = 0);

    /** Attaches the activity recorder (see put/get). */
    void setTrace(obs::TraceRecorder* trace) { trace_ = trace; }
    bool contains(const std::string& key) const;

    /** Drops a key; no-op when absent. */
    void erase(const std::string& key);

    const StoreStats& stats() const { return stats_; }

    size_t objectCount() const { return objects_.size(); }
    int64_t storedBytes() const;

    /** Brown-out injection: multiplies the per-operation latency while a
     *  storage fault window is open. Must be >= 1; 1 restores health. */
    void setDegradeFactor(double factor);
    double degradeFactor() const { return degrade_factor_; }

  private:
    sim::Simulator& sim_;
    net::Network& network_;
    net::NodeId storage_node_;
    Config config_;
    double degrade_factor_ = 1.0;
    obs::TraceRecorder* trace_ = nullptr;
    /** Key -> simulated size (transfer billing unit). */
    std::unordered_map<std::string, int64_t, StringHash, std::equal_to<>>
        objects_;
    StoreStats stats_;

    SimTime opLatency() const;
};

}  // namespace faasflow::storage

#endif  // FAASFLOW_STORAGE_REMOTE_STORE_H_
