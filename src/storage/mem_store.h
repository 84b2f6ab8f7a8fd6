#ifndef FAASFLOW_STORAGE_MEM_STORE_H_
#define FAASFLOW_STORAGE_MEM_STORE_H_

#include <string>
#include <unordered_map>

#include "common/string_util.h"
#include "sim/simulator.h"
#include "storage/kv_store.h"

namespace faasflow::storage {

/**
 * Node-local in-memory object store (the paper's Redis instance on each
 * worker). Reads and writes cost a small operation latency plus a
 * memory-bandwidth copy — no network involvement. Capacity is bounded:
 * FaaStore sizes it with the reclaimed-memory quota (Eq. 2) and callers
 * must check tryReserve() before writing.
 */
class MemStore
{
  public:
    struct Config
    {
        /** Per-operation latency (local Redis round trip). */
        SimTime op_latency = SimTime::micros(120);
        /** Copy bandwidth between container and store memory, bytes/s. */
        double copy_bandwidth = 2e9;
    };

    MemStore(sim::Simulator& sim, int64_t capacity, Config config);
    MemStore(sim::Simulator& sim, int64_t capacity);

    /** Returns true and reserves space when `bytes` fit under capacity. */
    bool tryReserve(int64_t bytes);

    /** Grows/shrinks capacity (quota re-computation between partition
     *  iterations). Shrinking below current usage is allowed; the store
     *  just refuses new writes until usage drains. */
    void setCapacity(int64_t capacity) { capacity_ = capacity; }

    int64_t capacity() const { return capacity_; }
    int64_t usedBytes() const { return used_; }

    /** Drops every object and outstanding reservation (node crash: the
     *  DRAM contents are simply gone). Capacity is left untouched. */
    void clear();

    /** Stores `bytes` under `key`, overwriting any previous object. A
     *  new key must have been reserved with tryReserve(). */
    void put(const std::string& key, int64_t bytes, PutCallback on_done);

    /** Reads the object under `key`; a missing key panics. */
    void get(const std::string& key, GetCallback on_done);

    bool contains(const std::string& key) const;

    /** Drops a key; no-op when absent. */
    void erase(const std::string& key);

    const StoreStats& stats() const { return stats_; }

    size_t objectCount() const { return objects_.size(); }

  private:
    sim::Simulator& sim_;
    int64_t capacity_;
    Config config_;
    int64_t used_ = 0;
    int64_t reserved_ = 0;  ///< reserved but not yet written
    /** Key -> simulated size (capacity and billing unit). */
    std::unordered_map<std::string, int64_t, StringHash, std::equal_to<>>
        objects_;
    StoreStats stats_;
};

}  // namespace faasflow::storage

#endif  // FAASFLOW_STORAGE_MEM_STORE_H_
