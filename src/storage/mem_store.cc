#include "storage/mem_store.h"

#include "common/logging.h"

namespace faasflow::storage {

MemStore::MemStore(sim::Simulator& sim, int64_t capacity, Config config)
    : sim_(sim), capacity_(capacity), config_(config)
{
}

MemStore::MemStore(sim::Simulator& sim, int64_t capacity)
    : MemStore(sim, capacity, Config{})
{
}

bool
MemStore::tryReserve(int64_t bytes)
{
    if (used_ + reserved_ + bytes > capacity_)
        return false;
    reserved_ += bytes;
    return true;
}

void
MemStore::clear()
{
    objects_.clear();
    used_ = 0;
    reserved_ = 0;
}

void
MemStore::put(const std::string& key, int64_t bytes, PutCallback on_done)
{
    // Callers must have reserved space; the overwrite case reuses the
    // existing allocation.
    const auto it = objects_.find(key);
    if (it != objects_.end()) {
        used_ -= it->second;
        it->second = bytes;
    } else {
        if (reserved_ < bytes)
            panic("mem store: put('%s') without a reservation", key.c_str());
        reserved_ -= bytes;
        objects_.emplace(key, bytes);
    }
    used_ += bytes;
    stats_.puts++;
    stats_.bytes_written += bytes;

    const SimTime start = sim_.now();
    const SimTime copy = SimTime::seconds(static_cast<double>(bytes) /
                                          config_.copy_bandwidth);
    sim_.schedule(config_.op_latency + copy, [this, start,
                                              cb = std::move(on_done)] {
        if (cb)
            cb(sim_.now() - start);
    });
}

void
MemStore::get(const std::string& key, GetCallback on_done)
{
    const auto it = objects_.find(key);
    if (it == objects_.end())
        panic("mem store: get of missing key '%s'", key.c_str());
    const int64_t bytes = it->second;
    stats_.gets++;
    stats_.bytes_read += bytes;

    const SimTime start = sim_.now();
    const SimTime copy = SimTime::seconds(static_cast<double>(bytes) /
                                          config_.copy_bandwidth);
    sim_.schedule(config_.op_latency + copy,
                  [this, start, bytes, cb = std::move(on_done)] {
                      if (cb)
                          cb(sim_.now() - start, bytes);
                  });
}

bool
MemStore::contains(const std::string& key) const
{
    return objects_.count(key) > 0;
}

void
MemStore::erase(const std::string& key)
{
    const auto it = objects_.find(key);
    if (it == objects_.end())
        return;
    used_ -= it->second;
    objects_.erase(it);
}

}  // namespace faasflow::storage
