#ifndef FAASFLOW_STORAGE_KV_STORE_H_
#define FAASFLOW_STORAGE_KV_STORE_H_

#include <cstdint>
#include <functional>

#include "common/sim_time.h"

namespace faasflow::storage {

// Types shared by the remote CouchDB stand-in (RemoteStore) and the
// node-local Redis stand-in (MemStore). Both model an object by its
// simulated size alone: `bytes` is the billing unit for capacity and
// transfer time.

/** Completion callback for a put: elapsed transfer+operation time. */
using PutCallback = std::function<void(SimTime elapsed)>;

/** Completion callback for a get: elapsed time and the object's
 *  simulated size. */
using GetCallback = std::function<void(SimTime elapsed, int64_t bytes)>;

/** Aggregate traffic counters for a store. */
struct StoreStats
{
    uint64_t puts = 0;
    uint64_t gets = 0;
    int64_t bytes_written = 0;
    int64_t bytes_read = 0;
};

}  // namespace faasflow::storage

#endif  // FAASFLOW_STORAGE_KV_STORE_H_
