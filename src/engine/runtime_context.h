#ifndef FAASFLOW_ENGINE_RUNTIME_CONTEXT_H_
#define FAASFLOW_ENGINE_RUNTIME_CONTEXT_H_

#include <vector>

#include "cluster/cluster.h"
#include "common/sim_time.h"
#include "engine/modes.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "storage/faastore.h"
#include "storage/remote_store.h"

namespace faasflow::storage {
class ProgressLog;
}

namespace faasflow::obs {
class ProfileStore;
}

namespace faasflow::engine {

/**
 * Control-plane latency model shared by both engines; the constants are
 * calibrated so MasterSP/WorkerSP overhead shapes match §2.3 and §5.2
 * (see DESIGN.md "Calibration").
 */
struct EngineConfig
{
    /** Per-event service time of the central (HyperFlow) engine. The
     *  Node.js engine also persists state transitions, so this is
     *  milliseconds-scale. */
    SimTime master_service_mean = SimTime::millis(12.0);
    double master_service_sigma = 0.25;

    /** Per-event service time of a per-worker engine (gevent). */
    SimTime worker_service_mean = SimTime::millis(6.0);
    double worker_service_sigma = 0.20;

    /** Inner-RPC latency for triggering a co-located function (§3.1). */
    SimTime local_trigger_latency = SimTime::micros(500);

    /** Control message payloads. */
    int64_t state_msg_bytes = 512;    ///< cross-worker state update
    int64_t assign_msg_bytes = 2048;  ///< MasterSP task assignment
    int64_t result_msg_bytes = 512;   ///< execution-state return / sink
};

/**
 * Everything an engine needs to reach the substrate: simulator, network,
 * cluster nodes, the per-worker FaaStores and the shared remote store.
 * Owned by the System facade; engines hold a reference.
 */
struct RuntimeContext
{
    sim::Simulator& sim;
    net::Network& network;
    cluster::Cluster& cluster;
    std::vector<storage::FaaStore*> stores;  ///< indexed by worker
    storage::RemoteStore& remote;
    const cluster::FunctionRegistry& registry;
    EngineConfig config;

    /** DATA_MODE of the current deployment (RemoteOnly or FaaStore). */
    DataMode data_mode = DataMode::RemoteOnly;

    /** Optional activity recorder (disabled by default). */
    obs::TraceRecorder* trace = nullptr;

    /** Optional online profile store (null or disabled by default);
     *  engines and executors stream cost samples into it. */
    obs::ProfileStore* profile = nullptr;

    /** Durable progress log on the storage node; null when the
     *  deployment runs without durability (the default). */
    storage::ProgressLog* progress_log = nullptr;

    /** How dispatch couples to log durability (ignored when
     *  progress_log is null). */
    DurabilityMode durability = DurabilityMode::Sync;
};

/** Trace lane for worker `w` (see obs::TraceTrack). */
inline int
workerTrack(int worker_index)
{
    return static_cast<int>(obs::TraceTrack::WorkerBase) + worker_index;
}

}  // namespace faasflow::engine

#endif  // FAASFLOW_ENGINE_RUNTIME_CONTEXT_H_
