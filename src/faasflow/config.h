#ifndef FAASFLOW_FAASFLOW_CONFIG_H_
#define FAASFLOW_FAASFLOW_CONFIG_H_

#include <cstdint>

#include "cluster/cluster.h"
#include "engine/modes.h"
#include "engine/recovery.h"
#include "engine/runtime_context.h"
#include "net/network.h"
#include "obs/profile.h"
#include "scheduler/graph_scheduler.h"
#include "storage/faastore.h"
#include "storage/progress_log.h"
#include "storage/remote_store.h"

namespace faasflow {

/**
 * Full configuration of one simulated FaaSFlow (or HyperFlow-serverless)
 * deployment. Defaults mirror the paper's testbed: 7 workers + 1
 * storage node, 8 cores / 32 GB each, 1-core 256 MB containers with a
 * 600 s lifetime and a 10-per-function-per-node cap, CouchDB-class
 * remote store behind a 50 MB/s NIC.
 */
struct SystemConfig
{
    cluster::Cluster::Config cluster;
    net::Network::Config network;
    storage::RemoteStore::Config remote;
    storage::FaaStore::Config faastore;
    engine::EngineConfig engine;
    scheduler::GraphScheduler::Config scheduler;

    /** Heartbeat-based worker failure detection (fault injection). */
    engine::RecoveryConfig recovery;

    /** CONTROL_MODE: who triggers functions. */
    engine::ControlMode control_mode = engine::ControlMode::WorkerSP;

    /** DATA_MODE: whether FaaStore may localize intermediate data. */
    engine::DataMode data_mode = engine::DataMode::FaaStore;

    /** Open-loop execution timeout (§5.4): latency is clamped here. */
    SimTime invocation_timeout = SimTime::seconds(60);

    /** Resource-telemetry sampling cadence (System::telemetry()); the
     *  sampler itself only runs once started via startTelemetry(). */
    SimTime telemetry_interval = SimTime::millis(10);

    /**
     * Online workflow profiler (DESIGN.md §10.5). Off by default: the
     * store is always owned by System (so wiring never dangles) but
     * records nothing until enabled — either here or via
     * System::profile().enable(). Sim-inert either way.
     */
    bool profile_enabled = false;
    obs::ProfileConfig profile;

    /**
     * Durable progress log on the storage node (DESIGN.md §8). Off by
     * default: appends cost simulated time, so durability is an opt-in
     * overhead the chaos campaign and the failover tests measure. With
     * it on, a MasterCrash fault is survivable — the master rebuilds
     * all invocation state by log replay at restart.
     */
    bool durable_log = false;
    storage::ProgressLog::Config progress_log;

    /**
     * Latency-vs-durability point of the durable path (DESIGN.md §8.5).
     * Sync commits every append on its own and gates on its ack;
     * GroupCommit batches appends per storage round trip (dispatch still
     * waits for the batch ack); Speculative additionally fires
     * successors at append *issue* and rolls speculated nodes back when
     * a crash loses the uncommitted suffix. This mode is the only switch
     * for log batching: non-Sync modes build a group-committing log,
     * Sync a commit-per-append one.
     */
    engine::DurabilityMode durability_mode = engine::DurabilityMode::Sync;

    /** Root seed; every stochastic component derives from it. */
    uint64_t seed = 1;

    /** Convenience: the paper's HyperFlow-serverless baseline. */
    static SystemConfig
    hyperflowServerless()
    {
        SystemConfig config;
        config.control_mode = engine::ControlMode::MasterSP;
        config.data_mode = engine::DataMode::RemoteOnly;
        return config;
    }

    /** Convenience: FaaSFlow with FaaStore enabled (the full system). */
    static SystemConfig
    faasflowFaastore()
    {
        return SystemConfig{};
    }

    /** Convenience: FaaSFlow with the database-only data path. */
    static SystemConfig
    faasflowRemoteOnly()
    {
        SystemConfig config;
        config.data_mode = engine::DataMode::RemoteOnly;
        return config;
    }
};

}  // namespace faasflow

#endif  // FAASFLOW_FAASFLOW_CONFIG_H_
