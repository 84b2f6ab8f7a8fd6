#ifndef FAASFLOW_CLUSTER_FLEET_H_
#define FAASFLOW_CLUSTER_FLEET_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/units.h"

namespace faasflow::cluster {

/**
 * Seeded large-cluster topology description: how many nodes, what the
 * baseline machine looks like, and how much heterogeneity to sprinkle
 * in. A FleetSpec plus its seed fully determines the generated fleet,
 * so a 10k-node topology is a reproducible one-liner (WDL `cluster:`
 * block or `faasflow_run --cluster-nodes`).
 *
 * Heterogeneity follows the shape real fleets have: a fraction of
 * "big" nodes with a core multiplier (newer instance generations) and a
 * fraction of NIC-degraded nodes (oversubscribed racks). Both knobs
 * default to 0, which reproduces the paper's uniform testbed at any
 * scale.
 */
struct FleetSpec
{
    /** Worker-node count (the paper's testbed is 7 + 1 storage). */
    uint32_t nodes = 1000;
    /** Seed for the heterogeneity draws. */
    uint64_t seed = 42;

    // ---- baseline machine (ecs.g7.2xlarge, as in cluster/node.h) ----
    int base_cores = 8;
    int64_t base_memory = 32LL * kGiB;
    /** Worker NIC bandwidth, bytes/s full duplex. */
    double base_bandwidth = 100e6;

    // ---- heterogeneity knobs -----------------------------------------
    /** Fraction of nodes drawn as "big" (cores scaled up). */
    double big_node_fraction = 0.0;
    /** Core multiplier for big nodes (memory scales alongside). */
    double big_core_multiplier = 2.0;
    /** Fraction of nodes with a degraded NIC. */
    double slow_nic_fraction = 0.0;
    /** Bandwidth multiplier for degraded NICs (< 1). */
    double slow_nic_multiplier = 0.25;

    /** One-way cross-node hop latency (net::Network's hop_latency). */
    SimTime hop_latency = SimTime::millis(0.5);
};

/** One generated worker machine. */
struct NodeProfile
{
    int cores = 8;
    int64_t memory = 32LL * kGiB;
    double bandwidth = 100e6;  ///< NIC, bytes/s full duplex
    bool big = false;
    bool slow_nic = false;
};

/** Aggregate shape of a generated fleet (for logs and bench labels). */
struct FleetSummary
{
    uint32_t nodes = 0;
    uint64_t total_cores = 0;
    uint32_t big_nodes = 0;
    uint32_t slow_nics = 0;
};

/**
 * Generates the per-node profiles for `spec`. Deterministic in
 * (spec, spec.seed): the draws consume a dedicated Rng stream, one
 * draw pair per node, so profiles do not shift when unrelated
 * parameters change.
 */
std::vector<NodeProfile> generateFleet(const FleetSpec& spec);

FleetSummary summarizeFleet(const std::vector<NodeProfile>& profiles);

/**
 * Applies a generated fleet to a Cluster::Config as per-node overrides
 * (and sets worker_count), so the full System stack can run a
 * heterogeneous topology without knowing about FleetSpec.
 */
void applyFleet(const std::vector<NodeProfile>& profiles,
                Cluster::Config& config);

}  // namespace faasflow::cluster

#endif  // FAASFLOW_CLUSTER_FLEET_H_
