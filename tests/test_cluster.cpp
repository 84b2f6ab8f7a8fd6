/** @file Tests for the cluster substrate: function registry, container
 *  pool policy (cold start / warm reuse / lifetime / limits / red-black),
 *  worker-node core & memory accounting, and the seeded fleet
 *  generator. */
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/container_pool.h"
#include "cluster/fleet.h"
#include "cluster/function.h"
#include "cluster/node.h"
#include "common/stats.h"
#include "common/units.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace faasflow::cluster {
namespace {

FunctionSpec
spec(const std::string& name, double exec_ms = 100, int64_t mem = 256 * kMiB)
{
    FunctionSpec s;
    s.name = name;
    s.exec_mean = SimTime::millis(exec_ms);
    s.exec_sigma = 0.0;
    s.mem_provisioned = mem;
    s.mem_peak = mem / 2;
    return s;
}

struct Fixture
{
    sim::Simulator sim;
    FunctionRegistry registry;
    net::Network net{sim};
    std::unique_ptr<WorkerNode> node;

    explicit Fixture(WorkerNode::Config config = {})
    {
        registry.add(spec("f"));
        registry.add(spec("g"));
        const net::NodeId nid = net.addNode("w0", 100e6, 100e6);
        node = std::make_unique<WorkerNode>(sim, registry, nid, "w0", config,
                                            Rng(7));
    }
};

// -------------------------------------------------------------- Registry

TEST(FunctionRegistryTest, AddAndLookup)
{
    FunctionRegistry r;
    r.add(spec("a"));
    EXPECT_TRUE(r.contains("a"));
    EXPECT_FALSE(r.contains("b"));
    EXPECT_EQ(r.get("a").name, "a");
    EXPECT_EQ(r.size(), 1u);
    EXPECT_EQ(r.names(), std::vector<std::string>{"a"});
}

TEST(FunctionRegistryDeathTest, DuplicateAndMissing)
{
    FunctionRegistry r;
    r.add(spec("a"));
    EXPECT_EXIT(r.add(spec("a")), ::testing::ExitedWithCode(1), "duplicate");
    EXPECT_EXIT(r.get("zz"), ::testing::ExitedWithCode(1), "unknown");
}

TEST(FunctionSpecTest, DeterministicExecWhenSigmaZero)
{
    Rng rng(1);
    const FunctionSpec s = spec("a", 250);
    EXPECT_EQ(s.sampleExecTime(rng), SimTime::millis(250));
}

TEST(FunctionSpecTest, JitteredExecStaysNearMean)
{
    Rng rng(1);
    FunctionSpec s = spec("a", 100);
    s.exec_sigma = 0.1;
    Summary sum;
    for (int i = 0; i < 5000; ++i)
        sum.add(s.sampleExecTime(rng).millisF());
    EXPECT_NEAR(sum.mean(), 100.0, 2.0);
}

// ------------------------------------------------------------------ Pool

TEST(ContainerPoolTest, ColdStartThenWarmReuse)
{
    Fixture f;
    ContainerPool& pool = f.node->pool();

    Container* first = nullptr;
    bool first_cold = false;
    pool.acquire("f", [&](AcquireResult r) {
        first = r.container;
        first_cold = r.cold_start;
    });
    f.sim.run();
    ASSERT_NE(first, nullptr);
    EXPECT_TRUE(first_cold);
    EXPECT_EQ(first->state(), ContainerState::Busy);

    pool.release(first);
    bool second_cold = true;
    Container* second = nullptr;
    pool.acquire("f", [&](AcquireResult r) {
        second = r.container;
        second_cold = r.cold_start;
    });
    f.sim.run();
    EXPECT_EQ(second, first);
    EXPECT_FALSE(second_cold);
    EXPECT_EQ(pool.coldStarts(), 1u);
    EXPECT_EQ(pool.warmHits(), 1u);
    EXPECT_EQ(first->useCount(), 2u);
}

TEST(ContainerPoolTest, ColdStartTakesConfiguredTime)
{
    WorkerNode::Config config;
    config.pool.cold_start_mean = SimTime::millis(700);
    config.pool.cold_start_sigma = 0.0;
    Fixture f(config);
    SimTime ready;
    f.node->pool().acquire("f", [&](AcquireResult) { ready = f.sim.now(); });
    f.sim.run();
    EXPECT_EQ(ready, SimTime::millis(700));
}

TEST(ContainerPoolTest, PerFunctionLimitQueuesExcess)
{
    WorkerNode::Config config;
    config.pool.per_function_limit = 2;
    Fixture f(config);
    ContainerPool& pool = f.node->pool();

    std::vector<Container*> got;
    for (int i = 0; i < 3; ++i)
        pool.acquire("f", [&](AcquireResult r) { got.push_back(r.container); });
    f.sim.run();
    EXPECT_EQ(got.size(), 2u);
    EXPECT_EQ(pool.waitQueueDepth(), 1u);

    pool.release(got[0]);
    f.sim.run();
    EXPECT_EQ(got.size(), 3u);
    EXPECT_EQ(got[2], got[0]);  // warm reuse served the waiter
    EXPECT_EQ(pool.waitQueueDepth(), 0u);
}

TEST(ContainerPoolTest, NodeMemoryLimitBoundsContainers)
{
    WorkerNode::Config config;
    config.memory = 2 * kGiB;
    config.reserved_memory = 1 * kGiB;  // room for 4 x 256 MiB
    Fixture f(config);
    ContainerPool& pool = f.node->pool();
    int acquired = 0;
    for (int i = 0; i < 6; ++i)
        pool.acquire("f", [&](AcquireResult) { ++acquired; });
    f.sim.run();
    EXPECT_EQ(acquired, 4);
    EXPECT_EQ(pool.waitQueueDepth(), 2u);
}

TEST(ContainerPoolTest, LifetimeEvictsIdleContainers)
{
    WorkerNode::Config config;
    config.pool.container_lifetime = SimTime::seconds(10);
    Fixture f(config);
    ContainerPool& pool = f.node->pool();
    Container* c = nullptr;
    pool.acquire("f", [&](AcquireResult r) { c = r.container; });
    f.sim.run();
    pool.release(c);
    EXPECT_EQ(pool.totalContainers(), 1);
    f.sim.runUntil(f.sim.now() + SimTime::seconds(11));
    EXPECT_EQ(pool.totalContainers(), 0);
    EXPECT_EQ(f.node->memoryUsed(), 0);
}

TEST(ContainerPoolTest, ReuseResetsLifetimeClock)
{
    WorkerNode::Config config;
    config.pool.container_lifetime = SimTime::seconds(10);
    Fixture f(config);
    ContainerPool& pool = f.node->pool();
    Container* c = nullptr;
    pool.acquire("f", [&](AcquireResult r) { c = r.container; });
    f.sim.run();
    pool.release(c);
    // Reuse at t+5s: the container must survive past the original t+10s.
    f.sim.runUntil(f.sim.now() + SimTime::seconds(5));
    pool.acquire("f", [&](AcquireResult r) { c = r.container; });
    f.sim.runUntil(f.sim.now() + SimTime::millis(1));
    pool.release(c);
    f.sim.runUntil(f.sim.now() + SimTime::seconds(6));
    EXPECT_EQ(pool.totalContainers(), 1);
    f.sim.runUntil(f.sim.now() + SimTime::seconds(5));
    EXPECT_EQ(pool.totalContainers(), 0);
}

TEST(ContainerPoolTest, ShrinkMemLimitReturnsMemory)
{
    Fixture f;
    ContainerPool& pool = f.node->pool();
    Container* c = nullptr;
    pool.acquire("f", [&](AcquireResult r) { c = r.container; });
    f.sim.run();
    const int64_t before = f.node->memoryUsed();
    pool.shrinkMemLimit(c, c->memLimit() - 64 * kMiB);
    EXPECT_EQ(f.node->memoryUsed(), before - 64 * kMiB);
    EXPECT_EQ(c->memLimit(), 192 * kMiB);
}

TEST(ContainerPoolTest, RedBlackVersionRecycle)
{
    Fixture f;
    ContainerPool& pool = f.node->pool();
    Container* busy = nullptr;
    Container* idle = nullptr;
    pool.acquire("f", [&](AcquireResult r) { busy = r.container; });
    pool.acquire("f", [&](AcquireResult r) { idle = r.container; });
    f.sim.run();
    pool.release(idle);

    pool.recycleOldVersions(1);
    // Idle container of version 0 destroyed immediately; busy one lives
    // until release.
    EXPECT_EQ(pool.totalContainers(), 1);
    EXPECT_EQ(busy->state(), ContainerState::Busy);
    pool.release(busy);
    EXPECT_EQ(pool.totalContainers(), 0);
}

TEST(ContainerPoolTest, RecycleFunctionScopedToOneFunction)
{
    Fixture f;
    ContainerPool& pool = f.node->pool();
    Container* cf = nullptr;
    Container* cg = nullptr;
    pool.acquire("f", [&](AcquireResult r) { cf = r.container; });
    pool.acquire("g", [&](AcquireResult r) { cg = r.container; });
    f.sim.run();
    pool.release(cf);
    pool.release(cg);

    pool.recycleFunction("f");
    EXPECT_EQ(pool.containerCount("f"), 0);
    EXPECT_EQ(pool.containerCount("g"), 1);
}

TEST(ContainerPoolTest, RecycleFunctionDefersBusyContainers)
{
    Fixture f;
    ContainerPool& pool = f.node->pool();
    Container* c = nullptr;
    pool.acquire("f", [&](AcquireResult r) { c = r.container; });
    f.sim.run();
    pool.recycleFunction("f");
    EXPECT_EQ(pool.containerCount("f"), 1);  // still busy
    pool.release(c);
    EXPECT_EQ(pool.containerCount("f"), 0);  // recycled on return
}

TEST(ContainerPoolTest, ConcurrencyStatsTrackBusyContainers)
{
    Fixture f;
    ContainerPool& pool = f.node->pool();
    std::vector<Container*> cs;
    pool.acquire("f", [&](AcquireResult r) { cs.push_back(r.container); });
    pool.acquire("f", [&](AcquireResult r) { cs.push_back(r.container); });
    f.sim.run();
    EXPECT_EQ(pool.busyContainers("f"), 2);
    EXPECT_EQ(pool.peakConcurrency("f"), 2);
    for (auto* c : cs)
        pool.release(c);
    EXPECT_EQ(pool.busyContainers("f"), 0);
    EXPECT_GT(pool.averageConcurrency("f"), 0.0);
}

// ------------------------------------------------------------------ Node

TEST(WorkerNodeTest, CoreSemaphoreFifo)
{
    Fixture f;
    WorkerNode::Config config;
    EXPECT_EQ(f.node->coresTotal(), config.cores);

    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        f.node->acquireCore([&order, i] { order.push_back(i); });
    }
    f.sim.run();
    // Default 8 cores: first 8 granted, 2 queued.
    EXPECT_EQ(order.size(), 8u);
    EXPECT_EQ(f.node->coresInUse(), 8);
    EXPECT_EQ(f.node->runQueueDepth(), 2u);
    f.node->releaseCore();
    f.node->releaseCore();
    f.sim.run();
    EXPECT_EQ(order.size(), 10u);
    EXPECT_EQ(order[8], 8);
    EXPECT_EQ(order[9], 9);
}

TEST(WorkerNodeTest, MemoryAccounting)
{
    Fixture f;
    const int64_t cap = f.node->memoryCapacity();
    EXPECT_TRUE(f.node->reserveMemory(cap));
    EXPECT_FALSE(f.node->reserveMemory(1));
    f.node->releaseMemory(cap);
    EXPECT_EQ(f.node->memoryUsed(), 0);
}

TEST(WorkerNodeTest, ContainerCapacityLeft)
{
    WorkerNode::Config config;
    config.memory = 4 * kGiB;
    config.reserved_memory = 0;
    Fixture f(config);
    EXPECT_EQ(f.node->containerCapacityLeft(1 * kGiB), 4);
    EXPECT_TRUE(f.node->reserveMemory(2 * kGiB));
    EXPECT_EQ(f.node->containerCapacityLeft(1 * kGiB), 2);
}

TEST(WorkerNodeTest, CpuUtilisationIntegrates)
{
    Fixture f;
    f.node->acquireCore([] {});
    f.sim.runUntil(SimTime::seconds(1));
    // 1 of 8 cores busy for the whole window.
    EXPECT_NEAR(f.node->averageCpuUtilisation(), 1.0 / 8.0, 0.01);
    f.node->releaseCore();
    f.node->resetCpuStats();
    f.sim.runUntil(f.sim.now() + SimTime::seconds(1));
    EXPECT_NEAR(f.node->averageCpuUtilisation(), 0.0, 1e-9);
}

// --------------------------------------------------------------- Cluster

TEST(ClusterTest, TopologyMatchesPaperSetup)
{
    sim::Simulator sim;
    net::Network net(sim);
    FunctionRegistry registry;
    Cluster cluster(sim, net, registry, Cluster::Config{}, Rng(1));
    EXPECT_EQ(cluster.workerCount(), 7u);
    EXPECT_EQ(net.nodeCount(), 8u);  // 7 workers + storage
    EXPECT_EQ(net.nodeName(cluster.storageNodeId()), "storage");
    EXPECT_EQ(cluster.workerByNetId(cluster.worker(3).netId()),
              &cluster.worker(3));
    EXPECT_EQ(cluster.workerByNetId(cluster.storageNodeId()), nullptr);
}

TEST(ClusterTest, StorageBandwidthThrottle)
{
    sim::Simulator sim;
    net::Network net(sim);
    FunctionRegistry registry;
    registry.add(spec("f"));
    Cluster cluster(sim, net, registry, Cluster::Config{}, Rng(1));
    cluster.setStorageBandwidth(25e6);

    SimTime elapsed;
    net.startFlow(cluster.worker(0).netId(), cluster.storageNodeId(),
                  25 * kMB, [&](SimTime t) { elapsed = t; });
    sim.run();
    EXPECT_NEAR(elapsed.secondsF(), 1.0, 1e-6);
}

// Seeded heterogeneous fleets (the WDL cluster: block).

TEST(FleetTest, GeneratorIsSeededAndDeterministic)
{
    FleetSpec spec;
    spec.nodes = 500;
    spec.seed = 11;
    spec.big_node_fraction = 0.25;
    spec.slow_nic_fraction = 0.1;
    const auto a = generateFleet(spec);
    const auto b = generateFleet(spec);
    ASSERT_EQ(a.size(), 500u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cores, b[i].cores);
        EXPECT_EQ(a[i].bandwidth, b[i].bandwidth);
    }
    const FleetSummary s = summarizeFleet(a);
    EXPECT_GT(s.big_nodes, 50u);   // ~125 expected
    EXPECT_LT(s.big_nodes, 250u);
    EXPECT_GT(s.slow_nics, 10u);   // ~50 expected
    EXPECT_LT(s.slow_nics, 150u);
    EXPECT_EQ(s.total_cores,
              500u * 8u + static_cast<uint64_t>(s.big_nodes) * 8u);

    spec.seed = 12;
    const auto c = generateFleet(spec);
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i)
        differs = differs || a[i].cores != c[i].cores;
    EXPECT_TRUE(differs);
}

TEST(FleetTest, UniformSpecReproducesBaseline)
{
    FleetSpec spec;
    spec.nodes = 16;
    const auto profiles = generateFleet(spec);
    for (const NodeProfile& p : profiles) {
        EXPECT_EQ(p.cores, spec.base_cores);
        EXPECT_EQ(p.memory, spec.base_memory);
        EXPECT_EQ(p.bandwidth, spec.base_bandwidth);
    }
}

TEST(FleetTest, ApplyFleetFillsClusterOverrides)
{
    FleetSpec spec;
    spec.nodes = 12;
    spec.big_node_fraction = 0.5;
    spec.seed = 3;
    const auto profiles = generateFleet(spec);
    Cluster::Config config;
    applyFleet(profiles, config);
    EXPECT_EQ(config.worker_count, 12);
    ASSERT_EQ(config.node_overrides.size(), 12u);
    for (size_t i = 0; i < profiles.size(); ++i)
        EXPECT_EQ(config.node_overrides[i].cores, profiles[i].cores);
}

}  // namespace
}  // namespace faasflow::cluster
