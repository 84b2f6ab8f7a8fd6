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

/** Pool config with a short lifetime and exact 700 ms cold starts. */
WorkerNode::Config
expiryConfig(KeepAlivePolicy policy = KeepAlivePolicy::FixedLifetime)
{
    WorkerNode::Config config;
    config.pool.container_lifetime = SimTime::seconds(10);
    config.pool.cold_start_mean = SimTime::millis(700);
    config.pool.cold_start_sigma = 0.0;
    config.pool.keep_alive = policy;
    return config;
}

/** Acquires one container of `function` and runs for one cold start,
 *  long enough for a warm or cold hand-out but short of any expiry. */
Container*
acquireNow(Fixture& f, const std::string& function)
{
    Container* c = nullptr;
    f.node->pool().acquire(function, [&](AcquireResult r) { c = r.container; });
    f.sim.runUntil(f.sim.now() + SimTime::millis(700));
    return c;
}

TEST(ContainerPoolTest, PoolKeepsOneExpiryEventPending)
{
    Fixture f(expiryConfig());
    ContainerPool& pool = f.node->pool();
    constexpr int kContainers = 6;
    std::vector<Container*> cs;
    for (int i = 0; i < kContainers; ++i)
        pool.acquire("f", [&](AcquireResult r) { cs.push_back(r.container); });
    f.sim.run();
    ASSERT_EQ(cs.size(), static_cast<size_t>(kContainers));
    ASSERT_EQ(f.sim.pendingEvents(), 0u);

    // Each release queues an expiry at a distinct instant; they all ride
    // on one pending timer event.
    for (Container* c : cs) {
        pool.release(c);
        EXPECT_LE(f.sim.pendingEvents(), 1u);
        f.sim.runUntil(f.sim.now() + SimTime::millis(250));
    }
    EXPECT_EQ(f.sim.pendingEvents(), 1u);
    EXPECT_EQ(pool.totalContainers(), kContainers);
    f.sim.run();
    EXPECT_EQ(pool.totalContainers(), 0);
    EXPECT_EQ(f.sim.pendingEvents(), 0u);
}

TEST(ContainerPoolTest, ExpiryLandsOnTheReleaseMicrosecond)
{
    const SimTime lifetime = SimTime::seconds(10);
    const SimTime us = SimTime::micros(1);
    Fixture f(expiryConfig());
    ContainerPool& pool = f.node->pool();
    Container* a = acquireNow(f, "f");
    Container* b = acquireNow(f, "g");

    // a's release is the FIFO's front; b's follows one second later.
    const SimTime a_first = f.sim.now();
    pool.release(a);
    f.sim.runUntil(a_first + SimTime::seconds(1));
    const SimTime b_release = f.sim.now();
    pool.release(b);

    // Reusing a makes its front entry stale and queues a later one.
    f.sim.runUntil(a_first + SimTime::seconds(2));
    EXPECT_EQ(acquireNow(f, "f"), a);
    f.sim.runUntil(a_first + SimTime::seconds(3));
    const SimTime a_last = f.sim.now();
    pool.release(a);

    f.sim.runUntil(a_first + lifetime);
    EXPECT_EQ(pool.totalContainers(), 2);  // a was reused in between
    f.sim.runUntil(b_release + lifetime - us);
    EXPECT_EQ(pool.containerCount("g"), 1);
    f.sim.runUntil(b_release + lifetime);
    EXPECT_EQ(pool.containerCount("g"), 0);
    EXPECT_EQ(pool.containerCount("f"), 1);
    f.sim.runUntil(a_last + lifetime - us);
    EXPECT_EQ(pool.containerCount("f"), 1);
    f.sim.runUntil(a_last + lifetime);
    EXPECT_EQ(pool.containerCount("f"), 0);
    EXPECT_EQ(f.sim.pendingEvents(), 0u);
    EXPECT_EQ(f.node->memoryUsed(), 0);
}

TEST(ContainerPoolTest, PrewarmedContainerExpiresLifetimeAfterComingUp)
{
    const SimTime lifetime = SimTime::seconds(10);
    Fixture f(expiryConfig());
    ContainerPool& pool = f.node->pool();
    ASSERT_EQ(pool.prewarm("f", 1), 1);
    const SimTime up = f.sim.now() + SimTime::millis(700);
    f.sim.runUntil(up);
    EXPECT_EQ(pool.idleContainers(), 1);
    f.sim.runUntil(up + lifetime - SimTime::micros(1));
    EXPECT_EQ(pool.containerCount("f"), 1);
    f.sim.runUntil(up + lifetime);
    EXPECT_EQ(pool.containerCount("f"), 0);
}

TEST(ContainerPoolTest, CrashCancelsThePendingExpiry)
{
    const SimTime lifetime = SimTime::seconds(10);
    Fixture f(expiryConfig());
    ContainerPool& pool = f.node->pool();
    pool.release(acquireNow(f, "f"));
    const SimTime stale_expiry = f.sim.now() + lifetime;
    EXPECT_EQ(f.sim.pendingEvents(), 1u);

    f.node->crash();
    EXPECT_EQ(pool.totalContainers(), 0);
    EXPECT_EQ(f.sim.pendingEvents(), 0u);

    // Restored node: a fresh container keeps its own full lifetime, and
    // the crashed one's expiry instant destroys nothing.
    f.sim.runUntil(f.sim.now() + SimTime::seconds(4));
    f.node->setAlive(true);
    Container* c = acquireNow(f, "f");
    ASSERT_NE(c, nullptr);
    pool.release(c);
    const SimTime expiry = f.sim.now() + lifetime;
    f.sim.runUntil(stale_expiry);
    EXPECT_EQ(pool.containerCount("f"), 1);
    f.sim.runUntil(expiry - SimTime::micros(1));
    EXPECT_EQ(pool.containerCount("f"), 1);
    f.sim.runUntil(expiry);
    EXPECT_EQ(pool.containerCount("f"), 0);
    EXPECT_EQ(f.node->memoryUsed(), 0);
}

TEST(ContainerPoolTest, OnlyFixedLifetimeArmsAnExpiryTimer)
{
    for (const KeepAlivePolicy policy :
         {KeepAlivePolicy::GreedyDual, KeepAlivePolicy::NeverEvict,
          KeepAlivePolicy::AlwaysCold}) {
        Fixture f(expiryConfig(policy));
        ContainerPool& pool = f.node->pool();
        pool.release(acquireNow(f, "f"));
        EXPECT_EQ(f.sim.pendingEvents(), 0u);
        ASSERT_EQ(pool.prewarm("g", 1), 1);
        f.sim.runUntil(f.sim.now() + SimTime::millis(700));
        EXPECT_EQ(pool.idleContainers(),
                  policy == KeepAlivePolicy::AlwaysCold ? 1 : 2);
        EXPECT_EQ(f.sim.pendingEvents(), 0u);
        // Nothing expires: both stay warm unless AlwaysCold destroyed
        // the released one.
        f.sim.runUntil(f.sim.now() + SimTime::seconds(60));
        EXPECT_EQ(pool.containerCount("f"),
                  policy == KeepAlivePolicy::AlwaysCold ? 0 : 1);
        EXPECT_EQ(pool.containerCount("g"), 1);
    }
}

TEST(ContainerPoolTest, WaiterCountFollowsTheWaitQueue)
{
    WorkerNode::Config config = expiryConfig();
    config.pool.per_function_limit = 1;
    Fixture f(config);
    ContainerPool& pool = f.node->pool();
    std::vector<Container*> got;
    for (int i = 0; i < 3; ++i)
        pool.acquire("f", [&](AcquireResult r) { got.push_back(r.container); });
    f.sim.run();
    ContainerPool::FunctionLoad load = pool.functionLoad("f");
    EXPECT_EQ(load.containers, 1);
    EXPECT_EQ(load.busy, 1);
    EXPECT_EQ(load.waiting, 2);
    EXPECT_EQ(pool.functionLoad("g").waiting, 0);

    pool.release(got.back());
    f.sim.run();
    EXPECT_EQ(pool.functionLoad("f").waiting, 1);
    pool.release(got.back());
    f.sim.run();
    EXPECT_EQ(pool.functionLoad("f").waiting, 0);
    ASSERT_EQ(got.size(), 3u);

    // A crash drops the queue and every container, but keeps the busy
    // integral behind averageConcurrency().
    for (int i = 0; i < 2; ++i)
        pool.acquire("f", [&](AcquireResult r) { got.push_back(r.container); });
    EXPECT_EQ(pool.functionLoad("f").waiting, 2);
    f.sim.runUntil(f.sim.now() + SimTime::seconds(1));
    const double concurrency = pool.averageConcurrency("f");
    f.node->crash();
    load = pool.functionLoad("f");
    EXPECT_EQ(load.containers, 0);
    EXPECT_EQ(load.busy, 0);
    EXPECT_EQ(load.waiting, 0);
    EXPECT_EQ(pool.idleContainers(), 0);
    EXPECT_DOUBLE_EQ(pool.averageConcurrency("f"), concurrency);
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
    EXPECT_EQ(pool.functionLoad("f").busy, 2);
    for (auto* c : cs)
        pool.release(c);
    EXPECT_EQ(pool.functionLoad("f").busy, 0);
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
