/** @file Tests for the storage substrate: remote store, mem store, and
 *  FaaStore's hybrid placement + reclamation quota (Eq. 1-2). */
#include <gtest/gtest.h>

#include "cluster/node.h"
#include "common/units.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "storage/faastore.h"
#include "storage/mem_store.h"
#include "storage/remote_store.h"

namespace faasflow::storage {
namespace {

struct Fixture
{
    sim::Simulator sim;
    net::Network net{sim};
    cluster::FunctionRegistry registry;
    net::NodeId worker_nid;
    net::NodeId storage_nid;
    std::unique_ptr<cluster::WorkerNode> node;
    std::unique_ptr<RemoteStore> remote;
    std::unique_ptr<FaaStore> store;

    Fixture()
    {
        worker_nid = net.addNode("w0", 100e6, 100e6);
        storage_nid = net.addNode("storage", 50e6, 50e6);
        cluster::WorkerNode::Config config;
        node = std::make_unique<cluster::WorkerNode>(
            sim, registry, worker_nid, "w0", config, Rng(3));
        RemoteStore::Config rc;
        rc.op_latency = SimTime::millis(2);
        remote = std::make_unique<RemoteStore>(sim, net, storage_nid, rc);
        store = std::make_unique<FaaStore>(sim, *node, *remote);
    }
};

// ---------------------------------------------------------- RemoteStore

TEST(RemoteStoreTest, PutTransfersOverNetwork)
{
    Fixture f;
    SimTime elapsed;
    f.remote->put("k", 50 * kMB, f.worker_nid,
                  [&](SimTime t) { elapsed = t; });
    f.sim.run();
    // 50 MB through the storage node's 50 MB/s ingress + 2 ms op.
    EXPECT_NEAR(elapsed.secondsF(), 1.002, 1e-4);
    EXPECT_TRUE(f.remote->contains("k"));
    EXPECT_EQ(f.remote->storedBytes(), 50 * kMB);
    EXPECT_EQ(f.remote->stats().puts, 1u);
}

TEST(RemoteStoreTest, GetTransfersBack)
{
    Fixture f;
    f.remote->put("k", 25 * kMB, f.worker_nid, nullptr);
    f.sim.run();
    SimTime elapsed;
    int64_t got = 0;
    f.remote->get("k", f.worker_nid, [&](SimTime t, int64_t bytes) {
        elapsed = t;
        got = bytes;
    });
    f.sim.run();
    EXPECT_EQ(got, 25 * kMB);
    EXPECT_NEAR(elapsed.secondsF(), 0.502, 1e-4);
    EXPECT_EQ(f.remote->stats().gets, 1u);
}

TEST(RemoteStoreTest, LoopbackSkipsNetwork)
{
    Fixture f;
    SimTime elapsed;
    f.remote->put("k", 10 * kMB, f.storage_nid,
                  [&](SimTime t) { elapsed = t; });
    f.sim.run();
    EXPECT_NEAR(elapsed.millisF(), 2.0, 1e-6);
}

TEST(RemoteStoreTest, EraseRemoves)
{
    Fixture f;
    f.remote->put("k", 100, f.worker_nid, nullptr);
    f.sim.run();
    f.remote->erase("k");
    EXPECT_FALSE(f.remote->contains("k"));
    f.remote->erase("k");  // idempotent
}

TEST(RemoteStoreTest, OverwriteReplacesSize)
{
    Fixture f;
    f.remote->put("k", 1 * kMB, f.worker_nid, nullptr);
    f.remote->put("k", 2 * kMB, f.worker_nid, nullptr);
    f.sim.run();
    EXPECT_EQ(f.remote->objectCount(), 1u);
    EXPECT_EQ(f.remote->storedBytes(), 2 * kMB);
    int64_t got = 0;
    f.remote->get("k", f.worker_nid, [&](SimTime, int64_t b) { got = b; });
    f.sim.run();
    EXPECT_EQ(got, 2 * kMB);
}

TEST(RemoteStoreDeathTest, GetMissingPanics)
{
    Fixture f;
    EXPECT_DEATH(f.remote->get("missing", f.worker_nid, nullptr), "missing");
}

// ------------------------------------------------------------- MemStore

TEST(MemStoreTest, ReserveThenPut)
{
    sim::Simulator sim;
    MemStore mem(sim, 10 * kMB);
    EXPECT_TRUE(mem.tryReserve(6 * kMB));
    EXPECT_FALSE(mem.tryReserve(5 * kMB));  // would exceed capacity
    mem.put("a", 6 * kMB, nullptr);
    sim.run();
    EXPECT_EQ(mem.usedBytes(), 6 * kMB);
    EXPECT_TRUE(mem.contains("a"));
    mem.erase("a");
    EXPECT_EQ(mem.usedBytes(), 0);
}

TEST(MemStoreTest, CopyLatencyModel)
{
    sim::Simulator sim;
    MemStore::Config config;
    config.op_latency = SimTime::micros(100);
    config.copy_bandwidth = 1e9;
    MemStore mem(sim, 100 * kMB, config);
    ASSERT_TRUE(mem.tryReserve(10 * kMB));
    SimTime put_t, get_t;
    mem.put("a", 10 * kMB, [&](SimTime t) { put_t = t; });
    sim.run();
    mem.get("a", [&](SimTime t, int64_t) { get_t = t; });
    sim.run();
    // 10 MB at 1 GB/s = 10 ms + 0.1 ms op.
    EXPECT_NEAR(put_t.millisF(), 10.1, 1e-6);
    EXPECT_NEAR(get_t.millisF(), 10.1, 1e-6);
}

TEST(MemStoreDeathTest, PutWithoutReservationPanics)
{
    sim::Simulator sim;
    MemStore mem(sim, kMB);
    EXPECT_DEATH(mem.put("a", 100, nullptr), "reservation");
}

// ----------------------------------------------------- Quota (Eq. 1-2)

TEST(FaaStoreQuotaTest, OverProvisionEquation)
{
    cluster::FunctionSpec spec;
    spec.mem_provisioned = 256 * kMiB;
    spec.mem_peak = 120 * kMiB;
    const int64_t headroom = 32 * kMiB;
    // O(v) = (256 - 120 - 32) MiB * Map(v)
    EXPECT_EQ(FaaStore::overProvision(spec, 1.0, headroom), 104 * kMiB);
    EXPECT_EQ(FaaStore::overProvision(spec, 3.0, headroom), 312 * kMiB);
    // Map below 1 clamps to 1.
    EXPECT_EQ(FaaStore::overProvision(spec, 0.2, headroom), 104 * kMiB);
}

TEST(FaaStoreQuotaTest, OverProvisionNeverNegative)
{
    cluster::FunctionSpec spec;
    spec.mem_provisioned = 256 * kMiB;
    spec.mem_peak = 250 * kMiB;  // peak + headroom > provisioned
    EXPECT_EQ(FaaStore::overProvision(spec, 1.0, 32 * kMiB), 0);
}

TEST(FaaStoreQuotaTest, GroupQuotaSums)
{
    cluster::FunctionSpec a, b;
    a.mem_provisioned = b.mem_provisioned = 256 * kMiB;
    a.mem_peak = 120 * kMiB;
    b.mem_peak = 200 * kMiB;
    const int64_t headroom = 32 * kMiB;
    const int64_t quota =
        FaaStore::groupQuota({{&a, 1.0}, {&b, 2.0}}, headroom);
    EXPECT_EQ(quota, 104 * kMiB + 2 * 24 * kMiB);
}

// ------------------------------------------------------------- FaaStore

TEST(FaaStoreTest, PoolAllocationReservesNodeMemory)
{
    Fixture f;
    const int64_t before = f.node->memoryUsed();
    ASSERT_TRUE(f.store->allocatePool("wf", 100 * kMB));
    EXPECT_EQ(f.node->memoryUsed(), before + 100 * kMB);
    EXPECT_EQ(f.store->poolQuota("wf"), 100 * kMB);
    EXPECT_EQ(f.store->memStore().capacity(), 100 * kMB);

    // Resize down releases the delta.
    ASSERT_TRUE(f.store->allocatePool("wf", 40 * kMB));
    EXPECT_EQ(f.node->memoryUsed(), before + 40 * kMB);

    f.store->releasePool("wf");
    EXPECT_EQ(f.node->memoryUsed(), before);
    EXPECT_EQ(f.store->poolQuota("wf"), 0);
}

TEST(FaaStoreTest, PoolAllocationFailsWhenNodeFull)
{
    Fixture f;
    EXPECT_FALSE(f.store->allocatePool("wf", f.node->memoryFree() + 1));
    EXPECT_EQ(f.store->poolQuota("wf"), 0);
}

TEST(FaaStoreTest, SaveLocalWhenPreferredAndQuotaAllows)
{
    Fixture f;
    ASSERT_TRUE(f.store->allocatePool("wf", 10 * kMB));
    bool local = false;
    f.store->save("wf", "k", 5 * kMB, true,
                  [&](SimTime, bool l) { local = l; });
    f.sim.run();
    EXPECT_TRUE(local);
    EXPECT_TRUE(f.store->hasLocal("k"));
    EXPECT_EQ(f.store->poolUsed("wf"), 5 * kMB);
    EXPECT_EQ(f.store->localSaves(), 1u);
    EXPECT_FALSE(f.remote->contains("k"));
}

TEST(FaaStoreTest, SaveFallsBackToRemoteOnQuotaPressure)
{
    Fixture f;
    ASSERT_TRUE(f.store->allocatePool("wf", 4 * kMB));
    bool local = true;
    f.store->save("wf", "k", 5 * kMB, true,
                  [&](SimTime, bool l) { local = l; });
    f.sim.run();
    EXPECT_FALSE(local);
    EXPECT_TRUE(f.remote->contains("k"));
    EXPECT_EQ(f.store->quotaRejections(), 1u);
    EXPECT_EQ(f.store->remoteSaves(), 1u);
}

TEST(FaaStoreTest, SaveRemoteWhenNotPreferred)
{
    Fixture f;
    ASSERT_TRUE(f.store->allocatePool("wf", 100 * kMB));
    bool local = true;
    f.store->save("wf", "k", kMB, false, [&](SimTime, bool l) { local = l; });
    f.sim.run();
    EXPECT_FALSE(local);
}

TEST(FaaStoreTest, FetchPrefersLocal)
{
    Fixture f;
    ASSERT_TRUE(f.store->allocatePool("wf", 100 * kMB));
    f.store->save("wf", "k", 10 * kMB, true, nullptr);
    f.sim.run();
    SimTime local_t;
    f.store->fetch("k", [&](SimTime t, int64_t) { local_t = t; });
    f.sim.run();
    // Local memory copy is far below any network transfer time.
    EXPECT_LT(local_t, SimTime::millis(50));
}

TEST(FaaStoreTest, FetchFallsThroughToRemote)
{
    Fixture f;
    f.remote->put("k", 10 * kMB, f.worker_nid, nullptr);
    f.sim.run();
    int64_t got = 0;
    f.store->fetch("k", [&](SimTime, int64_t b) { got = b; });
    f.sim.run();
    EXPECT_EQ(got, 10 * kMB);
}

TEST(FaaStoreTest, DropReturnsQuota)
{
    Fixture f;
    ASSERT_TRUE(f.store->allocatePool("wf", 10 * kMB));
    f.store->save("wf", "k", 6 * kMB, true, nullptr);
    f.sim.run();
    EXPECT_EQ(f.store->poolUsed("wf"), 6 * kMB);
    f.store->drop("wf", "k");
    EXPECT_EQ(f.store->poolUsed("wf"), 0);
    EXPECT_FALSE(f.store->hasLocal("k"));
    // Quota is usable again.
    bool local = false;
    f.store->save("wf", "k2", 8 * kMB, true,
                  [&](SimTime, bool l) { local = l; });
    f.sim.run();
    EXPECT_TRUE(local);
}

TEST(FaaStoreTest, DropRemovesRemoteObjects)
{
    Fixture f;
    f.remote->put("k", 100, f.worker_nid, nullptr);
    f.sim.run();
    f.store->drop("wf", "k");
    EXPECT_FALSE(f.remote->contains("k"));
}

TEST(FaaStoreTest, ReclaimShrinksContainerToPeakPlusHeadroom)
{
    Fixture f;
    cluster::FunctionSpec spec;
    spec.name = "fn";
    spec.mem_provisioned = 256 * kMiB;
    spec.mem_peak = 100 * kMiB;
    f.registry.add(spec);

    cluster::Container* c = nullptr;
    f.node->pool().acquire("fn",
                           [&](cluster::AcquireResult r) { c = r.container; });
    f.sim.run();
    ASSERT_NE(c, nullptr);
    const int64_t before = f.node->memoryUsed();
    f.store->reclaimContainerMemory(f.node->pool(), c, spec);
    // Shrunk to peak + default 32 MiB headroom = 132 MiB.
    EXPECT_EQ(c->memLimit(), 132 * kMiB);
    EXPECT_EQ(f.node->memoryUsed(), before - 124 * kMiB);
    // Idempotent: a second reclaim changes nothing.
    f.store->reclaimContainerMemory(f.node->pool(), c, spec);
    EXPECT_EQ(c->memLimit(), 132 * kMiB);
}

TEST(FaaStoreTest, MultiplePoolsShareMemStore)
{
    Fixture f;
    ASSERT_TRUE(f.store->allocatePool("wf1", 10 * kMB));
    ASSERT_TRUE(f.store->allocatePool("wf2", 20 * kMB));
    EXPECT_EQ(f.store->memStore().capacity(), 30 * kMB);
    f.store->save("wf1", "a", 8 * kMB, true, nullptr);
    f.sim.run();
    // wf1 has 2 MB left; an 8 MB save must go remote even though wf2's
    // pool has room (quotas are per workflow).
    bool local = true;
    f.store->save("wf1", "b", 8 * kMB, true,
                  [&](SimTime, bool l) { local = l; });
    f.sim.run();
    EXPECT_FALSE(local);
    // wf2 can still use its own quota.
    bool local2 = false;
    f.store->save("wf2", "c", 15 * kMB, true,
                  [&](SimTime, bool l) { local2 = l; });
    f.sim.run();
    EXPECT_TRUE(local2);
}

}  // namespace
}  // namespace faasflow::storage
