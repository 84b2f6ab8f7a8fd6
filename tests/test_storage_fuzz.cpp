/** @file Model-based fuzz of the storage layer: random op sequences
 *  against a reference model, checking accounting invariants after
 *  every step. */
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cluster/node.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "storage/faastore.h"

namespace faasflow::storage {
namespace {

/** Reference model of what FaaStore should contain. */
struct Model
{
    struct Object
    {
        int64_t bytes;
        bool local;
        std::string workflow;
    };

    std::map<std::string, Object> objects;
    std::map<std::string, int64_t> quota;

    int64_t
    localUsed(const std::string& wf) const
    {
        int64_t total = 0;
        for (const auto& [key, obj] : objects) {
            if (obj.local && obj.workflow == wf)
                total += obj.bytes;
        }
        return total;
    }

    int64_t
    localUsedAll() const
    {
        int64_t total = 0;
        for (const auto& [key, obj] : objects) {
            if (obj.local)
                total += obj.bytes;
        }
        return total;
    }
};

class StorageFuzzTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(StorageFuzzTest, RandomOpsPreserveAccounting)
{
    Rng rng(GetParam());
    sim::Simulator sim;
    net::Network net(sim);
    cluster::FunctionRegistry registry;
    const net::NodeId wid = net.addNode("w", 100e6, 100e6);
    const net::NodeId sid = net.addNode("s", 100e6, 100e6);
    cluster::WorkerNode node(sim, registry, wid, "w", {}, Rng(1));
    RemoteStore remote(sim, net, sid);
    FaaStore store(sim, node, remote);

    Model model;
    const std::vector<std::string> workflows = {"wf-a", "wf-b", "wf-c"};
    for (const auto& wf : workflows) {
        const int64_t quota = rng.uniformInt(0, 40) * kMB;
        ASSERT_TRUE(store.allocatePool(wf, quota));
        model.quota[wf] = quota;
    }

    int key_counter = 0;
    for (int step = 0; step < 400; ++step) {
        const double dice = rng.uniform();
        const std::string& wf =
            workflows[static_cast<size_t>(rng.uniformInt(0, 2))];

        if (dice < 0.45) {
            // Save a fresh object; prefer_local randomly.
            const std::string key =
                wf + "/k" + std::to_string(key_counter++);
            const int64_t bytes = rng.uniformInt(1, 8) * kMB;
            const bool prefer_local = rng.uniform() < 0.7;
            bool landed_local = false;
            bool done = false;
            store.save(wf, key, bytes, prefer_local,
                       [&](SimTime, bool local) {
                           landed_local = local;
                           done = true;
                       });
            sim.run();
            ASSERT_TRUE(done);
            // The store may only localize when allowed and within quota.
            if (landed_local) {
                EXPECT_TRUE(prefer_local);
                EXPECT_LE(model.localUsed(wf) + bytes, model.quota[wf]);
            }
            model.objects[key] = Model::Object{bytes, landed_local, wf};
        } else if (dice < 0.75 && !model.objects.empty()) {
            // Fetch a random live object; bytes must match the model.
            auto it = model.objects.begin();
            std::advance(it, rng.uniformInt(
                                 0, static_cast<int64_t>(
                                        model.objects.size()) - 1));
            int64_t got = -1;
            store.fetch(it->first, [&](SimTime, int64_t bytes) { got = bytes; });
            sim.run();
            EXPECT_EQ(got, it->second.bytes);
            EXPECT_EQ(store.hasLocal(it->first), it->second.local);
        } else if (!model.objects.empty()) {
            // Drop a random object.
            auto it = model.objects.begin();
            std::advance(it, rng.uniformInt(
                                 0, static_cast<int64_t>(
                                        model.objects.size()) - 1));
            store.drop(it->second.workflow, it->first);
            EXPECT_FALSE(store.hasLocal(it->first));
            EXPECT_FALSE(remote.contains(it->first));
            model.objects.erase(it);
        }

        // Invariants after every step.
        EXPECT_EQ(store.memStore().usedBytes(), model.localUsedAll());
        for (const auto& wf2 : workflows) {
            EXPECT_EQ(store.poolUsed(wf2), model.localUsed(wf2));
            EXPECT_LE(store.poolUsed(wf2), store.poolQuota(wf2));
        }
        int64_t remote_bytes = 0;
        for (const auto& [key, obj] : model.objects) {
            if (!obj.local)
                remote_bytes += obj.bytes;
        }
        EXPECT_EQ(remote.storedBytes(), remote_bytes);
    }

    // Drain everything; accounting returns to zero.
    for (const auto& [key, obj] : model.objects)
        store.drop(obj.workflow, key);
    EXPECT_EQ(store.memStore().usedBytes(), 0);
    EXPECT_EQ(remote.storedBytes(), 0);
    for (const auto& wf : workflows) {
        EXPECT_EQ(store.poolUsed(wf), 0);
        store.releasePool(wf);
    }
    EXPECT_EQ(node.memoryUsed(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageFuzzTest,
                         ::testing::Values(1, 22, 333, 4444, 55555));

}  // namespace
}  // namespace faasflow::storage
