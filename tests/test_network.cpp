/** @file Tests for the flow-level network model (max-min fairness,
 *  contention, control messages, bandwidth changes). */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/units.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace faasflow::net {
namespace {

struct Fixture
{
    sim::Simulator sim;
    Network net;

    Fixture() : net(sim) {}
};

TEST(NetworkTest, SingleFlowUsesFullBottleneck)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 100e6, 100e6);
    const NodeId b = f.net.addNode("b", 50e6, 50e6);
    SimTime elapsed;
    f.net.startFlow(a, b, 50 * kMB, [&](SimTime t) { elapsed = t; });
    f.sim.run();
    // Bottleneck is b's 50 MB/s ingress: 50 MB takes 1 s.
    EXPECT_NEAR(elapsed.secondsF(), 1.0, 1e-6);
}

TEST(NetworkTest, TwoFlowsShareSourceEgressFairly)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 100e6, 100e6);
    const NodeId b = f.net.addNode("b", 100e6, 100e6);
    const NodeId c = f.net.addNode("c", 100e6, 100e6);
    int done = 0;
    SimTime t1, t2;
    f.net.startFlow(a, b, 50 * kMB, [&](SimTime t) { t1 = t; ++done; });
    f.net.startFlow(a, c, 50 * kMB, [&](SimTime t) { t2 = t; ++done; });
    f.sim.run();
    EXPECT_EQ(done, 2);
    // Each gets 50 MB/s of a's 100 MB/s egress: 1 s each.
    EXPECT_NEAR(t1.secondsF(), 1.0, 1e-6);
    EXPECT_NEAR(t2.secondsF(), 1.0, 1e-6);
}

TEST(NetworkTest, UnequalFlowsRedistributeAfterCompletion)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 100e6, 100e6);
    const NodeId b = f.net.addNode("b", 100e6, 100e6);
    const NodeId c = f.net.addNode("c", 100e6, 100e6);
    SimTime t_small, t_big;
    f.net.startFlow(a, b, 25 * kMB, [&](SimTime t) { t_small = t; });
    f.net.startFlow(a, c, 75 * kMB, [&](SimTime t) { t_big = t; });
    f.sim.run();
    // Phase 1: both at 50 MB/s; small (25 MB) finishes at 0.5 s. The big
    // flow then gets the full 100 MB/s for its remaining 50 MB: +0.5 s.
    EXPECT_NEAR(t_small.secondsF(), 0.5, 1e-6);
    EXPECT_NEAR(t_big.secondsF(), 1.0, 1e-6);
}

TEST(NetworkTest, StorageNodeIngressIsTheSharedBottleneck)
{
    // The Fig. 12 scenario: many workers writing to one storage node.
    Fixture f;
    const NodeId storage = f.net.addNode("storage", 50e6, 50e6);
    std::vector<NodeId> workers;
    for (int i = 0; i < 5; ++i) {
        workers.push_back(
            f.net.addNode(strFormat("w%d", i), 100e6, 100e6));
    }
    int done = 0;
    SimTime last;
    for (const NodeId w : workers) {
        f.net.startFlow(w, storage, 10 * kMB, [&](SimTime t) {
            ++done;
            last = std::max(last, t);
        });
    }
    f.sim.run();
    EXPECT_EQ(done, 5);
    // 50 MB total through a 50 MB/s ingress: all finish together at 1 s.
    EXPECT_NEAR(last.secondsF(), 1.0, 1e-6);
}

TEST(NetworkTest, BandwidthChangeMidFlight)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 100e6, 100e6);
    const NodeId b = f.net.addNode("b", 100e6, 100e6);
    SimTime elapsed;
    f.net.startFlow(a, b, 100 * kMB, [&](SimTime t) { elapsed = t; });
    // After 0.5 s (50 MB done), throttle b to 25 MB/s (wondershaper).
    f.sim.schedule(SimTime::seconds(0.5),
                   [&] { f.net.setNicBandwidth(b, 25e6, 25e6); });
    f.sim.run();
    // Remaining 50 MB at 25 MB/s takes 2 s: total 2.5 s.
    EXPECT_NEAR(elapsed.secondsF(), 2.5, 1e-5);
}

TEST(NetworkTest, ZeroByteFlowCompletesImmediately)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 1e6, 1e6);
    const NodeId b = f.net.addNode("b", 1e6, 1e6);
    bool done = false;
    f.net.startFlow(a, b, 0, [&](SimTime) { done = true; });
    f.sim.run();
    EXPECT_TRUE(done);
}

TEST(NetworkTest, MessageLatencyModel)
{
    sim::Simulator sim;
    Network::Config config;
    config.hop_latency = SimTime::millis(1);
    config.loopback_latency = SimTime::micros(50);
    config.message_bandwidth = 1e9;
    Network net(sim, config);
    const NodeId a = net.addNode("a", 1e9, 1e9);
    const NodeId b = net.addNode("b", 1e9, 1e9);

    SimTime cross, local;
    net.sendMessage(a, b, 1000, [&] { cross = sim.now(); });
    net.sendMessage(a, a, 1000, [&] { local = sim.now(); });
    sim.run();
    EXPECT_NEAR(cross.millisF(), 1.001, 1e-6);
    EXPECT_NEAR(local.millisF(), 0.051, 1e-6);
}

TEST(NetworkTest, StatsCountTraffic)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 100e6, 100e6);
    const NodeId b = f.net.addNode("b", 100e6, 100e6);
    f.net.startFlow(a, b, 5 * kMB, nullptr);
    f.net.sendMessage(a, b, 100, [] {});
    f.sim.run();
    EXPECT_EQ(f.net.stats(a).bytes_sent, 5 * kMB + 100);
    EXPECT_EQ(f.net.stats(b).bytes_received, 5 * kMB + 100);
    EXPECT_EQ(f.net.stats(a).flows_started, 1u);
    EXPECT_EQ(f.net.stats(a).messages_sent, 1u);
}

TEST(NetworkTest, FlowRateVisibleWhileActive)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 80e6, 80e6);
    const NodeId b = f.net.addNode("b", 80e6, 80e6);
    const FlowId id = f.net.startFlow(a, b, 80 * kMB, nullptr);
    EXPECT_NEAR(f.net.flowRate(id), 80e6, 1.0);
    EXPECT_EQ(f.net.activeFlows(), 1u);
    f.sim.run();
    EXPECT_EQ(f.net.flowRate(id), 0.0);
    EXPECT_EQ(f.net.activeFlows(), 0u);
}

TEST(NetworkTest, MessageAcrossDownLinkRetriesUntilRestore)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 100e6, 100e6);
    const NodeId b = f.net.addNode("b", 100e6, 100e6);
    f.net.setLinkUp(b, false);

    bool delivered = false;
    SimTime delivered_at;
    f.net.sendMessage(a, b, 1024, [&] {
        delivered = true;
        delivered_at = f.sim.now();
    });
    // While the link is down the send keeps backing off, never drops.
    f.sim.runUntil(SimTime::millis(900));
    EXPECT_FALSE(delivered);
    EXPECT_GE(f.net.stats(a).messages_resent, 2u);

    f.sim.scheduleAt(SimTime::seconds(1),
                     [&] { f.net.setLinkUp(b, true); });
    f.sim.run();
    EXPECT_TRUE(delivered);
    // Delivery happens at the first retry after the link heals.
    EXPECT_GE(delivered_at, SimTime::seconds(1));
    EXPECT_LT(delivered_at, SimTime::seconds(4));
}

TEST(NetworkTest, FlowStallsDuringOutageAndResumes)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 100e6, 100e6);
    const NodeId b = f.net.addNode("b", 100e6, 100e6);
    SimTime elapsed;
    f.net.startFlow(a, b, 50 * kMB, [&](SimTime t) { elapsed = t; });
    // Nominal completion at 0.5 s; a 1 s outage in the middle stalls the
    // flow at rate 0 and it resumes where it left off.
    f.sim.scheduleAt(SimTime::millis(250),
                     [&] { f.net.setLinkUp(b, false); });
    f.sim.scheduleAt(SimTime::millis(1250),
                     [&] { f.net.setLinkUp(b, true); });
    f.sim.run();
    EXPECT_NEAR(elapsed.secondsF(), 1.5, 1e-6);
    EXPECT_EQ(f.net.stats(b).bytes_received, 50 * kMB);
}

TEST(NetworkTest, FlowStartedDuringOutageWaitsForRestore)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 100e6, 100e6);
    const NodeId b = f.net.addNode("b", 100e6, 100e6);
    f.net.setLinkUp(b, false);
    SimTime elapsed;
    const FlowId id =
        f.net.startFlow(a, b, 50 * kMB, [&](SimTime t) { elapsed = t; });
    f.sim.runUntil(SimTime::millis(600));
    EXPECT_EQ(f.net.activeFlows(), 1u);
    EXPECT_NEAR(f.net.flowRate(id), 0.0, 1e-9);

    f.sim.scheduleAt(SimTime::millis(700),
                     [&] { f.net.setLinkUp(b, true); });
    f.sim.run();
    // 0.7 s stalled + 0.5 s of transfer at the full 100 MB/s.
    EXPECT_NEAR(elapsed.secondsF(), 1.2, 1e-6);
}

TEST(NetworkTest, OutageDoesNotStallUnrelatedFlows)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 100e6, 100e6);
    const NodeId b = f.net.addNode("b", 100e6, 100e6);
    const NodeId c = f.net.addNode("c", 100e6, 100e6);
    const NodeId d = f.net.addNode("d", 100e6, 100e6);
    f.net.setLinkUp(d, false);
    SimTime t_ok, t_stalled;
    f.net.startFlow(a, b, 50 * kMB, [&](SimTime t) { t_ok = t; });
    f.net.startFlow(c, d, 50 * kMB, [&](SimTime t) { t_stalled = t; });
    f.sim.scheduleAt(SimTime::seconds(2), [&] { f.net.setLinkUp(d, true); });
    f.sim.run();
    EXPECT_NEAR(t_ok.secondsF(), 0.5, 1e-6);
    EXPECT_NEAR(t_stalled.secondsF(), 2.5, 1e-6);
}

TEST(NetworkDeathTest, SameNodeFlowPanics)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 1e6, 1e6);
    EXPECT_DEATH(f.net.startFlow(a, a, 10, nullptr), "same-node");
}

TEST(NetworkDeathTest, InvalidNodePanics)
{
    Fixture f;
    f.net.addNode("a", 1e6, 1e6);
    EXPECT_DEATH(f.net.sendMessage(0, 5, 10, [] {}), "invalid node");
}

/**
 * Property: with random flows, the max-min allocation never oversubscribes
 * any NIC, and every flow eventually completes with conserved bytes.
 */
class NetworkPropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(NetworkPropertyTest, AllFlowsCompleteAndConserveBytes)
{
    Rng rng(GetParam());
    sim::Simulator sim;
    Network net(sim);
    const int nodes = 4 + static_cast<int>(rng.uniformInt(0, 4));
    for (int i = 0; i < nodes; ++i) {
        net.addNode(strFormat("n%d", i), rng.uniform(10e6, 200e6),
                    rng.uniform(10e6, 200e6));
    }
    const int flows = 20;
    int64_t total_bytes = 0;
    int completed = 0;
    for (int i = 0; i < flows; ++i) {
        const NodeId src = static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
        NodeId dst;
        do {
            dst = static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
        } while (dst == src);
        const int64_t bytes = rng.uniformInt(1, 20) * kMB;
        total_bytes += bytes;
        const SimTime start = SimTime::seconds(rng.uniform(0, 2));
        sim.scheduleAt(start, [&net, &completed, src, dst, bytes] {
            net.startFlow(src, dst, bytes, [&](SimTime) { ++completed; });
        });
    }
    sim.run();
    EXPECT_EQ(completed, flows);
    int64_t sent = 0, received = 0;
    for (int i = 0; i < nodes; ++i) {
        sent += net.stats(i).bytes_sent;
        received += net.stats(i).bytes_received;
    }
    EXPECT_EQ(sent, total_bytes);
    EXPECT_EQ(received, total_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkPropertyTest,
                         ::testing::Values(3, 14, 159, 2653, 58979));

/**
 * Regression: with directional NICs, a component can hold a node as
 * *source* of one flow and *destination* of another only through a
 * connecting third flow — a->b and c->a are joined by c->b (which shares
 * in(b) with the first and eg(c) with the second). When that connector
 * drains, the survivors split into two components even though node `a`
 * touches both. The drain-time star fast path used to accept "one node
 * is an endpoint of every survivor" as proof of a single component and
 * armed one shared wakeup sentinel — stranding the other component, so
 * its flow never completed (and a later recompute could try to schedule
 * its long-expired ETA in the past).
 */
TEST(NetworkTest, TriangleDrainSplitsMixedDirectionComponent)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 100e6, 100e6);
    const NodeId b = f.net.addNode("b", 100e6, 100e6);
    const NodeId c = f.net.addNode("c", 100e6, 100e6);
    int completed = 0;
    // All three rates water-fill to 50 MB/s, so the 5 MB connector
    // drains first at t=0.1s with both survivors mid-flight.
    f.net.startFlow(a, b, 12 * kMB, [&](SimTime) { ++completed; });
    f.net.startFlow(c, b, 5 * kMB, [&](SimTime) { ++completed; });
    f.net.startFlow(c, a, 10 * kMB, [&](SimTime) { ++completed; });
    f.sim.run();
    EXPECT_EQ(completed, 3);
    EXPECT_EQ(f.net.activeFlows(), 0u);
    EXPECT_TRUE(f.net.ratesMatchFullRecompute());
}

/**
 * Property: across randomized churn — flow starts/drains, NIC bandwidth
 * changes, link outages and heals — the incrementally maintained rates
 * must match a from-scratch max-min recomputation bitwise at every
 * checkpoint. This is the oracle the incremental allocator is sold on.
 */
class NetworkOracleTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(NetworkOracleTest, IncrementalRatesMatchFullRecomputeUnderChurn)
{
    Rng rng(GetParam());
    sim::Simulator sim;
    Network::Config config;
    config.verify_rates = false;  // checked explicitly at checkpoints
    Network net(sim, config);
    const int nodes = 5 + static_cast<int>(rng.uniformInt(0, 3));
    for (int i = 0; i < nodes; ++i) {
        net.addNode(strFormat("n%d", i), rng.uniform(20e6, 200e6),
                    rng.uniform(20e6, 200e6));
    }
    int completed = 0;
    int flows = 0;
    for (int i = 0; i < 60; ++i) {
        const NodeId src = static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
        NodeId dst;
        do {
            dst = static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
        } while (dst == src);
        const int64_t bytes = rng.uniformInt(64, 8 * 1024) * 1024;
        const SimTime start = SimTime::seconds(rng.uniform(0.0, 2.0));
        sim.scheduleAt(start, [&net, &completed, src, dst, bytes] {
            net.startFlow(src, dst, bytes, [&](SimTime) { ++completed; });
        });
        ++flows;
    }
    // Mid-flight NIC reshaping.
    for (int i = 0; i < 8; ++i) {
        const NodeId node = static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
        const double eg = rng.uniform(20e6, 200e6);
        const double in = rng.uniform(20e6, 200e6);
        sim.scheduleAt(SimTime::seconds(rng.uniform(0.1, 2.0)),
                       [&net, node, eg, in] {
                           net.setNicBandwidth(node, eg, in);
                       });
    }
    // Link outages that heal before the horizon.
    for (int i = 0; i < 3; ++i) {
        const NodeId node = static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
        const double down_at = rng.uniform(0.2, 1.5);
        const double up_at = down_at + rng.uniform(0.05, 0.5);
        sim.scheduleAt(SimTime::seconds(down_at),
                       [&net, node] { net.setLinkUp(node, false); });
        sim.scheduleAt(SimTime::seconds(up_at),
                       [&net, node] { net.setLinkUp(node, true); });
    }
    // Oracle checkpoints sprinkled through the busy window.
    for (int i = 0; i < 40; ++i) {
        sim.scheduleAt(SimTime::seconds(rng.uniform(0.0, 2.5)), [&net] {
            EXPECT_TRUE(net.ratesMatchFullRecompute());
        });
    }
    sim.run();
    EXPECT_EQ(completed, flows);
    EXPECT_TRUE(net.ratesMatchFullRecompute());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkOracleTest,
                         ::testing::Values(7, 42, 1337, 31415, 271828));

/**
 * A seeded network workload, generated up front so every allocator
 * implementation replays the identical schedule of flow starts, NIC
 * reshapes and link outages.
 *
 * Star: a storage hub (node 0) at 50 MB/s each way and 7 workers at
 * 1.25 GB/s, 3,000 flows, half of them puts to the hub and half gets
 * from it. General: 5-8 nodes with random NICs and 200 flows between
 * random pairs. In both, every fourth flow is 4 MiB and every fifth
 * starts at one shared instant, so a (src, dst) pair holds many equal
 * flows whose ETAs tie. Faults add 8 NIC reshapes and 3 outages; a
 * star's first outage takes the hub down.
 */
struct Scenario
{
    struct Nic
    {
        double egress;
        double ingress;
    };
    struct Transfer
    {
        NodeId src;
        NodeId dst;
        int64_t bytes;
        SimTime start;
    };
    struct Reshape
    {
        NodeId node;
        double egress;
        double ingress;
        SimTime at;
    };
    struct Outage
    {
        NodeId node;
        SimTime down;
        SimTime up;
    };
    std::vector<Nic> nodes;
    std::vector<Transfer> flows;
    std::vector<Reshape> reshapes;
    std::vector<Outage> outages;
};

Scenario
makeScenario(uint64_t seed, bool star, bool faults)
{
    Rng rng(seed);
    Scenario s;
    int flows;
    double horizon_s;  // start times are drawn from [0, horizon_s)
    if (star) {
        s.nodes.push_back({50e6, 50e6});
        for (int i = 0; i < 7; ++i)
            s.nodes.push_back({1.25e9, 1.25e9});
        flows = 3000;
        horizon_s = 10.0;
    } else {
        const int nodes = 5 + static_cast<int>(rng.uniformInt(0, 3));
        for (int i = 0; i < nodes; ++i) {
            s.nodes.push_back(
                {rng.uniform(20e6, 200e6), rng.uniform(20e6, 200e6)});
        }
        flows = 200;
        horizon_s = 2.0;
    }
    const auto pick = [&](int lo) {
        return static_cast<NodeId>(
            rng.uniformInt(lo, static_cast<int64_t>(s.nodes.size()) - 1));
    };
    const SimTime burst = SimTime::seconds(horizon_s / 4);
    for (int i = 0; i < flows; ++i) {
        NodeId src;
        NodeId dst;
        if (star) {
            const NodeId worker = pick(1);
            const bool put = i % 2 == 0;
            src = put ? worker : 0;
            dst = put ? 0 : worker;
        } else {
            src = pick(0);
            do {
                dst = pick(0);
            } while (dst == src);
        }
        const int64_t bytes =
            i % 4 == 0 ? 4 * kMiB : rng.uniformInt(64, 2048) * kKiB;
        const SimTime start =
            i % 5 == 0 ? burst
                       : SimTime::seconds(rng.uniform(0.0, horizon_s));
        s.flows.push_back({src, dst, bytes, start});
    }
    if (!faults)
        return s;
    for (int i = 0; i < 8; ++i) {
        const NodeId node = pick(0);
        const Scenario::Nic& nic = s.nodes[static_cast<size_t>(node)];
        s.reshapes.push_back({node, nic.egress * rng.uniform(0.5, 2.0),
                              nic.ingress * rng.uniform(0.5, 2.0),
                              SimTime::seconds(rng.uniform(0.1, horizon_s))});
    }
    for (int i = 0; i < 3; ++i) {
        const NodeId node = star && i == 0 ? 0 : pick(star ? 1 : 0);
        const double down = rng.uniform(0.2, horizon_s * 0.75);
        s.outages.push_back({node, SimTime::seconds(down),
                             SimTime::seconds(down +
                                              rng.uniform(0.05, 0.5))});
    }
    return s;
}

/** What one replay of a Scenario produced. */
struct ScenarioRun
{
    /** Each completion's flow index, µs and elapsed µs, folded in
     *  callback order. */
    uint64_t digest = kFnv1aBasis;
    uint64_t events = 0;
    size_t completed = 0;
    size_t peak_active = 0;
    int64_t bytes_sent = 0;
    int64_t bytes_received = 0;
};

/** Replays `s` to completion. `on_checkpoint` runs at each of
 *  `checkpoints`, in the middle of the churn. */
ScenarioRun
runScenario(const Scenario& s, bool verify_rates,
            const std::vector<SimTime>& checkpoints = {},
            const std::function<void(Network&)>& on_checkpoint = nullptr)
{
    sim::Simulator sim;
    Network::Config config;
    config.verify_rates = verify_rates;
    Network net(sim, config);
    for (size_t i = 0; i < s.nodes.size(); ++i) {
        net.addNode(strFormat("n%zu", i), s.nodes[i].egress,
                    s.nodes[i].ingress);
    }
    ScenarioRun run;
    for (size_t i = 0; i < s.flows.size(); ++i) {
        const Scenario::Transfer& t = s.flows[i];
        sim.scheduleAt(t.start, [&, i, t] {
            net.startFlow(t.src, t.dst, t.bytes, [&, i](SimTime elapsed) {
                run.digest = fnv1aFoldWord(run.digest, i);
                run.digest = fnv1aFoldWord(
                    run.digest, static_cast<uint64_t>(sim.now().micros()));
                run.digest = fnv1aFoldWord(
                    run.digest, static_cast<uint64_t>(elapsed.micros()));
                ++run.completed;
            });
            run.peak_active = std::max(run.peak_active, net.activeFlows());
        });
    }
    for (const Scenario::Reshape& r : s.reshapes) {
        sim.scheduleAt(r.at, [&net, r] {
            net.setNicBandwidth(r.node, r.egress, r.ingress);
        });
    }
    for (const Scenario::Outage& o : s.outages) {
        sim.scheduleAt(o.down, [&net, o] { net.setLinkUp(o.node, false); });
        sim.scheduleAt(o.up, [&net, o] { net.setLinkUp(o.node, true); });
    }
    for (const SimTime at : checkpoints)
        sim.scheduleAt(at, [&net, &on_checkpoint] { on_checkpoint(net); });
    run.events = sim.run();
    for (size_t i = 0; i < s.nodes.size(); ++i) {
        run.bytes_sent += net.stats(static_cast<NodeId>(i)).bytes_sent;
        run.bytes_received +=
            net.stats(static_cast<NodeId>(i)).bytes_received;
    }
    return run;
}

int64_t
totalBytes(const Scenario& s)
{
    int64_t total = 0;
    for (const Scenario::Transfer& t : s.flows)
        total += t.bytes;
    return total;
}

/** One pinned scenario: its completion digest and fired-event count. */
struct GoldenCase
{
    uint64_t seed;
    bool star;
    bool faults;
    uint64_t digest;
    uint64_t events;
};

// gtest would otherwise print a GoldenCase as its raw bytes.
void
PrintTo(const GoldenCase& c, std::ostream* os)
{
    *os << (c.star ? "star" : "general") << (c.faults ? "_faults" : "_clean")
        << "_seed" << c.seed;
}

std::string
goldenName(const ::testing::TestParamInfo<GoldenCase>& info)
{
    std::ostringstream os;
    PrintTo(info.param, &os);
    return os.str();
}

/**
 * Pins the allocator's completion order and timing bit for bit: any
 * reordering of its floating-point work moves a completion by a µs, and
 * any change to its wakeup pattern moves the fired-event count. Rates
 * are the oracle tests' business, so the cross-check stays off.
 */
class NetworkGoldenTest : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(NetworkGoldenTest, CompletionsMatchPins)
{
    const GoldenCase& c = GetParam();
    const Scenario s = makeScenario(c.seed, c.star, c.faults);
    const ScenarioRun run = runScenario(s, /*verify_rates=*/false);
    EXPECT_EQ(run.completed, s.flows.size());
    EXPECT_EQ(run.bytes_received, totalBytes(s));
    EXPECT_EQ(run.digest, c.digest);
    EXPECT_EQ(run.events, c.events);
}

// Recorded from the allocator that walked and filled flow by flow; any
// later allocator must reproduce them exactly.
const GoldenCase kGoldenCases[] = {
    {1, true, false, 0x879b3a0b8f5297c4ULL, 5832},
    {1, true, true, 0x231bfd7dc283a877ULL, 5832},
    {1, false, false, 0x81c5071f0e72fc90ULL, 395},
    {1, false, true, 0xd0c960e59de1f528ULL, 402},
    {2, true, false, 0x41e931cdd3ca6a2eULL, 5817},
    {2, true, true, 0xbc363977bdbe9e36ULL, 5815},
    {2, false, false, 0xf11fdfafc867a5cfULL, 395},
    {2, false, true, 0x0cd5616cceb244caULL, 408},
    {3, true, false, 0x2691e549df8f045dULL, 5825},
    {3, true, true, 0x286f4fbe4e3ec4dcULL, 5830},
    {3, false, false, 0x2d83fa7b259281c0ULL, 397},
    {3, false, true, 0x67084c5b4e7c50c0ULL, 414},
    {4, true, false, 0x9bbcd3821a22e481ULL, 5823},
    {4, true, true, 0x6be178bee8a5b496ULL, 5817},
    {4, false, false, 0x92b97828fb3ea245ULL, 398},
    {4, false, true, 0x184cf7f8398d9056ULL, 413},
    {5, true, false, 0xb465ac4e27768b5cULL, 5823},
    {5, true, true, 0x141baa069c37cb02ULL, 5839},
    {5, false, false, 0x69d6bab60211a7c7ULL, 398},
    {5, false, true, 0x5da5dfd434685e26ULL, 413},
};

INSTANTIATE_TEST_SUITE_P(Pins, NetworkGoldenTest,
                         ::testing::ValuesIn(kGoldenCases), goldenName);

/**
 * The oracle under churn with large pair classes: the star scenario
 * keeps more than a thousand flows in flight over 14 (src, dst) pairs,
 * while NIC reshapes and outages at the hub and at a worker move every
 * rate. The incremental rates must match a from-scratch, flow-by-flow
 * recompute bitwise at 40 checkpoints across the busy window.
 */
TEST(NetworkOracleTest, LargeClassesMatchFullRecomputeUnderStarChurn)
{
    const Scenario s = makeScenario(11, /*star=*/true, /*faults=*/true);
    ASSERT_EQ(s.outages.front().node, 0);  // the hub
    Rng rng(12);
    std::vector<SimTime> checkpoints;
    for (int i = 0; i < 40; ++i)
        checkpoints.push_back(SimTime::seconds(rng.uniform(0.0, 20.0)));
    int mismatches = 0;
    const ScenarioRun run =
        runScenario(s, /*verify_rates=*/false, checkpoints,
                    [&](Network& net) {
                        if (!net.ratesMatchFullRecompute())
                            ++mismatches;
                    });
    EXPECT_EQ(mismatches, 0);
    EXPECT_GE(run.peak_active, 1000u);
    EXPECT_EQ(run.completed, s.flows.size());
    EXPECT_EQ(run.bytes_sent, totalBytes(s));
    EXPECT_EQ(run.bytes_received, totalBytes(s));
}

/**
 * nodeActiveFlows is the storage queue gauge: it counts every flow at
 * both of its endpoints, stalled ones included, and drains to zero.
 * flowRate reads 0 for a stalled flow and for a finished one.
 */
TEST(NetworkTest, NodeFlowCountsIncludeStalledFlowsAndDrain)
{
    Fixture f;
    const NodeId a = f.net.addNode("a", 100e6, 100e6);
    const NodeId b = f.net.addNode("b", 100e6, 100e6);
    const NodeId c = f.net.addNode("c", 100e6, 100e6);
    const FlowId ab1 = f.net.startFlow(a, b, 10 * kMB, nullptr);
    const FlowId ab2 = f.net.startFlow(a, b, 10 * kMB, nullptr);
    const FlowId cb = f.net.startFlow(c, b, 10 * kMB, nullptr);
    EXPECT_EQ(f.net.nodeActiveFlows(a), 2u);
    EXPECT_EQ(f.net.nodeActiveFlows(b), 3u);
    EXPECT_EQ(f.net.nodeActiveFlows(c), 1u);
    EXPECT_DOUBLE_EQ(f.net.flowRate(ab1), 100e6 / 3);

    f.sim.runUntil(SimTime::millis(30));
    f.net.setLinkUp(a, false);
    // a's flows stall but stay counted; c->b inherits b's whole ingress.
    EXPECT_EQ(f.net.flowRate(ab1), 0.0);
    EXPECT_EQ(f.net.flowRate(ab2), 0.0);
    EXPECT_DOUBLE_EQ(f.net.flowRate(cb), 100e6);
    EXPECT_EQ(f.net.nodeActiveFlows(a), 2u);
    EXPECT_EQ(f.net.nodeActiveFlows(b), 3u);

    // A flow started during the outage is born stalled and counted.
    const FlowId ac = f.net.startFlow(a, c, 10 * kMB, nullptr);
    EXPECT_EQ(f.net.flowRate(ac), 0.0);
    EXPECT_EQ(f.net.nodeActiveFlows(a), 3u);
    EXPECT_EQ(f.net.nodeActiveFlows(c), 2u);
    EXPECT_EQ(f.net.activeFlows(), 4u);

    f.sim.scheduleAt(SimTime::millis(200), [&] { f.net.setLinkUp(a, true); });
    f.sim.run();
    EXPECT_EQ(f.net.activeFlows(), 0u);
    for (const NodeId n : {a, b, c})
        EXPECT_EQ(f.net.nodeActiveFlows(n), 0u);
    for (const FlowId id : {ab1, ab2, cb, ac})
        EXPECT_EQ(f.net.flowRate(id), 0.0);
}

}  // namespace
}  // namespace faasflow::net
