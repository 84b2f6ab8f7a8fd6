/** @file Tests for graph partitioning: hash partition, Algorithm 1
 *  (greedy grouping, capacity/quota/contention constraints, bin-pack),
 *  feedback, and placement helpers. */
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/units.h"
#include "scheduler/feedback.h"
#include "scheduler/graph_scheduler.h"
#include "scheduler/partition.h"
#include "workflow/analysis.h"
#include "workflow/dagen.h"
#include "workflow/wdl.h"

namespace faasflow::scheduler {
namespace {

using workflow::Dag;
using workflow::NodeId;

/** Chain a -> b -> c -> d with descending edge weights. */
workflow::WdlResult
chainWorkflow()
{
    return workflow::parseWdlYaml(
        "name: chain\n"
        "functions:\n"
        "  - name: a\n"
        "    exec_ms: 100\n"
        "    peak_mb: 100\n"
        "  - name: b\n"
        "    exec_ms: 100\n"
        "    peak_mb: 100\n"
        "  - name: c\n"
        "    exec_ms: 100\n"
        "    peak_mb: 100\n"
        "  - name: d\n"
        "    exec_ms: 100\n"
        "    peak_mb: 100\n"
        "steps:\n"
        "  - task: a\n"
        "    output_mb: 30\n"
        "  - task: b\n"
        "    output_mb: 20\n"
        "  - task: c\n"
        "    output_mb: 10\n"
        "  - task: d\n");
}

cluster::FunctionRegistry
registryFor(const workflow::WdlResult& wdl)
{
    cluster::FunctionRegistry registry;
    for (const auto& spec : wdl.functions)
        registry.add(spec);
    return registry;
}

// ---------------------------------------------------------------- Hash

TEST(HashPartitionTest, DeterministicAndInRange)
{
    const auto wdl = chainWorkflow();
    const Placement p1 = hashPartition(wdl.dag, 7, 0);
    const Placement p2 = hashPartition(wdl.dag, 7, 0);
    EXPECT_EQ(p1.worker_of, p2.worker_of);
    for (const int w : p1.worker_of) {
        EXPECT_GE(w, 0);
        EXPECT_LT(w, 7);
    }
    EXPECT_TRUE(p1.valid());
    EXPECT_EQ(p1.version, 0);
    // First iteration: everything is DB.
    for (const bool mem : p1.storage_mem)
        EXPECT_FALSE(mem);
}

TEST(HashPartitionTest, GroupsCoverEveryNodeExactlyOnce)
{
    const auto wdl = chainWorkflow();
    const Placement p = hashPartition(wdl.dag, 3, 0);
    std::set<NodeId> seen;
    for (const auto& group : p.groups) {
        for (const NodeId id : group)
            EXPECT_TRUE(seen.insert(id).second);
    }
    EXPECT_EQ(seen.size(), wdl.dag.nodeCount());
}

TEST(HashPartitionTest, VirtualFencesFollowRealNeighbours)
{
    const auto wdl = workflow::parseWdlYaml(
        "name: p\n"
        "steps:\n"
        "  - task: pre\n"
        "  - parallel:\n"
        "      branches:\n"
        "        - steps:\n"
        "            - task: x\n"
        "        - steps:\n"
        "            - task: y\n"
        "  - task: post\n");
    ASSERT_TRUE(wdl.ok());
    const Placement p = hashPartition(wdl.dag, 5, 0);
    const NodeId start = wdl.dag.findByName("parallel.start");
    const NodeId x = wdl.dag.findByName("x");
    EXPECT_EQ(p.workerOf(start), p.workerOf(x));
}

// ------------------------------------------------------------ Algorithm 1

PartitionContext
contextWith(int workers, int cap, int64_t quota)
{
    PartitionContext ctx;
    ctx.capacity.assign(static_cast<size_t>(workers), cap);
    ctx.quota = quota;
    return ctx;
}

TEST(GreedyGrouperTest, MergesHeaviestEdgesWithinQuota)
{
    auto wdl = chainWorkflow();
    const auto registry = registryFor(wdl);
    RuntimeFeedback feedback;
    GreedyGrouper grouper(wdl.dag, registry, feedback,
                          contextWith(4, 100, 1000 * kMB), Rng(1));
    const Placement p = grouper.run(1);
    EXPECT_EQ(p.version, 1);
    // Everything fits on one worker: the whole chain collapses to one
    // group and all data-producing nodes get StorageType MEM.
    EXPECT_EQ(p.groups.size(), 1u);
    const NodeId a = wdl.dag.findByName("a");
    const NodeId b = wdl.dag.findByName("b");
    EXPECT_TRUE(p.storage_mem[static_cast<size_t>(a)]);
    EXPECT_TRUE(p.storage_mem[static_cast<size_t>(b)]);
    EXPECT_GE(grouper.mergeCount(), 3);
    EXPECT_EQ(grouper.memConsumed(), 60 * kMB);
}

TEST(GreedyGrouperTest, QuotaBlocksLocalization)
{
    auto wdl = chainWorkflow();
    const auto registry = registryFor(wdl);
    RuntimeFeedback feedback;
    // Quota below the smallest edge (10 MB): no data edge may merge.
    GreedyGrouper grouper(wdl.dag, registry, feedback,
                          contextWith(4, 100, 5 * kMB), Rng(1));
    const Placement p = grouper.run(1);
    EXPECT_EQ(grouper.memConsumed(), 0);
    for (const bool mem : p.storage_mem)
        EXPECT_FALSE(mem);
}

TEST(GreedyGrouperTest, PartialQuotaLocalizesHeaviestFirst)
{
    auto wdl = chainWorkflow();
    const auto registry = registryFor(wdl);
    RuntimeFeedback feedback;
    // Room for the 30 MB and 20 MB edges but not the 10 MB one after.
    GreedyGrouper grouper(wdl.dag, registry, feedback,
                          contextWith(4, 100, 55 * kMB), Rng(1));
    const Placement p = grouper.run(1);
    const NodeId a = wdl.dag.findByName("a");
    const NodeId b = wdl.dag.findByName("b");
    const NodeId c = wdl.dag.findByName("c");
    EXPECT_TRUE(p.storage_mem[static_cast<size_t>(a)]);
    EXPECT_TRUE(p.storage_mem[static_cast<size_t>(b)]);
    EXPECT_FALSE(p.storage_mem[static_cast<size_t>(c)]);
    EXPECT_EQ(grouper.memConsumed(), 50 * kMB);
}

TEST(GreedyGrouperTest, CapacityLimitsGroupSize)
{
    auto wdl = chainWorkflow();
    const auto registry = registryFor(wdl);
    RuntimeFeedback feedback;
    // Each worker fits only 2 containers: a 4-node chain cannot fully
    // collapse; expect at least 2 groups.
    GreedyGrouper grouper(wdl.dag, registry, feedback,
                          contextWith(4, 2, 1000 * kMB), Rng(1));
    const Placement p = grouper.run(1);
    EXPECT_GE(p.groups.size(), 2u);
    // No worker hosts more nodes than its capacity.
    auto counts = p.nodesPerWorker(4);
    for (const int c : counts)
        EXPECT_LE(c, 2);
}

TEST(GreedyGrouperTest, ContentionPairNeverShares)
{
    auto wdl = chainWorkflow();
    const auto registry = registryFor(wdl);
    RuntimeFeedback feedback;
    PartitionContext ctx = contextWith(4, 100, 1000 * kMB);
    ctx.contention.insert({"a", "b"});
    GreedyGrouper grouper(wdl.dag, registry, feedback, std::move(ctx),
                          Rng(1));
    const Placement p = grouper.run(1);
    const NodeId a = wdl.dag.findByName("a");
    const NodeId b = wdl.dag.findByName("b");
    int ga = -1, gb = -1;
    for (size_t g = 0; g < p.groups.size(); ++g) {
        for (const NodeId id : p.groups[g]) {
            if (id == a)
                ga = static_cast<int>(g);
            if (id == b)
                gb = static_cast<int>(g);
        }
    }
    EXPECT_NE(ga, gb);
}

TEST(GreedyGrouperTest, ScaleFeedbackInflatesDemand)
{
    auto wdl = chainWorkflow();
    const auto registry = registryFor(wdl);
    RuntimeFeedback feedback;
    // Each function scales to 3 instances: a group of 2 functions needs
    // 6 slots, so capacity 5 forbids any merge beyond pairs... capacity 5
    // allows one pair (6 > 5 means not even a pair).
    for (const char* n : {"a", "b", "c", "d"})
        feedback.recordScale(n, 3.0);
    GreedyGrouper grouper(wdl.dag, registry, feedback,
                          contextWith(4, 5, 1000 * kMB), Rng(1));
    const Placement p = grouper.run(1);
    EXPECT_EQ(p.groups.size(), 4u);  // nothing merged
}

TEST(ContentionTest, ConflictIsOrderInsensitive)
{
    PartitionContext ctx;
    ctx.contention.insert({"x", "y"});
    EXPECT_TRUE(ctx.conflicts("x", "y"));
    EXPECT_TRUE(ctx.conflicts("y", "x"));
    EXPECT_FALSE(ctx.conflicts("x", "z"));
}

// -------------------------------------------------------------- Feedback

TEST(FeedbackTest, DefaultsAreOne)
{
    RuntimeFeedback f;
    EXPECT_DOUBLE_EQ(f.scale("unknown"), 1.0);
}

TEST(FeedbackTest, AveragesObservations)
{
    RuntimeFeedback f;
    f.recordScale("n", 2.0);
    f.recordScale("n", 4.0);
    EXPECT_DOUBLE_EQ(f.scale("n"), 3.0);
    f.clear();
    EXPECT_DOUBLE_EQ(f.scale("n"), 1.0);
}

TEST(FeedbackTest, EdgeWeightsApplyP99)
{
    auto wdl = chainWorkflow();
    RuntimeFeedback f;
    for (int i = 1; i <= 100; ++i)
        f.recordEdgeLatency(0, SimTime::millis(i));
    EXPECT_TRUE(f.hasEdgeSamples());
    f.applyEdgeWeights(wdl.dag);
    EXPECT_NEAR(wdl.dag.edge(0).weight.millisF(), 99.0, 0.2);
    // Unsampled edges keep their seed weight.
    EXPECT_NEAR(wdl.dag.edge(1).weight.secondsF(), 20e6 / 50e6, 1e-6);
}

// ----------------------------------------------------------- Placement

TEST(PlacementTest, AllConsumersLocal)
{
    auto wdl = chainWorkflow();
    Placement p = hashPartition(wdl.dag, 7, 0);
    const NodeId a = wdl.dag.findByName("a");
    const NodeId b = wdl.dag.findByName("b");
    // Force a and b onto worker 0 and everything else elsewhere.
    for (auto& w : p.worker_of)
        w = 1;
    p.worker_of[static_cast<size_t>(a)] = 0;
    p.worker_of[static_cast<size_t>(b)] = 0;
    const workflow::DagIndex index = workflow::indexDag(wdl.dag);
    EXPECT_TRUE(p.allConsumersLocal(index, a));
    EXPECT_FALSE(p.allConsumersLocal(index, b));  // c is remote
}

TEST(PlacementTest, NodesPerWorkerCounts)
{
    auto wdl = chainWorkflow();
    Placement p = hashPartition(wdl.dag, 2, 0);
    const auto counts = p.nodesPerWorker(2);
    EXPECT_EQ(counts[0] + counts[1], static_cast<int>(wdl.dag.nodeCount()));
}

// ------------------------------------------------------- GraphScheduler

TEST(GraphSchedulerTest, QuotaUsesMapFeedback)
{
    const auto wdl = workflow::parseWdlYaml(
        "name: q\n"
        "functions:\n"
        "  - name: body\n"
        "    mem_mb: 256\n"
        "    peak_mb: 120\n"
        "steps:\n"
        "  - task: pre\n"
        "  - foreach:\n"
        "      width: 4\n"
        "      steps:\n"
        "        - task: body\n"
        "  - task: post\n");
    ASSERT_TRUE(wdl.ok());
    cluster::FunctionRegistry registry;
    for (const auto& spec : wdl.functions)
        registry.add(spec);
    // pre/post were not declared: give them defaults with zero headroom.
    cluster::FunctionSpec other;
    other.mem_provisioned = 256 * kMiB;
    other.mem_peak = 256 * kMiB;
    other.name = "pre";
    registry.add(other);
    other.name = "post";
    registry.add(other);

    GraphScheduler::Config config;
    GraphScheduler scheduler(registry, config);
    const int64_t quota = scheduler.computeQuota(wdl.dag);
    // body: (256 MB - 120 MB - 32 MiB headroom) * width 4; pre/post: 0.
    const int64_t per =
        256 * kMB - 120 * kMB - config.headroom;
    EXPECT_EQ(quota, 4 * per);
}

TEST(GraphSchedulerTest, IterateBumpsVersionAndAppliesWeights)
{
    auto wdl = chainWorkflow();
    const auto registry = registryFor(wdl);
    GraphScheduler scheduler(registry);
    RuntimeFeedback feedback;
    feedback.recordEdgeLatency(0, SimTime::millis(500));
    const Placement p =
        scheduler.iterate(wdl.dag, feedback, {10, 10, 10}, 0);
    EXPECT_EQ(p.version, 1);
    EXPECT_EQ(wdl.dag.edge(0).weight, SimTime::millis(500));
    EXPECT_TRUE(p.valid());
}

/** Property: Algorithm 1 on random workflows always yields a placement
 *  covering every node exactly once with workers in range. */
class GrouperPropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(GrouperPropertyTest, PlacementInvariants)
{
    Rng rng(GetParam());
    // Random layered workflow through the WDL path.
    std::string yaml = "name: rand\nsteps:\n";
    const int layers = 2 + static_cast<int>(rng.uniformInt(0, 3));
    for (int l = 0; l < layers; ++l) {
        if (rng.uniform() < 0.4) {
            const int branches = 2 + static_cast<int>(rng.uniformInt(0, 3));
            yaml += "  - parallel:\n      branches:\n";
            for (int b = 0; b < branches; ++b) {
                yaml += "        - steps:\n";
                yaml += strFormat(
                    "            - task: f%d_%d\n              output_mb: "
                    "%d\n",
                    l, b, static_cast<int>(rng.uniformInt(0, 20)));
            }
        } else {
            yaml += strFormat("  - task: f%d\n    output_mb: %d\n", l,
                              static_cast<int>(rng.uniformInt(0, 20)));
        }
    }
    auto wdl = workflow::parseWdlYaml(yaml);
    ASSERT_TRUE(wdl.ok()) << wdl.error;

    cluster::FunctionRegistry registry;
    for (const auto& node : wdl.dag.nodes()) {
        if (node.isTask() && !registry.contains(node.function)) {
            cluster::FunctionSpec spec;
            spec.name = node.function;
            registry.add(spec);
        }
    }
    RuntimeFeedback feedback;
    const int workers = 2 + static_cast<int>(rng.uniformInt(0, 5));
    const int cap = 3 + static_cast<int>(rng.uniformInt(0, 20));
    GreedyGrouper grouper(
        wdl.dag, registry, feedback,
        contextWith(workers, cap, rng.uniformInt(0, 200) * kMB),
        Rng(GetParam() + 1));
    const Placement p = grouper.run(1);

    ASSERT_TRUE(p.valid());
    EXPECT_EQ(p.worker_of.size(), wdl.dag.nodeCount());
    std::set<NodeId> seen;
    for (size_t g = 0; g < p.groups.size(); ++g) {
        for (const NodeId id : p.groups[g]) {
            EXPECT_TRUE(seen.insert(id).second);
            // Every member of a group sits on the group's worker.
            EXPECT_EQ(p.workerOf(id), p.group_worker[g]);
        }
    }
    EXPECT_EQ(seen.size(), wdl.dag.nodeCount());
    for (const int w : p.worker_of) {
        EXPECT_GE(w, 0);
        EXPECT_LT(w, workers);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrouperPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));

// ------------------------------------------------------------ Edge cases

/** Registry with default specs for every task node in a raw Dag. */
cluster::FunctionRegistry
registryForDag(const Dag& dag)
{
    cluster::FunctionRegistry registry;
    for (const auto& node : dag.nodes()) {
        if (node.isTask() && !registry.contains(node.function)) {
            cluster::FunctionSpec spec;
            spec.name = node.function;
            registry.add(spec);
        }
    }
    return registry;
}

TEST(PartitionEdgeCaseTest, SingleNodeDag)
{
    Dag dag("solo");
    workflow::DagNode only;
    only.name = "only";
    only.kind = workflow::StepKind::Task;
    only.function = "only";
    dag.addNode(only);

    const Placement hashed = hashPartition(dag, 3, 0);
    ASSERT_TRUE(hashed.valid());
    ASSERT_EQ(hashed.worker_of.size(), 1u);
    EXPECT_GE(hashed.worker_of[0], 0);
    EXPECT_LT(hashed.worker_of[0], 3);

    const auto registry = registryForDag(dag);
    RuntimeFeedback feedback;
    GreedyGrouper grouper(dag, registry, feedback,
                          contextWith(3, 10, 1000 * kMB), Rng(1));
    const Placement p = grouper.run(1);
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(p.groups.size(), 1u);
    EXPECT_EQ(p.groups[0].size(), 1u);
    // A lone node has no data edges: nothing to localize or merge.
    EXPECT_EQ(grouper.mergeCount(), 0);
    EXPECT_EQ(grouper.memConsumed(), 0);
    EXPECT_FALSE(p.storage_mem[0]);
}

TEST(PartitionEdgeCaseTest, DisconnectedComponentsAllPlaced)
{
    // Two independent chains sharing one Dag: a0 -> a1 and b0 -> b1.
    // Submitting unrelated flows as one graph must not confuse either
    // partitioner: every node still gets exactly one worker and groups
    // never mix nodes with no path between them... unless capacity does
    // (which is legal), so only placement invariants are asserted.
    Dag dag("disconnected");
    for (const char* name : {"a0", "a1", "b0", "b1"}) {
        workflow::DagNode node;
        node.name = name;
        node.kind = workflow::StepKind::Task;
        node.function = name;
        dag.addNode(node);
    }
    dag.addEdge(dag.findByName("a0"), dag.findByName("a1"), 30 * kMB,
                SimTime::millis(600));
    dag.addEdge(dag.findByName("b0"), dag.findByName("b1"), 20 * kMB,
                SimTime::millis(400));

    const Placement hashed = hashPartition(dag, 4, 0);
    ASSERT_TRUE(hashed.valid());
    EXPECT_EQ(hashed.worker_of.size(), 4u);

    const auto registry = registryForDag(dag);
    RuntimeFeedback feedback;
    GreedyGrouper grouper(dag, registry, feedback,
                          contextWith(4, 10, 1000 * kMB), Rng(1));
    const Placement p = grouper.run(1);
    ASSERT_TRUE(p.valid());
    // Both components' edges fit the quota: each chain collapses, giving
    // two merges and both producers in memory storage.
    EXPECT_EQ(grouper.mergeCount(), 2);
    EXPECT_EQ(grouper.memConsumed(), 50 * kMB);
    EXPECT_EQ(p.workerOf(dag.findByName("a0")),
              p.workerOf(dag.findByName("a1")));
    EXPECT_EQ(p.workerOf(dag.findByName("b0")),
              p.workerOf(dag.findByName("b1")));
    std::set<NodeId> seen;
    for (const auto& group : p.groups)
        for (const NodeId id : group)
            EXPECT_TRUE(seen.insert(id).second);
    EXPECT_EQ(seen.size(), dag.nodeCount());
}

TEST(PartitionEdgeCaseTest, GenerousQuotaCollapsesGraphOntoOneWorker)
{
    auto wdl = chainWorkflow();
    const auto registry = registryFor(wdl);
    RuntimeFeedback feedback;
    // Quota and capacity both effectively unbounded: Algorithm 1 should
    // fold the entire workflow into a single group on a single worker
    // with every producing node promoted to in-memory storage.
    GreedyGrouper grouper(
        wdl.dag, registry, feedback,
        contextWith(8, 1000, std::numeric_limits<int64_t>::max() / 4),
        Rng(3));
    const Placement p = grouper.run(1);
    ASSERT_TRUE(p.valid());
    ASSERT_EQ(p.groups.size(), 1u);
    const int home = p.worker_of.front();
    for (const int w : p.worker_of)
        EXPECT_EQ(w, home);
    EXPECT_EQ(grouper.mergeCount(),
              static_cast<int>(wdl.dag.nodeCount()) - 1);
    const NodeId d = wdl.dag.findByName("d");
    for (size_t i = 0; i < p.storage_mem.size(); ++i) {
        // Terminal node d produces nothing; everything upstream is MEM.
        if (static_cast<NodeId>(i) == d)
            EXPECT_FALSE(p.storage_mem[i]);
        else
            EXPECT_TRUE(p.storage_mem[i]);
    }
}

// --------------------- Generator-driven fuzz (workflow/dagen.h grid)

/** Shared oracle: a placement covers every node exactly once (groups
 *  are disjoint and exhaustive), group members sit on their group's
 *  worker, and all workers are in range. */
void
checkPlacementInvariants(const Dag& dag, const Placement& p, int workers,
                         const std::string& repro)
{
    ASSERT_TRUE(p.valid()) << repro;
    ASSERT_EQ(p.worker_of.size(), dag.nodeCount()) << repro;
    std::set<NodeId> seen;
    for (size_t g = 0; g < p.groups.size(); ++g) {
        for (const NodeId id : p.groups[g]) {
            EXPECT_TRUE(seen.insert(id).second)
                << "node in two groups: " << repro;
            EXPECT_EQ(p.workerOf(id), p.group_worker[g]) << repro;
        }
    }
    EXPECT_EQ(seen.size(), dag.nodeCount()) << repro;
    for (const int w : p.worker_of) {
        EXPECT_GE(w, 0) << repro;
        EXPECT_LT(w, workers) << repro;
    }
}

class GeneratedPartitionFuzz : public ::testing::TestWithParam<uint64_t>
{
};

/** Fuzz both partitioners over the generator's regime grid with swept
 *  cluster knobs — worker counts down to 1, tiny capacities, and a
 *  zero-quota corner where nothing may be localized. Any failure
 *  message is a faasflow_gen reproducer. */
TEST_P(GeneratedPartitionFuzz, GeneratedDagsKeepCoverAndQuotaInvariants)
{
    const uint64_t seed = GetParam();
    for (const workflow::Regime regime : workflow::allRegimes()) {
        for (int c = 0; c < 10; ++c) {
            workflow::GenSpec spec;
            spec.regime = regime;
            spec.seed = seed * 7919 + static_cast<uint64_t>(c);
            spec.nodes = workflow::regimeMinNodes(regime) + (c * 13) % 37;
            spec.edge_density = (c % 5) / 4.0;
            spec.width_max = 2 + c % 6;
            spec.width_min = std::min(2, spec.width_max);
            const auto gen = workflow::generate(spec);
            ASSERT_TRUE(gen.ok()) << gen.error;
            const std::string repro = strFormat(
                "faasflow_gen --regime %s --seed %llu --nodes %d",
                workflow::regimeName(regime),
                static_cast<unsigned long long>(spec.seed), spec.nodes);

            const int workers = 1 + static_cast<int>((seed + c) % 7);
            const Placement hashed = hashPartition(gen.dag, workers, 0);
            checkPlacementInvariants(gen.dag, hashed, workers, repro);
            // First-iteration placement is a pure function of the graph.
            EXPECT_EQ(hashed.worker_of,
                      hashPartition(gen.dag, workers, 0).worker_of)
                << repro;

            cluster::FunctionRegistry registry;
            for (const auto& f : gen.functions)
                registry.add(f);
            RuntimeFeedback feedback;
            const int cap = 1 + static_cast<int>((seed * 31 + c) % 24);
            const int64_t quota =
                c % 3 == 0 ? 0 : static_cast<int64_t>(c * 37 % 200) * kMB;
            GreedyGrouper grouper(gen.dag, registry, feedback,
                                  contextWith(workers, cap, quota),
                                  Rng(seed + static_cast<uint64_t>(c)));
            const Placement p = grouper.run(1);
            checkPlacementInvariants(gen.dag, p, workers, repro);

            // Quota invariant (Eq. 2): localized bytes never exceed the
            // budget; with quota 0 nothing gets StorageType MEM.
            EXPECT_GE(grouper.memConsumed(), 0) << repro;
            EXPECT_LE(grouper.memConsumed(), quota) << repro;
            if (quota == 0) {
                for (size_t i = 0; i < p.storage_mem.size(); ++i)
                    EXPECT_FALSE(p.storage_mem[i]) << repro;
            }
        }
    }
}

/** Disconnected shapes: two generated components glued into one Dag
 *  (unrelated flows submitted as a single graph). Placement invariants
 *  must hold and no phantom cross-component edge may appear. */
TEST_P(GeneratedPartitionFuzz, DisconnectedUnionsPlaceEveryComponent)
{
    const uint64_t seed = GetParam();
    workflow::GenSpec left, right;
    left.regime = workflow::Regime::Chain;
    left.seed = seed;
    left.nodes = 1 + static_cast<int>(seed % 6);  // down to a lone node
    right.regime = workflow::Regime::Diamond;
    right.seed = seed + 1;
    right.nodes = 5 + static_cast<int>(seed % 9);
    const auto a = workflow::generate(left);
    const auto b = workflow::generate(right);
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;

    Dag dag("union");
    cluster::FunctionRegistry registry;
    const auto graft = [&](const workflow::GeneratedWorkflow& gen,
                           const std::string& prefix) {
        std::vector<NodeId> map;
        for (const auto& node : gen.dag.nodes()) {
            workflow::DagNode copy = node;
            copy.name = prefix + copy.name;
            map.push_back(dag.addNode(copy));
        }
        for (const auto& edge : gen.dag.edges()) {
            dag.addEdge(map[static_cast<size_t>(edge.from)],
                        map[static_cast<size_t>(edge.to)],
                        edge.dataBytes(), edge.weight);
        }
        for (const auto& f : gen.functions) {
            if (!registry.contains(f.name))
                registry.add(f);
        }
    };
    graft(a, "l_");
    graft(b, "r_");

    const std::string repro = strFormat(
        "union of chain seed %llu and diamond seed %llu",
        static_cast<unsigned long long>(left.seed),
        static_cast<unsigned long long>(right.seed));
    const int workers = 2 + static_cast<int>(seed % 5);
    checkPlacementInvariants(dag, hashPartition(dag, workers, 0), workers,
                             repro);

    RuntimeFeedback feedback;
    GreedyGrouper grouper(dag, registry, feedback,
                          contextWith(workers, 8, 256 * kMB), Rng(seed));
    const Placement p = grouper.run(1);
    checkPlacementInvariants(dag, p, workers, repro);
    // No group may mix the components: there is no path between them,
    // so no critical-path edge ever crosses, and merges are edge-driven.
    for (const auto& group : p.groups) {
        bool has_a = false, has_b = false;
        for (const NodeId id : group) {
            const std::string& name = dag.node(id).name;
            (name.rfind("l_", 0) == 0 ? has_a : has_b) = true;
        }
        EXPECT_FALSE(has_a && has_b) << repro;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedPartitionFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Pinned fixtures: corners the fuzz grid found worth keeping explicit.
// Each is the minimized (regime, seed, nodes, knobs) tuple — regenerate
// with the faasflow_gen line in the comment.

/** faasflow_gen --regime montage --seed 3 --nodes 1: the smallest
 *  montage quantum (p=2, 12 nodes) on a single worker of capacity 1 —
 *  the grouper must still place everything with zero merges possible
 *  beyond capacity. */
TEST(GeneratedPartitionRegression, MontageQuantumOnSaturatedWorker)
{
    workflow::GenSpec spec;
    spec.regime = workflow::Regime::Montage;
    spec.seed = 3;
    spec.nodes = 1;
    const auto gen = workflow::generate(spec);
    ASSERT_TRUE(gen.ok()) << gen.error;
    ASSERT_EQ(gen.dag.nodeCount(), 12u);

    cluster::FunctionRegistry registry;
    for (const auto& f : gen.functions)
        registry.add(f);
    RuntimeFeedback feedback;
    GreedyGrouper grouper(gen.dag, registry, feedback,
                          contextWith(1, 1, 64 * kMB), Rng(3));
    const Placement p = grouper.run(1);
    checkPlacementInvariants(gen.dag, p, 1, "montage quantum");
}

/** faasflow_gen --regime fanout --seed 11 --nodes 3: the minimum legal
 *  fan-out (source, one worker task, sink) with quota 0 — the merge
 *  chain must not localize a single byte. */
TEST(GeneratedPartitionRegression, MinimumFanOutWithZeroQuota)
{
    workflow::GenSpec spec;
    spec.regime = workflow::Regime::FanOut;
    spec.seed = 11;
    spec.nodes = 3;
    const auto gen = workflow::generate(spec);
    ASSERT_TRUE(gen.ok()) << gen.error;

    cluster::FunctionRegistry registry;
    for (const auto& f : gen.functions)
        registry.add(f);
    RuntimeFeedback feedback;
    GreedyGrouper grouper(gen.dag, registry, feedback,
                          contextWith(4, 16, 0), Rng(11));
    const Placement p = grouper.run(1);
    checkPlacementInvariants(gen.dag, p, 4, "min fanout, zero quota");
    EXPECT_EQ(grouper.memConsumed(), 0);
    for (size_t i = 0; i < p.storage_mem.size(); ++i)
        EXPECT_FALSE(p.storage_mem[i]);
}

}  // namespace
}  // namespace faasflow::scheduler
