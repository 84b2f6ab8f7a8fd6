/** @file Tests for the DAG data structure and graph analysis. */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/units.h"
#include "workflow/analysis.h"
#include "workflow/dag.h"
#include "workflow/wdl.h"

namespace faasflow::workflow {
namespace {

DagNode
task(const std::string& name, double exec_ms = 100)
{
    DagNode n;
    n.name = name;
    n.function = "fn_" + name;
    n.exec_estimate = SimTime::millis(exec_ms);
    return n;
}

DagNode
virt(const std::string& name, StepKind kind)
{
    DagNode n;
    n.name = name;
    n.kind = kind;
    return n;
}

/** a -> b -> d, a -> c -> d (diamond). */
Dag
diamond()
{
    Dag dag("diamond");
    const NodeId a = dag.addNode(task("a", 100));
    const NodeId b = dag.addNode(task("b", 200));
    const NodeId c = dag.addNode(task("c", 50));
    const NodeId d = dag.addNode(task("d", 100));
    dag.addEdge(a, b, 10 * 1000 * 1000, SimTime::millis(5));
    dag.addEdge(a, c, 1000, SimTime::millis(1));
    dag.addEdge(b, d, 2000, SimTime::millis(2));
    dag.addEdge(c, d, 3000, SimTime::millis(3));
    return dag;
}

TEST(DagTest, ConstructionAndAdjacency)
{
    const Dag dag = diamond();
    EXPECT_EQ(dag.nodeCount(), 4u);
    EXPECT_EQ(dag.edgeCount(), 4u);
    EXPECT_EQ(dag.taskCount(), 4u);
    EXPECT_EQ(dag.successors(0), (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(dag.predecessors(3), (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(dag.findByName("c"), 2);
    EXPECT_EQ(dag.findByName("zzz"), -1);
    EXPECT_EQ(dag.totalDataBytes(), 10 * 1000 * 1000 + 1000 + 2000 + 3000);
}

TEST(DagTest, EdgePayloadDefaultsToFromNode)
{
    const Dag dag = diamond();
    const DagEdge& e = dag.edge(0);
    ASSERT_EQ(e.payload.size(), 1u);
    EXPECT_EQ(e.payload[0].origin, 0);
    EXPECT_EQ(e.dataBytes(), 10 * 1000 * 1000);
}

TEST(DagTest, ZeroByteEdgeHasEmptyPayload)
{
    Dag dag("z");
    const NodeId a = dag.addNode(task("a"));
    const NodeId b = dag.addNode(task("b"));
    dag.addEdge(a, b, 0);
    EXPECT_TRUE(dag.edge(0).payload.empty());
    EXPECT_EQ(dag.edge(0).dataBytes(), 0);
}

TEST(DagTest, MultiOriginPayload)
{
    Dag dag("m");
    const NodeId a = dag.addNode(task("a"));
    const NodeId b = dag.addNode(task("b"));
    const NodeId v = dag.addNode(virt("v", StepKind::VirtualEnd));
    const NodeId c = dag.addNode(task("c"));
    dag.addEdge(a, v, 0);
    dag.addEdge(b, v, 0);
    dag.addEdgeWithPayload(v, c, {DataItem{a, 100}, DataItem{b, 200}});
    EXPECT_EQ(dag.edge(2).dataBytes(), 300);
}

TEST(DagDeathTest, InvalidConstruction)
{
    Dag dag("bad");
    const NodeId a = dag.addNode(task("a"));
    EXPECT_EXIT(
        {
            Dag d2("bad2");
            d2.addNode(task("x"));
            d2.addNode(task("x"));
        },
        ::testing::ExitedWithCode(1), "duplicate");
    EXPECT_EXIT(dag.addEdge(a, a, 1), ::testing::ExitedWithCode(1),
                "self edge");
    EXPECT_EXIT(
        {
            Dag d3("bad3");
            DagNode n;
            n.name = "t";
            d3.addNode(n);  // task without function
        },
        ::testing::ExitedWithCode(1), "needs a function");
    EXPECT_EXIT(
        {
            Dag d4("bad4");
            DagNode n;
            n.name = "v";
            n.kind = StepKind::VirtualStart;
            n.function = "f";
            d4.addNode(n);
        },
        ::testing::ExitedWithCode(1), "virtual");
}

TEST(AnalysisTest, ValidateAcceptsDiamond)
{
    EXPECT_TRUE(validate(diamond()).ok);
}

TEST(AnalysisTest, ValidateRejectsEmpty)
{
    const auto r = validate(Dag("empty"));
    EXPECT_FALSE(r.ok);
}

TEST(AnalysisTest, ValidateRejectsCycle)
{
    Dag dag("cyclic");
    const NodeId a = dag.addNode(task("a"));
    const NodeId b = dag.addNode(task("b"));
    const NodeId c = dag.addNode(task("c"));
    dag.addEdge(a, b, 0);
    dag.addEdge(b, c, 0);
    dag.addEdge(c, a, 0);
    const auto r = validate(dag);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("cycle"), std::string::npos);
}

TEST(AnalysisTest, ValidateRejectsIsolatedVirtual)
{
    Dag dag("iso");
    dag.addNode(task("a"));
    dag.addNode(virt("v", StepKind::VirtualStart));
    const auto r = validate(dag);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("isolated"), std::string::npos);
}

TEST(AnalysisTest, TopoOrderRespectsEdges)
{
    const Dag dag = diamond();
    const auto order = topoOrder(dag);
    ASSERT_EQ(order.size(), 4u);
    std::vector<size_t> pos(4);
    for (size_t i = 0; i < order.size(); ++i)
        pos[static_cast<size_t>(order[i])] = i;
    for (const auto& e : dag.edges())
        EXPECT_LT(pos[static_cast<size_t>(e.from)],
                  pos[static_cast<size_t>(e.to)]);
}

TEST(AnalysisTest, CriticalPathPicksHeaviestRoute)
{
    const Dag dag = diamond();
    const CriticalPath cp = criticalPath(dag);
    // a(100) + 5ms edge + b(200) + 2ms edge + d(100) = 407ms via b.
    EXPECT_EQ(cp.nodes, (std::vector<NodeId>{0, 1, 3}));
    EXPECT_EQ(cp.length, SimTime::millis(407));
    ASSERT_EQ(cp.edges.size(), 2u);
    EXPECT_EQ(dag.edge(cp.edges[0]).to, 1);
}

TEST(AnalysisTest, CriticalPathExecExcludesEdges)
{
    EXPECT_EQ(criticalPathExecTime(diamond()), SimTime::millis(400));
}

TEST(AnalysisTest, SourcesAndSinks)
{
    const Dag dag = diamond();
    EXPECT_EQ(sourceNodes(dag), (std::vector<NodeId>{0}));
    EXPECT_EQ(sinkNodes(dag), (std::vector<NodeId>{3}));
}

// The workflow of examples/load_scenario.yaml.
constexpr const char* kThumbnailYaml = R"yaml(
name: thumbnail-pipeline
functions:
  - name: fetch
  - name: resize
  - name: watermark
  - name: store
steps:
  - task: fetch
    output_mb: 4
  - parallel:
      branches:
        - steps:
            - task: resize
              output_mb: 2
        - steps:
            - task: watermark
              output_mb: 2
  - task: store
)yaml";

TEST(AnalysisTest, IndexFollowsOutputsThroughFences)
{
    const auto wdl = parseWdlYaml(kThumbnailYaml);
    ASSERT_TRUE(wdl.ok()) << wdl.error;
    const Dag& dag = wdl.dag;
    const DagIndex index = indexDag(dag);
    const auto at = [&dag](const char* name) {
        return static_cast<size_t>(dag.findByName(name));
    };

    // fetch's own edge into the parallel's start fence carries nothing:
    // its item rides the fence's edges to both branches.
    const NodeId fetch = dag.findByName("fetch");
    ASSERT_EQ(dag.outEdges(fetch).size(), 1u);
    EXPECT_TRUE(dag.edge(dag.outEdges(fetch)[0]).payload.empty());
    EXPECT_EQ(index.output_bytes[at("fetch")], 4 * kMB);
    std::vector<NodeId> readers = index.consumers[at("fetch")];
    std::sort(readers.begin(), readers.end());
    EXPECT_EQ(readers, (std::vector<NodeId>{dag.findByName("resize"),
                                            dag.findByName("watermark")}));

    EXPECT_EQ(index.output_bytes[at("resize")], 2 * kMB);
    EXPECT_EQ(index.consumers[at("resize")],
              std::vector<NodeId>{dag.findByName("store")});
    EXPECT_EQ(index.output_bytes[at("store")], 0);
    EXPECT_TRUE(index.consumers[at("store")].empty());

    EXPECT_TRUE(index.switch_branches.empty());
    for (const auto& node : dag.nodes()) {
        EXPECT_EQ(index.sharers[static_cast<size_t>(node.id)],
                  node.isTask() ? 1 : 0)
            << node.name;
    }
}

TEST(AnalysisTest, IndexCountsSharersAndSwitchBranches)
{
    const auto wdl = parseWdlYaml(R"yaml(
name: router
functions:
  - name: classify
  - name: fast
  - name: slow
steps:
  - task: classify
    output_mb: 1
  - switch:
      branches:
        - - task: fast
        - - task: slow
        - - task: fast
  - task: classify
)yaml");
    ASSERT_TRUE(wdl.ok()) << wdl.error;
    const DagIndex index = indexDag(wdl.dag);

    EXPECT_EQ(index.switch_branches, (std::map<int, int>{{0, 3}}));
    const std::map<std::string, int> expected{
        {"classify", 2}, {"fast", 2}, {"slow", 1}};
    for (const auto& node : wdl.dag.nodes()) {
        EXPECT_EQ(index.sharers[static_cast<size_t>(node.id)],
                  node.isTask() ? expected.at(node.function) : 0)
            << node.name;
    }
}

TEST(AnalysisTest, SingleNodeDag)
{
    Dag dag("solo");
    dag.addNode(task("only", 123));
    EXPECT_TRUE(validate(dag).ok);
    EXPECT_EQ(criticalPath(dag).length, SimTime::millis(123));
    EXPECT_EQ(criticalPath(dag).nodes.size(), 1u);
}

/** Property: on random DAGs (edges only forward), the critical path
 *  length >= any single node's estimate and topo order is valid. */
class DagPropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DagPropertyTest, RandomDagInvariants)
{
    Rng rng(GetParam());
    Dag dag("rand");
    const int n = 5 + static_cast<int>(rng.uniformInt(0, 30));
    for (int i = 0; i < n; ++i) {
        dag.addNode(task(strFormat("n%d", i),
                         static_cast<double>(rng.uniformInt(10, 500))));
    }
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            if (rng.uniform() < 0.15) {
                dag.addEdge(i, j, rng.uniformInt(0, 1000000),
                            SimTime::micros(rng.uniformInt(0, 5000)));
            }
        }
    }
    // Forward-only edges: always acyclic.
    const auto order = topoOrder(dag);
    EXPECT_EQ(order.size(), dag.nodeCount());

    const CriticalPath cp = criticalPath(dag);
    SimTime max_node;
    for (const auto& node : dag.nodes())
        max_node = std::max(max_node, node.exec_estimate);
    EXPECT_GE(cp.length, max_node);
    // Path is connected.
    for (size_t i = 0; i + 1 < cp.nodes.size(); ++i) {
        const DagEdge& e = dag.edge(cp.edges[i]);
        EXPECT_EQ(e.from, cp.nodes[i]);
        EXPECT_EQ(e.to, cp.nodes[i + 1]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace faasflow::workflow
