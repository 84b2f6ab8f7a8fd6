/** @file Tests for the Workflow Definition Language parser. */
#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

#include "workflow/analysis.h"
#include "workflow/wdl.h"

namespace faasflow::workflow {
namespace {

WdlResult
mustParse(const std::string& yaml)
{
    WdlResult r = parseWdlYaml(yaml);
    EXPECT_TRUE(r.ok()) << r.error;
    return r;
}

TEST(WdlTest, SimpleSequence)
{
    const WdlResult r = mustParse(
        "name: seq\n"
        "steps:\n"
        "  - task: a\n"
        "    output_mb: 2\n"
        "  - task: b\n");
    EXPECT_EQ(r.dag.name(), "seq");
    EXPECT_EQ(r.dag.nodeCount(), 2u);
    EXPECT_EQ(r.dag.edgeCount(), 1u);
    const DagEdge& e = r.dag.edge(0);
    EXPECT_EQ(e.dataBytes(), 2000000);
    EXPECT_EQ(e.payload[0].origin, r.dag.findByName("a"));
    EXPECT_TRUE(validate(r.dag).ok);
}

TEST(WdlTest, FunctionDeclarationsParsed)
{
    const WdlResult r = mustParse(
        "name: f\n"
        "functions:\n"
        "  - name: a\n"
        "    exec_ms: 250\n"
        "    mem_mb: 512\n"
        "    peak_mb: 300\n"
        "    sigma: 0.05\n"
        "steps:\n"
        "  - task: a\n");
    ASSERT_EQ(r.functions.size(), 1u);
    const auto& spec = r.functions[0];
    EXPECT_EQ(spec.name, "a");
    EXPECT_EQ(spec.exec_mean, SimTime::millis(250));
    EXPECT_EQ(spec.mem_provisioned, 512000000);
    EXPECT_EQ(spec.mem_peak, 300000000);
    EXPECT_DOUBLE_EQ(spec.exec_sigma, 0.05);
    // The exec estimate flows onto the DAG node.
    EXPECT_EQ(r.dag.node(0).exec_estimate, SimTime::millis(250));
}

TEST(WdlTest, ParallelCreatesVirtualFences)
{
    const WdlResult r = mustParse(
        "name: p\n"
        "steps:\n"
        "  - task: pre\n"
        "    output_mb: 1\n"
        "  - parallel:\n"
        "      branches:\n"
        "        - steps:\n"
        "            - task: x\n"
        "              output_mb: 1\n"
        "        - steps:\n"
        "            - task: y\n"
        "              output_mb: 2\n"
        "  - task: post\n");
    // pre, x, y, post + start/end fences = 6 nodes.
    EXPECT_EQ(r.dag.nodeCount(), 6u);
    EXPECT_EQ(r.dag.taskCount(), 4u);

    const NodeId start = r.dag.findByName("parallel.start");
    const NodeId end = r.dag.findByName("parallel.end");
    ASSERT_NE(start, -1);
    ASSERT_NE(end, -1);
    EXPECT_EQ(r.dag.node(start).kind, StepKind::VirtualStart);
    EXPECT_EQ(r.dag.node(end).kind, StepKind::VirtualEnd);

    // Data routing: pre's payload rides the fence edges to x and y.
    const NodeId pre = r.dag.findByName("pre");
    const NodeId x = r.dag.findByName("x");
    for (const size_t e : r.dag.inEdges(x)) {
        const DagEdge& edge = r.dag.edge(e);
        ASSERT_EQ(edge.payload.size(), 1u);
        EXPECT_EQ(edge.payload[0].origin, pre);
        EXPECT_EQ(edge.payload[0].bytes, 1000000);
    }
    // post fetches both branch outputs through the end fence.
    const NodeId post = r.dag.findByName("post");
    ASSERT_EQ(r.dag.inEdges(post).size(), 1u);
    const DagEdge& join = r.dag.edge(r.dag.inEdges(post)[0]);
    EXPECT_EQ(join.payload.size(), 2u);
    EXPECT_EQ(join.dataBytes(), 3000000);
    EXPECT_TRUE(validate(r.dag).ok);
}

TEST(WdlTest, BranchesAsNestedLists)
{
    // Branches may be plain step lists (`- - task: x`) instead of
    // `- steps:` mappings.
    const WdlResult r = mustParse(
        "name: nested-list\n"
        "steps:\n"
        "  - task: pre\n"
        "    output_mb: 1\n"
        "  - parallel:\n"
        "      branches:\n"
        "        - - task: x\n"
        "          - task: y\n"
        "        - - task: z\n"
        "  - task: post\n");
    EXPECT_EQ(r.dag.taskCount(), 5u);
    EXPECT_TRUE(validate(r.dag).ok);
    // x -> y is a chain inside branch 0.
    const NodeId x = r.dag.findByName("x");
    const NodeId y = r.dag.findByName("y");
    EXPECT_EQ(r.dag.successors(x), (std::vector<NodeId>{y}));
}

TEST(WdlTest, ForeachSetsWidth)
{
    const WdlResult r = mustParse(
        "name: fe\n"
        "steps:\n"
        "  - task: src\n"
        "    output_mb: 4\n"
        "  - foreach:\n"
        "      width: 6\n"
        "      steps:\n"
        "        - task: body\n"
        "          output_mb: 2\n"
        "  - task: sink\n");
    const NodeId body = r.dag.findByName("body");
    ASSERT_NE(body, -1);
    EXPECT_EQ(r.dag.node(body).foreach_width, 6);
    EXPECT_EQ(r.dag.node(r.dag.findByName("src")).foreach_width, 1);
    EXPECT_TRUE(validate(r.dag).ok);
}

TEST(WdlTest, SwitchMarksBranches)
{
    const WdlResult r = mustParse(
        "name: sw\n"
        "steps:\n"
        "  - task: pre\n"
        "  - switch:\n"
        "      branches:\n"
        "        - steps:\n"
        "            - task: yes_path\n"
        "        - steps:\n"
        "            - task: no_path\n"
        "  - task: post\n");
    const auto& yes = r.dag.node(r.dag.findByName("yes_path"));
    const auto& no = r.dag.node(r.dag.findByName("no_path"));
    EXPECT_EQ(yes.switch_id, no.switch_id);
    EXPECT_GE(yes.switch_id, 0);
    EXPECT_EQ(yes.switch_branch, 0);
    EXPECT_EQ(no.switch_branch, 1);
    // The switch's start fence carries the switch id for branch choice.
    const NodeId start = r.dag.findByName("switch.start");
    EXPECT_EQ(r.dag.node(start).switch_id, yes.switch_id);
    EXPECT_EQ(r.dag.node(start).switch_branch, -1);
}

TEST(WdlTest, ParallelInsideSwitchInheritsBranch)
{
    const WdlResult r = mustParse(
        "name: nested\n"
        "steps:\n"
        "  - task: pre\n"
        "  - switch:\n"
        "      branches:\n"
        "        - steps:\n"
        "            - parallel:\n"
        "                branches:\n"
        "                  - steps:\n"
        "                      - task: inner_a\n"
        "                  - steps:\n"
        "                      - task: inner_b\n"
        "        - steps:\n"
        "            - task: other\n"
        "  - task: post\n");
    const auto& ia = r.dag.node(r.dag.findByName("inner_a"));
    const auto& ib = r.dag.node(r.dag.findByName("inner_b"));
    const auto& other = r.dag.node(r.dag.findByName("other"));
    EXPECT_EQ(ia.switch_branch, 0);
    EXPECT_EQ(ib.switch_branch, 0);
    EXPECT_EQ(other.switch_branch, 1);
    EXPECT_EQ(ia.switch_id, other.switch_id);
}

TEST(WdlTest, RepeatedFunctionGetsUniqueNodeNames)
{
    const WdlResult r = mustParse(
        "name: rep\n"
        "steps:\n"
        "  - task: f\n"
        "  - task: f\n"
        "  - task: f\n");
    EXPECT_EQ(r.dag.nodeCount(), 3u);
    EXPECT_NE(r.dag.findByName("f"), -1);
}

TEST(WdlTest, NestedSequenceStep)
{
    const WdlResult r = mustParse(
        "name: ns\n"
        "steps:\n"
        "  - task: a\n"
        "  - sequence:\n"
        "      steps:\n"
        "        - task: b\n"
        "        - task: c\n"
        "  - task: d\n");
    EXPECT_EQ(r.dag.nodeCount(), 4u);
    EXPECT_EQ(r.dag.edgeCount(), 3u);
    EXPECT_TRUE(validate(r.dag).ok);
}

TEST(WdlTest, OutputUnits)
{
    const WdlResult r = mustParse(
        "name: u\n"
        "steps:\n"
        "  - task: a\n"
        "    output_bytes: 123\n"
        "  - task: b\n"
        "    output_kb: 10\n"
        "  - task: c\n"
        "    output_mb: 1.5\n"
        "  - task: d\n");
    EXPECT_EQ(r.dag.edge(0).dataBytes(), 123);
    EXPECT_EQ(r.dag.edge(1).dataBytes(), 10000);
    EXPECT_EQ(r.dag.edge(2).dataBytes(), 1500000);
}

TEST(WdlTest, EdgeWeightSeededFromBandwidthEstimate)
{
    const WdlResult r = mustParse(
        "name: w\n"
        "steps:\n"
        "  - task: a\n"
        "    output_mb: 50\n"
        "  - task: b\n");
    // 50 MB at the 50 MB/s initial estimate = 1 s.
    EXPECT_NEAR(r.dag.edge(0).weight.secondsF(), 1.0, 1e-6);
}

struct BadWdl
{
    const char* why;
    const char* yaml;
    const char* expect_error;
};

// Each case prints as, and is named by, its `why` text, so test names
// never carry the addresses of the string literals.
void
PrintTo(const BadWdl& c, std::ostream* os)
{
    *os << c.why;
}

std::string
caseName(const ::testing::TestParamInfo<BadWdl>& info)
{
    std::string name = info.param.why;
    for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return name;
}

class WdlErrorTest : public ::testing::TestWithParam<BadWdl>
{
};

TEST_P(WdlErrorTest, RejectsInvalidDefinitions)
{
    const WdlResult r = parseWdlYaml(GetParam().yaml);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find(GetParam().expect_error), std::string::npos)
        << "got: " << r.error;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, WdlErrorTest,
    ::testing::Values(
        BadWdl{"no steps", "name: x\n", "steps"},
        BadWdl{"empty steps", "name: x\nsteps: []\n", "non-empty"},
        BadWdl{"unknown step", "name: x\nsteps:\n  - bogus: y\n",
               "unknown step"},
        BadWdl{"negative output",
               "name: x\nsteps:\n  - task: a\n    output_mb: -1\n",
               "negative"},
        BadWdl{"empty parallel",
               "name: x\nsteps:\n  - parallel:\n      branches: []\n",
               "non-empty"},
        BadWdl{"zero foreach width",
               "name: x\nsteps:\n  - foreach:\n      width: 0\n"
               "      steps:\n        - task: a\n",
               "width"},
        BadWdl{"nested switch",
               "name: x\nsteps:\n  - switch:\n      branches:\n"
               "        - steps:\n"
               "            - switch:\n"
               "                branches:\n"
               "                  - steps:\n"
               "                      - task: a\n"
               "        - steps:\n"
               "            - task: b\n",
               "nested switch"},
        BadWdl{"sequence root", "- 1\n- 2\n", "mapping"}),
    caseName);

TEST(WdlTest, DurabilityBlockParsesAndRejectsUnknownKeys)
{
    const WdlResult r = parseWdlYaml(
        "name: x\n"
        "durability:\n"
        "  mode: speculative\n"
        "  batch_window_us: 400000\n"
        "  batch_max_records: 8\n"
        "steps:\n"
        "  - task: a\n");
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(r.has_durability);
    EXPECT_EQ(r.durability.mode, "speculative");
    EXPECT_EQ(r.durability.batch_window_us, 400000.0);
    EXPECT_EQ(r.durability.batch_max_records, 8);
    EXPECT_EQ(r.durability.append_latency_us, 800.0);

    // The block is a closed vocabulary: a misspelled knob silently
    // falling back to its default would move the durability point with
    // no signal, so it is a parse error instead.
    const WdlResult bad = parseWdlYaml(
        "name: x\n"
        "durability:\n"
        "  mode: speculative\n"
        "  batch_window_ms: 400\n"
        "steps:\n"
        "  - task: a\n");
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.error.find("batch_window_ms"), std::string::npos);

    const WdlResult bad_mode = parseWdlYaml(
        "name: x\n"
        "durability:\n"
        "  mode: eventually\n"
        "steps:\n"
        "  - task: a\n");
    ASSERT_FALSE(bad_mode.ok());
    EXPECT_NE(bad_mode.error.find("durability.mode"), std::string::npos);
}

TEST(WdlTest, SloBlockParsesAndRejectsUnknownKeys)
{
    const WdlResult r = parseWdlYaml(
        "name: x\n"
        "slo:\n"
        "  deadline_ms: 250\n"
        "  target_p99_ms: 200\n"
        "  miss_budget: 0.05\n"
        "  short_window_ms: 500\n"
        "  long_window_ms: 2000\n"
        "  fire_burn: 3\n"
        "  clear_burn: 1.5\n"
        "steps:\n"
        "  - task: a\n");
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(r.has_slo);
    EXPECT_EQ(r.slo.deadline_ms, 250.0);
    EXPECT_EQ(r.slo.target_p99_ms, 200.0);
    EXPECT_EQ(r.slo.miss_budget, 0.05);
    EXPECT_EQ(r.slo.short_window_ms, 500.0);
    EXPECT_EQ(r.slo.long_window_ms, 2000.0);
    EXPECT_EQ(r.slo.fire_burn, 3.0);
    EXPECT_EQ(r.slo.clear_burn, 1.5);

    const WdlResult defaults = parseWdlYaml(
        "name: x\n"
        "slo:\n"
        "  deadline_ms: 100\n"
        "steps:\n"
        "  - task: a\n");
    ASSERT_TRUE(defaults.ok()) << defaults.error;
    EXPECT_EQ(defaults.slo.miss_budget, 0.01);
    EXPECT_EQ(defaults.slo.long_window_ms, 10000.0);

    // Like durability:, the block is a closed vocabulary — a misspelled
    // knob must not silently loosen the objective.
    const WdlResult bad = parseWdlYaml(
        "name: x\n"
        "slo:\n"
        "  deadline_sec: 1\n"
        "steps:\n"
        "  - task: a\n");
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.error.find("deadline_sec"), std::string::npos);
}

TEST(WdlTest, SloBlockValidatesRanges)
{
    const WdlResult neg_deadline = parseWdlYaml(
        "name: x\n"
        "slo:\n"
        "  deadline_ms: 0\n"
        "steps:\n"
        "  - task: a\n");
    ASSERT_FALSE(neg_deadline.ok());
    EXPECT_NE(neg_deadline.error.find("deadline_ms"), std::string::npos);

    const WdlResult bad_budget = parseWdlYaml(
        "name: x\n"
        "slo:\n"
        "  miss_budget: 1.5\n"
        "steps:\n"
        "  - task: a\n");
    ASSERT_FALSE(bad_budget.ok());
    EXPECT_NE(bad_budget.error.find("miss_budget"), std::string::npos);

    const WdlResult windows = parseWdlYaml(
        "name: x\n"
        "slo:\n"
        "  short_window_ms: 5000\n"
        "  long_window_ms: 1000\n"
        "steps:\n"
        "  - task: a\n");
    ASSERT_FALSE(windows.ok());
    EXPECT_NE(windows.error.find("short_window_ms"), std::string::npos);

    // clear >= fire would re-arm the alert the moment it fired (flap);
    // the hysteresis gap is enforced at parse time.
    const WdlResult flap = parseWdlYaml(
        "name: x\n"
        "slo:\n"
        "  fire_burn: 2\n"
        "  clear_burn: 2\n"
        "steps:\n"
        "  - task: a\n");
    ASSERT_FALSE(flap.ok());
    EXPECT_NE(flap.error.find("clear_burn"), std::string::npos);
}

TEST(WdlTest, ForeachInsideForeachRejected)
{
    const WdlResult r = parseWdlYaml(
        "name: x\n"
        "steps:\n"
        "  - foreach:\n"
        "      width: 2\n"
        "      steps:\n"
        "        - foreach:\n"
        "            width: 2\n"
        "            steps:\n"
        "              - task: a\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("nested foreach"), std::string::npos);
}

}  // namespace
}  // namespace faasflow::workflow
