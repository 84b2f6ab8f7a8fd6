/** @file Tests for the extension modules: DAG serialization, the trace
 *  recorder, the flag parser, and the MicroVM sandbox mode. */
#include <gtest/gtest.h>

#include "benchmarks/specs.h"
#include "common/flags.h"
#include "common/units.h"
#include "faasflow/client.h"
#include "faasflow/system.h"
#include "obs/trace.h"
#include "workflow/analysis.h"
#include "workflow/builder.h"
#include "workflow/serialize.h"
#include "workflow/wdl.h"

namespace faasflow {
namespace {

// ------------------------------------------------------- Serialization

TEST(SerializeTest, RoundTripsEveryBenchmark)
{
    for (const auto& bench : benchmarks::allBenchmarks()) {
        const std::string text = workflow::dagToJsonText(bench.dag);
        const auto result = workflow::dagFromJsonText(text);
        ASSERT_TRUE(result.ok()) << bench.name << ": " << result.error;
        const workflow::Dag& dag = result.dag;

        ASSERT_EQ(dag.nodeCount(), bench.dag.nodeCount()) << bench.name;
        ASSERT_EQ(dag.edgeCount(), bench.dag.edgeCount()) << bench.name;
        for (size_t i = 0; i < dag.nodeCount(); ++i) {
            const auto& a = bench.dag.node(static_cast<int>(i));
            const auto& b = dag.node(static_cast<int>(i));
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.kind, b.kind);
            EXPECT_EQ(a.function, b.function);
            EXPECT_EQ(a.foreach_width, b.foreach_width);
            EXPECT_EQ(a.switch_id, b.switch_id);
            EXPECT_EQ(a.switch_branch, b.switch_branch);
            EXPECT_EQ(a.exec_estimate, b.exec_estimate);
        }
        for (size_t e = 0; e < dag.edgeCount(); ++e) {
            const auto& a = bench.dag.edge(e);
            const auto& b = dag.edge(e);
            EXPECT_EQ(a.from, b.from);
            EXPECT_EQ(a.to, b.to);
            EXPECT_EQ(a.weight, b.weight);
            ASSERT_EQ(a.payload.size(), b.payload.size());
            for (size_t p = 0; p < a.payload.size(); ++p) {
                EXPECT_EQ(a.payload[p].origin, b.payload[p].origin);
                EXPECT_EQ(a.payload[p].bytes, b.payload[p].bytes);
            }
        }
    }
}

TEST(SerializeTest, RejectsCorruptDocuments)
{
    EXPECT_FALSE(workflow::dagFromJsonText("not json").ok());
    EXPECT_FALSE(workflow::dagFromJsonText("{}").ok());
    EXPECT_FALSE(
        workflow::dagFromJsonText(R"({"name":"x","nodes":[],"edges":[]})")
            .ok());
    // Edge out of range.
    EXPECT_FALSE(workflow::dagFromJsonText(
                     R"({"name":"x",
                         "nodes":[{"name":"a","kind":"task",
                                   "function":"f"}],
                         "edges":[{"from":0,"to":5}]})")
                     .ok());
    // Unknown kind.
    EXPECT_FALSE(workflow::dagFromJsonText(
                     R"({"name":"x",
                         "nodes":[{"name":"a","kind":"weird"}],
                         "edges":[]})")
                     .ok());
}

// -------------------------------------------------------------- Tracing

TEST(TraceTest, DisabledRecorderIsFree)
{
    obs::TraceRecorder trace;
    trace.span("c", "n", 0, SimTime::zero(), SimTime::millis(1));
    EXPECT_EQ(trace.eventCount(), 0u);
}

TEST(TraceTest, ChromeTraceFormat)
{
    obs::TraceRecorder trace;
    trace.enable();
    trace.span("node", "fn_a", 8, SimTime::millis(10), SimTime::millis(25),
               "width=2");
    trace.instant("trigger", "fn_b", 1, SimTime::millis(5));
    ASSERT_EQ(trace.eventCount(), 2u);

    const json::Value doc = trace.toChromeTrace();
    // Exported stream = pid/tid metadata ("M") + the recorded events.
    std::vector<const json::Value*> events;
    for (const auto& e : doc.find("traceEvents")->asArray()) {
        if (e.getOr("ph", std::string()) != "M")
            events.push_back(&e);
    }
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0]->getOr("ph", std::string()), "X");
    EXPECT_EQ(events[0]->getOr("ts", int64_t{0}), 10000);
    EXPECT_EQ(events[0]->getOr("dur", int64_t{0}), 15000);
    EXPECT_EQ(events[0]->getOr("tid", int64_t{-1}), 8);
    EXPECT_EQ(events[1]->getOr("ph", std::string()), "i");
    // Round trip through the JSON parser.
    EXPECT_TRUE(json::parse(trace.toChromeTraceText()).ok());
}

TEST(TraceTest, SystemProducesInvocationTimeline)
{
    auto wdl = workflow::parseWdlYaml(
        "name: t\n"
        "functions:\n"
        "  - name: a\n"
        "    sigma: 0\n"
        "steps:\n"
        "  - task: a\n"
        "    output_mb: 1\n"
        "  - task: a\n");
    ASSERT_TRUE(wdl.ok());
    System system(SystemConfig::faasflowFaastore());
    system.trace().enable();
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    system.invoke(name);
    system.run();

    // At least: 2 triggers + 2 node spans + 1 save + 1 fetch + 1
    // invocation span.
    EXPECT_GE(system.trace().eventCount(), 7u);
    const std::string text = system.trace().toChromeTraceText();
    EXPECT_NE(text.find("\"invocation\""), std::string::npos);
    EXPECT_NE(text.find("\"fetch\""), std::string::npos);
}

TEST(TraceDeathTest, BackwardsSpanPanics)
{
    obs::TraceRecorder trace;
    trace.enable();
    EXPECT_DEATH(trace.span("c", "n", 0, SimTime::millis(2),
                            SimTime::millis(1)),
                 "ends before");
}

// ---------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesAllStyles)
{
    FlagParser flags;
    flags.addString("name", "default", "a string");
    flags.addInt("count", 3, "an int");
    flags.addDouble("rate", 1.5, "a double");
    flags.addBool("verbose", false, "a bool");

    const char* argv[] = {"prog", "--name",  "x",     "--count=7",
                          "--verbose", "pos1", "--rate", "2.5",
                          "pos2"};
    ASSERT_TRUE(flags.parse(9, argv)) << flags.error();
    EXPECT_EQ(flags.getString("name"), "x");
    EXPECT_EQ(flags.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(flags.getDouble("rate"), 2.5);
    EXPECT_TRUE(flags.getBool("verbose"));
    EXPECT_EQ(flags.positional(),
              (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(FlagsTest, DefaultsSurviveNoArgs)
{
    FlagParser flags;
    flags.addInt("n", 42, "");
    const char* argv[] = {"prog"};
    ASSERT_TRUE(flags.parse(1, argv));
    EXPECT_EQ(flags.getInt("n"), 42);
}

TEST(FlagsTest, Errors)
{
    FlagParser flags;
    flags.addInt("n", 1, "");
    {
        const char* argv[] = {"prog", "--unknown", "1"};
        EXPECT_FALSE(flags.parse(3, argv));
        EXPECT_NE(flags.error().find("unknown"), std::string::npos);
    }
    {
        const char* argv[] = {"prog", "--n", "abc"};
        EXPECT_FALSE(flags.parse(3, argv));
        EXPECT_NE(flags.error().find("integer"), std::string::npos);
    }
    {
        const char* argv[] = {"prog", "--n"};
        EXPECT_FALSE(flags.parse(2, argv));
        EXPECT_NE(flags.error().find("needs a value"), std::string::npos);
    }
}

TEST(FlagsTest, HelpAndUsage)
{
    FlagParser flags;
    flags.addInt("n", 1, "how many");
    const char* argv[] = {"prog", "--help"};
    ASSERT_TRUE(flags.parse(2, argv));
    EXPECT_TRUE(flags.helpRequested());
    const std::string usage = flags.usage("prog");
    EXPECT_NE(usage.find("--n"), std::string::npos);
    EXPECT_NE(usage.find("how many"), std::string::npos);
}

// -------------------------------------------------------------- MicroVM

TEST(MicroVmTest, ReclamationIsANoOp)
{
    sim::Simulator sim;
    net::Network net(sim);
    cluster::FunctionRegistry registry;
    cluster::FunctionSpec spec;
    spec.name = "fn";
    spec.mem_provisioned = 256 * kMiB;
    spec.mem_peak = 100 * kMiB;
    registry.add(spec);
    const net::NodeId wid = net.addNode("w", 100e6, 100e6);
    const net::NodeId sid = net.addNode("s", 50e6, 50e6);
    cluster::WorkerNode node(sim, registry, wid, "w", {}, Rng(1));
    storage::RemoteStore remote(sim, net, sid);

    storage::FaaStore::Config config;
    config.sandbox = storage::FaaStore::Sandbox::MicroVM;
    storage::FaaStore store(sim, node, remote, config);

    cluster::Container* c = nullptr;
    node.pool().acquire("fn",
                        [&](cluster::AcquireResult r) { c = r.container; });
    sim.run();
    ASSERT_NE(c, nullptr);
    const int64_t before = c->memLimit();
    store.reclaimContainerMemory(node.pool(), c, spec);
    EXPECT_EQ(c->memLimit(), before);  // no hot-unplug
}

TEST(MicroVmTest, LocalAccessPaysVsockHop)
{
    sim::Simulator sim;
    net::Network net(sim);
    cluster::FunctionRegistry registry;
    const net::NodeId wid = net.addNode("w", 100e6, 100e6);
    const net::NodeId sid = net.addNode("s", 50e6, 50e6);
    cluster::WorkerNode node(sim, registry, wid, "w", {}, Rng(1));
    storage::RemoteStore remote(sim, net, sid);

    auto latency_with = [&](storage::FaaStore::Sandbox sandbox) {
        storage::FaaStore::Config config;
        config.sandbox = sandbox;
        storage::FaaStore store(sim, node, remote, config);
        EXPECT_TRUE(store.allocatePool("wf", 10 * kMB));
        SimTime elapsed;
        store.save("wf", "k", kMB, true,
                   [&](SimTime t, bool local) {
                       EXPECT_TRUE(local);
                       elapsed = t;
                   });
        sim.run();
        store.releasePool("wf");
        return elapsed;
    };

    const SimTime container =
        latency_with(storage::FaaStore::Sandbox::Container);
    const SimTime microvm =
        latency_with(storage::FaaStore::Sandbox::MicroVM);
    EXPECT_GT(microvm, container);
    EXPECT_NEAR((microvm - container).millisF(), 0.25, 0.01);
}

TEST(MicroVmTest, EndToEndStillLocalizes)
{
    auto wdl = workflow::parseWdlYaml(
        "name: mv\n"
        "functions:\n"
        "  - name: a\n"
        "    sigma: 0\n"
        "    peak_mb: 100\n"
        "  - name: b\n"
        "    sigma: 0\n"
        "    peak_mb: 100\n"
        "steps:\n"
        "  - task: a\n"
        "    output_mb: 5\n"
        "  - task: b\n");
    ASSERT_TRUE(wdl.ok());
    SystemConfig config = SystemConfig::faasflowFaastore();
    config.faastore.sandbox = storage::FaaStore::Sandbox::MicroVM;
    System system(config);
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    ClosedLoopClient warm(system, name, 5);
    warm.start();
    system.run();
    system.repartition(name);
    system.metrics().clear();
    ClosedLoopClient client(system, name, 10);
    client.start();
    system.run();
    EXPECT_GT(system.metrics().meanBytesLocal(name), 0.0);
}

// -------------------------------------------------------------- Builder

TEST(BuilderTest, EquivalentToYamlFrontEnd)
{
    auto built = workflow::Builder("b")
                     .function("fetch", SimTime::millis(120), 0.0)
                     .function("resize", SimTime::millis(300), 0.0)
                     .task("fetch", 6 * kMB)
                     .foreach(4,
                              [](workflow::Builder::Steps& s) {
                                  s.task("resize", 2 * kMB);
                              })
                     .task("fetch")
                     .build();
    ASSERT_TRUE(built.ok()) << built.error;

    auto yaml = workflow::parseWdlYaml(
        "name: b\n"
        "functions:\n"
        "  - name: fetch\n"
        "    exec_ms: 120\n"
        "    sigma: 0\n"
        "  - name: resize\n"
        "    exec_ms: 300\n"
        "    sigma: 0\n"
        "steps:\n"
        "  - task: fetch\n"
        "    output_mb: 6\n"
        "  - foreach:\n"
        "      width: 4\n"
        "      steps:\n"
        "        - task: resize\n"
        "          output_mb: 2\n"
        "  - task: fetch\n");
    ASSERT_TRUE(yaml.ok());

    // Same structure through either front end.
    EXPECT_EQ(built.dag.nodeCount(), yaml.dag.nodeCount());
    EXPECT_EQ(built.dag.edgeCount(), yaml.dag.edgeCount());
    EXPECT_EQ(workflow::dagToJsonText(built.dag),
              workflow::dagToJsonText(yaml.dag));
}

TEST(BuilderTest, ParallelAndSwitchConstructs)
{
    auto built =
        workflow::Builder("ps")
            .task("pre", kMB)
            .parallel({[](workflow::Builder::Steps& s) { s.task("x"); },
                       [](workflow::Builder::Steps& s) { s.task("y"); }})
            .switchOn({[](workflow::Builder::Steps& s) { s.task("ok"); },
                       [](workflow::Builder::Steps& s) { s.task("no"); }})
            .task("post")
            .build();
    ASSERT_TRUE(built.ok()) << built.error;
    EXPECT_EQ(built.dag.taskCount(), 6u);
    const auto& ok = built.dag.node(built.dag.findByName("ok"));
    EXPECT_EQ(ok.switch_branch, 0);
    EXPECT_TRUE(workflow::validate(built.dag).ok);
}

TEST(BuilderTest, InvalidWorkflowSurfacesError)
{
    auto built = workflow::Builder("bad").build();  // no steps
    EXPECT_FALSE(built.ok());
}

// ------------------------------------------------------------- DagStats

TEST(DagStatsTest, CountsStructure)
{
    auto wdl = workflow::parseWdlYaml(
        "name: st\n"
        "steps:\n"
        "  - task: a\n"
        "    output_mb: 2\n"
        "  - parallel:\n"
        "      branches:\n"
        "        - steps:\n"
        "            - task: b\n"
        "        - steps:\n"
        "            - task: c\n"
        "  - foreach:\n"
        "      width: 5\n"
        "      steps:\n"
        "        - task: d\n"
        "  - task: e\n");
    ASSERT_TRUE(wdl.ok());
    const auto stats = workflow::computeStats(wdl.dag);
    EXPECT_EQ(stats.tasks, 5u);
    EXPECT_EQ(stats.virtual_fences, 4u);  // parallel + foreach fences
    EXPECT_EQ(stats.max_foreach_width, 5);
    EXPECT_EQ(stats.switch_count, 0);
    // a's 2 MB output rides one edge per consuming branch (b and c).
    EXPECT_EQ(stats.total_payload_bytes, 4 * kMB);
    EXPECT_GE(stats.depth, 6u);       // a->fence->b->fence->fence->d...
    EXPECT_GE(stats.max_fan_out, 2u);  // the parallel start fence
    EXPECT_FALSE(stats.str().empty());
}

TEST(DagStatsTest, BenchmarksHaveExpectedShape)
{
    const auto cyc = benchmarks::cycles();
    const auto stats = workflow::computeStats(cyc.dag);
    EXPECT_EQ(stats.tasks, 50u);
    EXPECT_EQ(stats.max_fan_out, 15u);  // the 15-branch parallel fence
    EXPECT_EQ(stats.max_foreach_width, 8);
}

// ------------------------------------------------------------ Linearize

TEST(LinearizeTest, ChainPreservesTasksDropsParallelism)
{
    const auto vid = benchmarks::videoFfmpeg();
    const workflow::Dag seq = workflow::linearize(vid.dag);
    EXPECT_EQ(seq.nodeCount(), vid.dag.taskCount());
    EXPECT_EQ(seq.edgeCount(), seq.nodeCount() - 1);
    EXPECT_TRUE(workflow::validate(seq).ok);
    for (const auto& node : seq.nodes()) {
        EXPECT_TRUE(node.isTask());
        EXPECT_EQ(node.foreach_width, 1);
        EXPECT_EQ(node.switch_id, -1);
    }
    // A chain has exactly one source and one sink and full depth.
    EXPECT_EQ(workflow::sourceNodes(seq).size(), 1u);
    EXPECT_EQ(workflow::sinkNodes(seq).size(), 1u);
    EXPECT_EQ(workflow::computeStats(seq).depth, seq.nodeCount());
}

TEST(LinearizeTest, SequenceIsNeverFasterThanDag)
{
    // Losing parallel branches lengthens the pure execution critical
    // path; pure chains (and single-foreach pipelines, whose node-level
    // critical path already contains every task) stay equal.
    for (const auto& bench : benchmarks::allBenchmarks()) {
        const workflow::Dag seq = workflow::linearize(bench.dag);
        EXPECT_GE(workflow::criticalPathExecTime(seq),
                  workflow::criticalPathExecTime(bench.dag))
            << bench.name;
    }
    // Benchmarks with parallel branches get strictly slower.
    for (const auto& bench :
         {benchmarks::fileProcessing(), benchmarks::cycles()}) {
        const workflow::Dag seq = workflow::linearize(bench.dag);
        EXPECT_GT(workflow::criticalPathExecTime(seq),
                  workflow::criticalPathExecTime(bench.dag))
            << bench.name;
    }
}

TEST(LinearizeTest, SequenceRunsOnTheSystem)
{
    auto bench = benchmarks::wordCount();
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(bench.functions);
    workflow::Dag seq = workflow::linearize(bench.dag);
    const std::string name = system.deploy(std::move(seq));
    bool done = false;
    system.invoke(name, [&](const engine::InvocationRecord& r) {
        done = true;
        EXPECT_EQ(r.functions_executed, 3u);  // one run per task
    });
    system.run();
    EXPECT_TRUE(done);
}

}  // namespace
}  // namespace faasflow
