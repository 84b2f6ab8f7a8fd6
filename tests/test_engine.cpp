/** @file Tests for the engine layer: service queue, task executor,
 *  metrics, and end-to-end correctness of both scheduling patterns on
 *  small workflows. */
#include <gtest/gtest.h>

#include "common/units.h"
#include "engine/metrics.h"
#include "engine/service_queue.h"
#include "faasflow/client.h"
#include "faasflow/system.h"
#include "workflow/wdl.h"

namespace faasflow::engine {
namespace {

// ---------------------------------------------------------- ServiceQueue

TEST(ServiceQueueTest, SerialisesEvents)
{
    sim::Simulator sim;
    ServiceQueue q(sim, SimTime::millis(10), 0.0, Rng(1));
    std::vector<int64_t> done_at;
    for (int i = 0; i < 3; ++i)
        q.submit([&] { done_at.push_back(sim.now().micros()); });
    EXPECT_EQ(q.depth(), 3u);
    sim.run();
    ASSERT_EQ(done_at.size(), 3u);
    EXPECT_EQ(done_at[0], 10000);
    EXPECT_EQ(done_at[1], 20000);
    EXPECT_EQ(done_at[2], 30000);
    EXPECT_EQ(q.processed(), 3u);
    EXPECT_EQ(q.depth(), 0u);
}

TEST(ServiceQueueTest, UtilisationTracksBusyFraction)
{
    sim::Simulator sim;
    ServiceQueue q(sim, SimTime::millis(100), 0.0, Rng(1));
    q.submit([] {});
    sim.runUntil(SimTime::millis(400));
    EXPECT_NEAR(q.utilisation(), 0.25, 0.01);
}

TEST(ServiceQueueTest, OpenLoopOverloadStatsStayExact)
{
    // Open-loop regression: arrivals at 2x the service rate, never
    // drained. The queue must grow linearly while utilisation reflects
    // the still-open busy segment, clamped at 1 — the pre-fix stats only
    // settled at drain time.
    sim::Simulator sim;
    ServiceQueue q(sim, SimTime::millis(10), 0.0, Rng(1));
    for (int i = 0; i < 200; ++i) {
        sim.scheduleAt(SimTime::millis(5 * i), [&] { q.submit([] {}); });
    }
    sim.runUntil(SimTime::seconds(1));

    // 200 offered, one serviced every 10 ms -> ~100 processed, ~100 deep.
    EXPECT_NEAR(static_cast<double>(q.processed()), 100.0, 2.0);
    EXPECT_NEAR(static_cast<double>(q.depth()), 100.0, 2.0);
    EXPECT_LE(q.utilisation(), 1.0);
    EXPECT_NEAR(q.utilisation(), 1.0, 0.02);

    // Still never drained half a second later: ~50 deep, fully busy.
    sim.runUntil(SimTime::millis(1500));
    EXPECT_NEAR(static_cast<double>(q.depth()), 50.0, 2.0);
    EXPECT_NEAR(q.utilisation(), 1.0, 0.02);
    sim.run();
    EXPECT_EQ(q.depth(), 0u);
    EXPECT_EQ(q.processed(), 200u);
}

TEST(ServiceQueueTest, HandlerMaySubmitMore)
{
    sim::Simulator sim;
    ServiceQueue q(sim, SimTime::millis(1), 0.0, Rng(1));
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 4)
            q.submit(chain);
    };
    q.submit(chain);
    sim.run();
    EXPECT_EQ(count, 4);
}

// ----------------------------------------------------------- Metrics

TEST(MetricsTest, ActualCriticalExecUsesSampledTimes)
{
    const auto wdl = workflow::parseWdlYaml(
        "name: m\n"
        "steps:\n"
        "  - task: a\n"
        "  - parallel:\n"
        "      branches:\n"
        "        - steps:\n"
        "            - task: fast\n"
        "        - steps:\n"
        "            - task: slow\n"
        "  - task: z\n");
    ASSERT_TRUE(wdl.ok());
    std::vector<SimTime> exec(wdl.dag.nodeCount(), SimTime::zero());
    exec[static_cast<size_t>(wdl.dag.findByName("a"))] = SimTime::millis(10);
    exec[static_cast<size_t>(wdl.dag.findByName("fast"))] =
        SimTime::millis(5);
    exec[static_cast<size_t>(wdl.dag.findByName("slow"))] =
        SimTime::millis(50);
    exec[static_cast<size_t>(wdl.dag.findByName("z"))] = SimTime::millis(20);
    EXPECT_EQ(actualCriticalExec(wdl.dag, exec), SimTime::millis(80));
}

TEST(MetricsTest, CollectorAggregatesPerWorkflow)
{
    MetricsCollector collector;
    InvocationRecord r;
    r.workflow = "wf";
    r.submit = SimTime::zero();
    r.finish = SimTime::millis(100);
    r.critical_exec = SimTime::millis(60);
    r.data_latency = SimTime::millis(30);
    r.bytes_via_remote = 1000;
    r.bytes_via_local = 3000;
    collector.add(r);
    r.finish = SimTime::millis(200);
    r.timed_out = true;
    collector.add(r);

    EXPECT_EQ(collector.count("wf"), 2u);
    EXPECT_DOUBLE_EQ(collector.e2e("wf").mean(), 150.0);
    EXPECT_DOUBLE_EQ(collector.schedOverhead("wf").min(), 40.0);
    EXPECT_EQ(collector.timeouts("wf"), 1u);
    EXPECT_DOUBLE_EQ(collector.meanBytesMoved("wf"), 4000.0);
    EXPECT_DOUBLE_EQ(collector.meanBytesLocal("wf"), 3000.0);
    EXPECT_EQ(collector.workflows(), std::vector<std::string>{"wf"});
    collector.clear();
    EXPECT_EQ(collector.count("wf"), 0u);
}

// ---------------------------------------------------- End-to-end engine

constexpr const char* kDiamondYaml = R"yaml(
name: diamond
functions:
  - name: a
    exec_ms: 100
    sigma: 0
    peak_mb: 100
  - name: b
    exec_ms: 200
    sigma: 0
    peak_mb: 100
  - name: c
    exec_ms: 150
    sigma: 0
    peak_mb: 100
  - name: d
    exec_ms: 50
    sigma: 0
    peak_mb: 100
steps:
  - task: a
    output_mb: 2
  - parallel:
      branches:
        - steps:
            - task: b
              output_mb: 1
        - steps:
            - task: c
              output_mb: 1
  - task: d
)yaml";

InvocationRecord
runDiamond(SystemConfig config)
{
    auto wdl = workflow::parseWdlYaml(kDiamondYaml);
    EXPECT_TRUE(wdl.ok()) << wdl.error;
    System system(config);
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    InvocationRecord record;
    bool got = false;
    system.invoke(name, [&](const InvocationRecord& r) {
        record = r;
        got = true;
    });
    system.run();
    EXPECT_TRUE(got);
    return record;
}

TEST(EngineE2eTest, WorkerSpRunsAllFunctionsOnce)
{
    const InvocationRecord r = runDiamond(SystemConfig::faasflowFaastore());
    EXPECT_EQ(r.functions_executed, 4u);
    EXPECT_FALSE(r.timed_out);
    // Critical exec: a(100) + b(200) + d(50) = 350 ms (sigma 0).
    EXPECT_EQ(r.critical_exec, SimTime::millis(350));
    EXPECT_GT(r.e2e(), r.critical_exec);
    EXPECT_GT(r.cold_starts, 0u);  // first invocation is all cold
}

TEST(EngineE2eTest, MasterSpRunsAllFunctionsOnce)
{
    const InvocationRecord r =
        runDiamond(SystemConfig::hyperflowServerless());
    EXPECT_EQ(r.functions_executed, 4u);
    EXPECT_EQ(r.critical_exec, SimTime::millis(350));
    EXPECT_FALSE(r.timed_out);
}

TEST(EngineE2eTest, MasterSpSlowerThanWorkerSp)
{
    const InvocationRecord master =
        runDiamond(SystemConfig::hyperflowServerless());
    const InvocationRecord worker =
        runDiamond(SystemConfig::faasflowFaastore());
    EXPECT_GT(master.schedOverhead(), worker.schedOverhead());
}

TEST(EngineE2eTest, DataFlowsThroughRemoteInDbMode)
{
    const InvocationRecord r =
        runDiamond(SystemConfig::faasflowRemoteOnly());
    // a's 2 MB output written once and fetched by b and c; b and c each
    // write 1 MB fetched by d: 2 + 2*2 + 2*1 + 2*1 = 10 MB, all remote.
    EXPECT_EQ(r.bytes_via_remote, 10 * kMB);
    EXPECT_EQ(r.bytes_via_local, 0);
    EXPECT_GT(r.data_latency, SimTime::zero());
}

TEST(EngineE2eTest, SwitchExecutesExactlyOneBranch)
{
    const char* yaml =
        "name: sw\n"
        "functions:\n"
        "  - name: pre\n"
        "    sigma: 0\n"
        "  - name: yes_fn\n"
        "    sigma: 0\n"
        "  - name: no_fn\n"
        "    sigma: 0\n"
        "  - name: post\n"
        "    sigma: 0\n"
        "steps:\n"
        "  - task: pre\n"
        "    output_mb: 1\n"
        "  - switch:\n"
        "      branches:\n"
        "        - steps:\n"
        "            - task: yes_fn\n"
        "              output_mb: 1\n"
        "        - steps:\n"
        "            - task: no_fn\n"
        "              output_mb: 1\n"
        "  - task: post\n";
    auto wdl = workflow::parseWdlYaml(yaml);
    ASSERT_TRUE(wdl.ok()) << wdl.error;
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));

    // Each invocation executes exactly 3 functions (pre, the taken
    // branch, post) — never both branches.
    std::vector<uint64_t> executed;
    for (int i = 0; i < 20; ++i) {
        system.invoke(name, [&](const InvocationRecord& r) {
            executed.push_back(r.functions_executed);
        });
        system.run();
    }
    ASSERT_EQ(executed.size(), 20u);
    for (const uint64_t n : executed)
        EXPECT_EQ(n, 3u);
    EXPECT_EQ(system.metrics().count(name), 20u);
}

TEST(EngineE2eTest, ForeachSpawnsWidthInstances)
{
    const char* yaml =
        "name: fe\n"
        "functions:\n"
        "  - name: src\n"
        "    sigma: 0\n"
        "  - name: body\n"
        "    sigma: 0\n"
        "  - name: sink\n"
        "    sigma: 0\n"
        "steps:\n"
        "  - task: src\n"
        "    output_mb: 1\n"
        "  - foreach:\n"
        "      width: 4\n"
        "      steps:\n"
        "        - task: body\n"
        "          output_mb: 1\n"
        "  - task: sink\n";
    auto wdl = workflow::parseWdlYaml(yaml);
    ASSERT_TRUE(wdl.ok()) << wdl.error;
    System system(SystemConfig::faasflowRemoteOnly());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    InvocationRecord record;
    system.invoke(name, [&](const InvocationRecord& r) { record = r; });
    system.run();
    // src + 4 body instances + sink.
    EXPECT_EQ(record.functions_executed, 6u);
    // src's 1 MB is fetched once per body instance: writes (1+1) MB,
    // fetches (4 + 1) MB.
    EXPECT_EQ(record.bytes_via_remote, 7 * kMB);
}

TEST(EngineE2eTest, TimeoutClampsRecord)
{
    SystemConfig config = SystemConfig::faasflowRemoteOnly();
    config.invocation_timeout = SimTime::millis(100);  // far below exec
    const InvocationRecord r = runDiamond(config);
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.e2e(), SimTime::millis(100));
}

TEST(EngineE2eTest, DeterministicAcrossRuns)
{
    const InvocationRecord a = runDiamond(SystemConfig::faasflowFaastore());
    const InvocationRecord b = runDiamond(SystemConfig::faasflowFaastore());
    EXPECT_EQ(a.e2e(), b.e2e());
    EXPECT_EQ(a.bytes_via_local, b.bytes_via_local);
}

}  // namespace
}  // namespace faasflow::engine
