/** @file Tests for the observability layer: span-tree invariants, Chrome
 *  trace export/ingest round trips, exact latency attribution, fault
 *  spans, and telemetry-sampler determinism. */
#include <gtest/gtest.h>

#include <algorithm>

#include "benchmarks/specs.h"
#include "engine/runtime_context.h"
#include "faasflow/client.h"
#include "faasflow/system.h"
#include "json/json.h"
#include "obs/attribution.h"
#include "obs/telemetry.h"
#include "obs/trace_model.h"
#include "sim/fault_schedule.h"
#include "workflow/wdl.h"

namespace faasflow {
namespace {

/** Runs `n` closed-loop invocations of one benchmark with tracing on. */
void
runTraced(System& system, const benchmarks::Benchmark& bench, size_t n)
{
    system.trace().enable();
    system.registerFunctions(bench.functions);
    workflow::Dag dag = bench.dag;
    const std::string name = system.deploy(std::move(dag));
    ClosedLoopClient client(system, name, n);
    client.start();
    system.run();
}

// ------------------------------------------------- Span-tree invariants

TEST(SpanTreeTest, WorkerSPRunHoldsInvariants)
{
    System system(SystemConfig::faasflowFaastore());
    runTraced(system, benchmarks::videoFfmpeg(), 3);
    const obs::TraceModel model = obs::modelFromRecorder(system.trace());
    EXPECT_GT(model.spans.size(), 10u);
    EXPECT_GT(model.flows.size(), 0u);
    const auto violations = obs::validateSpanTree(model);
    for (const auto& v : violations)
        ADD_FAILURE() << v;
}

TEST(SpanTreeTest, MasterSPRunHoldsInvariants)
{
    System system(SystemConfig::hyperflowServerless());
    runTraced(system, benchmarks::videoFfmpeg(), 3);
    const obs::TraceModel model = obs::modelFromRecorder(system.trace());
    const auto violations = obs::validateSpanTree(model);
    for (const auto& v : violations)
        ADD_FAILURE() << v;
}

TEST(SpanTreeTest, ValidatorCatchesSyntheticViolations)
{
    // Missing parent.
    {
        obs::TraceModel model;
        obs::SpanRec s;
        s.id = 1;
        s.parent = 99;
        model.spans.push_back(s);
        model.buildIndexes();
        EXPECT_FALSE(obs::validateSpanTree(model).empty());
    }
    // Duplicate id.
    {
        obs::TraceModel model;
        obs::SpanRec s;
        s.id = 1;
        model.spans.push_back(s);
        model.spans.push_back(s);
        model.buildIndexes();
        EXPECT_FALSE(obs::validateSpanTree(model).empty());
    }
    // Parent cycle.
    {
        obs::TraceModel model;
        obs::SpanRec a;
        a.id = 1;
        a.parent = 2;
        obs::SpanRec b;
        b.id = 2;
        b.parent = 1;
        model.spans.push_back(a);
        model.spans.push_back(b);
        model.buildIndexes();
        EXPECT_FALSE(obs::validateSpanTree(model).empty());
    }
    // Same-track child escaping its parent's bounds.
    {
        obs::TraceModel model;
        obs::SpanRec parent;
        parent.id = 1;
        parent.track = 8;
        parent.start_us = 0;
        parent.end_us = 100;
        obs::SpanRec child;
        child.id = 2;
        child.parent = 1;
        child.track = 8;
        child.start_us = 50;
        child.end_us = 200;
        model.spans.push_back(parent);
        model.spans.push_back(child);
        model.buildIndexes();
        EXPECT_FALSE(obs::validateSpanTree(model).empty());
    }
    // Backwards flow and dangling flow endpoint.
    {
        obs::TraceModel model;
        obs::SpanRec s;
        s.id = 1;
        s.start_us = 0;
        s.end_us = 10;
        model.spans.push_back(s);
        obs::FlowRec backwards;
        backwards.from = 1;
        backwards.to = 1;
        backwards.from_us = 10;
        backwards.to_us = 5;
        model.flows.push_back(backwards);
        obs::FlowRec dangling;
        dangling.from = 1;
        dangling.to = 42;
        model.flows.push_back(dangling);
        model.buildIndexes();
        EXPECT_GE(obs::validateSpanTree(model).size(), 2u);
    }
}

// --------------------------------------------- Chrome export round trip

TEST(TraceJsonTest, EscapedDetailSurvivesExportAndIngest)
{
    obs::TraceRecorder trace;
    trace.enable();
    const std::string nasty = "q\"uote \\slash\nnewline\ttab \x01ctrl";
    const obs::SpanId id =
        trace.span("cat\"x", "na\\me", 0, SimTime::millis(1),
                   SimTime::millis(2), nasty);
    ASSERT_NE(id, 0u);

    const std::string text = trace.toChromeTraceText();
    const json::ParseResult parsed = json::parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    std::string error;
    const obs::TraceModel model =
        obs::modelFromChromeTrace(*parsed.value, &error);
    ASSERT_TRUE(error.empty()) << error;
    const obs::SpanRec* span = model.find(id);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->detail, nasty);
    EXPECT_EQ(span->category, "cat\"x");
    EXPECT_EQ(span->name, "na\\me");
}

TEST(TraceJsonTest, IngestedModelMatchesRecorderModel)
{
    System system(SystemConfig::faasflowFaastore());
    runTraced(system, benchmarks::videoFfmpeg(), 2);

    const obs::TraceModel direct = obs::modelFromRecorder(system.trace());
    const json::ParseResult parsed =
        json::parse(system.trace().toChromeTraceText());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    std::string error;
    const obs::TraceModel ingested =
        obs::modelFromChromeTrace(*parsed.value, &error);
    ASSERT_TRUE(error.empty()) << error;

    ASSERT_EQ(ingested.spans.size(), direct.spans.size());
    ASSERT_EQ(ingested.flows.size(), direct.flows.size());
    for (const obs::SpanRec& expect : direct.spans) {
        const obs::SpanRec* got = ingested.find(expect.id);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->parent, expect.parent);
        EXPECT_EQ(got->track, expect.track);
        EXPECT_EQ(got->start_us, expect.start_us);
        EXPECT_EQ(got->end_us, expect.end_us);
        EXPECT_EQ(got->category, expect.category);
        EXPECT_EQ(got->name, expect.name);
        EXPECT_EQ(got->detail, expect.detail);
    }
    EXPECT_TRUE(obs::validateSpanTree(ingested).empty());
}

// --------------------------------------------------- Latency attribution

void
expectExactAttribution(System& system, size_t expected_invocations)
{
    const obs::TraceModel model = obs::modelFromRecorder(system.trace());
    EXPECT_TRUE(obs::validateSpanTree(model).empty());
    const auto attrs = obs::attributeInvocations(model);
    ASSERT_EQ(attrs.size(), expected_invocations);
    for (const auto& a : attrs) {
        EXPECT_EQ(a.sum(), a.e2eUs())
            << a.name << ": components " << a.sum() << " != e2e "
            << a.e2eUs();
        EXPECT_FALSE(a.path.empty()) << a.name;
        EXPECT_GT(a.exec_us, 0) << a.name;
    }
}

TEST(AttributionTest, SumsExactlyToE2eWorkerSP)
{
    System system(SystemConfig::faasflowFaastore());
    runTraced(system, benchmarks::videoFfmpeg(), 4);
    expectExactAttribution(system, 4);
}

TEST(AttributionTest, SumsExactlyToE2eMasterSP)
{
    System system(SystemConfig::hyperflowServerless());
    runTraced(system, benchmarks::videoFfmpeg(), 4);
    expectExactAttribution(system, 4);
}

TEST(AttributionTest, ExactUnderWorkerCrashRecovery)
{
    System system(SystemConfig::faasflowFaastore());
    system.trace().enable();
    const auto bench = benchmarks::videoFfmpeg();
    system.registerFunctions(bench.functions);
    workflow::Dag dag = bench.dag;
    const std::string name = system.deploy(std::move(dag));

    sim::FaultSchedule faults;
    faults.addWorkerCrash(0, SimTime::millis(300), SimTime::seconds(2));
    system.installFaults(faults);

    ClosedLoopClient client(system, name, 3);
    client.start();
    system.run();

    const obs::TraceModel model = obs::modelFromRecorder(system.trace());
    const auto attrs = obs::attributeInvocations(model);
    ASSERT_EQ(attrs.size(), 3u);
    for (const auto& a : attrs)
        EXPECT_EQ(a.sum(), a.e2eUs()) << a.name;
}

// ------------------------------------------------------------ Fault spans

TEST(FaultSpanTest, InjectedFaultsLandOnTheirTracks)
{
    System system(SystemConfig::faasflowFaastore());
    system.trace().enable();
    const auto bench = benchmarks::videoFfmpeg();
    system.registerFunctions(bench.functions);
    workflow::Dag dag = bench.dag;
    const std::string name = system.deploy(std::move(dag));

    sim::FaultSchedule faults;
    faults.addWorkerCrash(1, SimTime::millis(200), SimTime::seconds(1));
    faults.addLinkDown(2, SimTime::millis(400), SimTime::millis(500));
    faults.addStorageBrownout(SimTime::millis(100), SimTime::seconds(1),
                              4.0);
    system.installFaults(faults);

    ClosedLoopClient client(system, name, 2);
    client.start();
    system.run();

    const obs::TraceModel model = obs::modelFromRecorder(system.trace());
    EXPECT_TRUE(obs::validateSpanTree(model).empty());

    bool crash_on_worker = false;
    bool brownout_on_storage = false;
    bool outage_on_net = false;
    bool link_instants_on_net = true;
    bool detect_on_master = false;
    for (const auto& span : model.spans) {
        if (span.category == "fault" && span.name == "crash")
            crash_on_worker |= span.track == engine::workerTrack(1);
        if (span.category == "fault" && span.name == "brownout") {
            brownout_on_storage |=
                span.track == static_cast<int>(obs::TraceTrack::Storage);
        }
        if (span.category == "fault" && span.name == "link-outage")
            outage_on_net |=
                span.track == static_cast<int>(obs::TraceTrack::Net);
        if (span.category == "fault" &&
            (span.name == "link-up" || span.name == "link-down")) {
            link_instants_on_net &=
                span.track == static_cast<int>(obs::TraceTrack::Net);
        }
        if (span.category == "recovery" &&
            span.name.rfind("detect", 0) == 0) {
            detect_on_master |=
                span.track == static_cast<int>(obs::TraceTrack::Master);
        }
    }
    EXPECT_TRUE(crash_on_worker);
    EXPECT_TRUE(brownout_on_storage);
    EXPECT_TRUE(outage_on_net);
    EXPECT_TRUE(link_instants_on_net);
    EXPECT_TRUE(detect_on_master);
}

TEST(FaultSpanTest, MasterCrashWindowOnMasterTrack)
{
    SystemConfig config = SystemConfig::hyperflowServerless();
    config.durable_log = true;
    System system(config);
    system.trace().enable();
    const auto bench = benchmarks::videoFfmpeg();
    system.registerFunctions(bench.functions);
    workflow::Dag dag = bench.dag;
    const std::string name = system.deploy(std::move(dag));

    sim::FaultSchedule faults;
    faults.addMasterCrash(SimTime::millis(250), SimTime::millis(700));
    system.installFaults(faults);

    ClosedLoopClient client(system, name, 2);
    client.start();
    system.run();

    const obs::TraceModel model = obs::modelFromRecorder(system.trace());
    bool window = false;
    bool replay = false;
    for (const auto& span : model.spans) {
        if (span.category == "fault" && span.name == "master-crash") {
            EXPECT_EQ(span.track,
                      static_cast<int>(obs::TraceTrack::Master));
            EXPECT_GT(span.durUs(), 0);
            window = true;
        }
        if (span.category == "recovery" && span.name == "replay")
            replay = true;
    }
    EXPECT_TRUE(window);
    EXPECT_TRUE(replay);
}

// ---------------------------------------------------------- Telemetry

std::vector<obs::TelemetrySampler::Sample>
sampledRun(uint64_t seed)
{
    SystemConfig config = SystemConfig::faasflowFaastore();
    config.seed = seed;
    config.telemetry_interval = SimTime::millis(25);
    System system(config);
    const auto bench = benchmarks::videoFfmpeg();
    system.registerFunctions(bench.functions);
    workflow::Dag dag = bench.dag;
    const std::string name = system.deploy(std::move(dag));
    ClosedLoopClient client(system, name, 3);
    client.start();
    system.startTelemetry();
    system.run();
    return system.telemetry().samples();
}

TEST(TelemetryTest, SamplerIsDeterministicAcrossIdenticalSeeds)
{
    const auto a = sampledRun(7);
    const auto b = sampledRun(7);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 2u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].t_us, b[i].t_us);
        ASSERT_EQ(a[i].values.size(), b[i].values.size());
        for (size_t g = 0; g < a[i].values.size(); ++g)
            EXPECT_EQ(a[i].values[g], b[i].values[g]) << i << "/" << g;
    }
}

TEST(TelemetryTest, SamplerDoesNotPerturbTheSimulation)
{
    // Same seed, telemetry off vs on: identical e2e metrics.
    const auto run = [](bool telemetry) {
        SystemConfig config = SystemConfig::faasflowFaastore();
        config.seed = 11;
        System system(config);
        const auto bench = benchmarks::videoFfmpeg();
        system.registerFunctions(bench.functions);
        workflow::Dag dag = bench.dag;
        const std::string name = system.deploy(std::move(dag));
        ClosedLoopClient client(system, name, 3);
        client.start();
        if (telemetry)
            system.startTelemetry();
        system.run();
        return system.metrics().e2e(name).mean();
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(TelemetryTest, ExportsPrometheusAndCsv)
{
    SystemConfig config = SystemConfig::faasflowFaastore();
    System system(config);
    const auto bench = benchmarks::videoFfmpeg();
    system.registerFunctions(bench.functions);
    workflow::Dag dag = bench.dag;
    const std::string name = system.deploy(std::move(dag));
    ClosedLoopClient client(system, name, 2);
    client.start();
    system.startTelemetry();
    system.run();

    ASSERT_GT(system.telemetry().samples().size(), 0u);
    const std::string prom = system.telemetry().toPrometheusText();
    EXPECT_NE(prom.find("# TYPE faasflow_cores_in_use gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("faasflow_cores_in_use{node=\"worker-0\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("faasflow_storage_queue_depth"), std::string::npos);
    // Simulation-engine health gauges ride the same scrape.
    EXPECT_NE(prom.find("faasflow_sim_queue_pending{node=\"sim\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("faasflow_sim_events_fired"), std::string::npos);

    const std::string csv = system.telemetry().toCsv();
    EXPECT_EQ(csv.rfind("t_us,metric,labels,value\n", 0), 0u);
    EXPECT_NE(csv.find("faasflow_containers_warm"), std::string::npos);
}

}  // namespace
}  // namespace faasflow
