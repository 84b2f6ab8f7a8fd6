/** @file Tests for the System facade: deployment, repartitioning with
 *  red-black recycling, FaaStore pool management, clients, co-location,
 *  and component-overhead accounting. */
#include <gtest/gtest.h>

#include "common/string_util.h"
#include "common/units.h"
#include "faasflow/client.h"
#include "faasflow/system.h"
#include "workflow/analysis.h"
#include "workflow/wdl.h"

namespace faasflow {
namespace {

using engine::InvocationRecord;

constexpr const char* kChainYaml = R"yaml(
name: chain
functions:
  - name: a
    exec_ms: 100
    sigma: 0
    peak_mb: 100
  - name: b
    exec_ms: 100
    sigma: 0
    peak_mb: 100
  - name: c
    exec_ms: 100
    sigma: 0
    peak_mb: 100
steps:
  - task: a
    output_mb: 10
  - task: b
    output_mb: 5
  - task: c
)yaml";

workflow::WdlResult
chainWdl()
{
    auto wdl = workflow::parseWdlYaml(kChainYaml);
    EXPECT_TRUE(wdl.ok()) << wdl.error;
    return wdl;
}

TEST(SystemTest, DeployValidatesRegistration)
{
    auto wdl = chainWdl();
    System system(SystemConfig::faasflowFaastore());
    // Functions not registered: deploy must fatal.
    EXPECT_EXIT(system.deploy(std::move(wdl.dag)),
                ::testing::ExitedWithCode(1), "not registered");
}

TEST(SystemTest, DeployRejectsDuplicates)
{
    auto wdl = chainWdl();
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    workflow::Dag copy = wdl.dag;
    system.deploy(std::move(wdl.dag));
    EXPECT_EXIT(system.deploy(std::move(copy)),
                ::testing::ExitedWithCode(1), "already deployed");
}

TEST(SystemTest, DeployAllocatesFaastorePools)
{
    auto wdl = chainWdl();
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    system.deploy(std::move(wdl.dag));
    int64_t total_quota = 0;
    for (size_t w = 0; w < system.cluster().workerCount(); ++w)
        total_quota += system.store(w).poolQuota("chain");
    // Three functions, each reclaiming (256 MB - 100 MB - 32 MiB).
    const int64_t per = 256 * kMB - 100 * kMB -
                        system.config().faastore.headroom;
    EXPECT_EQ(total_quota, 3 * per);
}

TEST(SystemTest, NoPoolsInRemoteOnlyMode)
{
    auto wdl = chainWdl();
    System system(SystemConfig::faasflowRemoteOnly());
    system.registerFunctions(wdl.functions);
    system.deploy(std::move(wdl.dag));
    for (size_t w = 0; w < system.cluster().workerCount(); ++w)
        EXPECT_EQ(system.store(w).poolQuota("chain"), 0);
}

TEST(SystemTest, RepartitionBumpsVersionAndLocalizes)
{
    auto wdl = chainWdl();
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    EXPECT_EQ(system.deployed(name).placement->version, 0);

    ClosedLoopClient warmup(system, name, 5);
    warmup.start();
    system.run();

    system.repartition(name);
    const auto& placement = *system.deployed(name).placement;
    EXPECT_EQ(placement.version, 1);
    // The chain is small and data-heavy: Algorithm 1 collapses it onto
    // one worker with both producing nodes marked MEM.
    EXPECT_EQ(placement.groups.size(), 1u);

    system.metrics().clear();
    ClosedLoopClient client(system, name, 10);
    client.start();
    system.run();
    EXPECT_GT(system.metrics().meanBytesLocal(name), 0.0);
    EXPECT_EQ(system.metrics().meanBytesRemote(name), 0.0);
}

TEST(SystemTest, InFlightInvocationsSurviveRepartition)
{
    auto wdl = chainWdl();
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));

    bool done = false;
    system.invoke(name, [&](const InvocationRecord& r) {
        done = true;
        EXPECT_FALSE(r.timed_out);
    });
    // Re-partition while the invocation is mid-flight.
    system.runFor(SimTime::millis(150));
    system.repartition(name);
    system.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(system.inFlight(), 0u);
}

TEST(SystemTest, DataObjectsCleanedUpAfterInvocation)
{
    auto wdl = chainWdl();
    System system(SystemConfig::faasflowRemoteOnly());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    ClosedLoopClient client(system, name, 3);
    client.start();
    system.run();
    EXPECT_EQ(system.remoteStore().objectCount(), 0u);
    for (size_t w = 0; w < system.cluster().workerCount(); ++w)
        EXPECT_EQ(system.store(w).memStore().objectCount(), 0u);
}

TEST(SystemTest, ClosedLoopClientKeepsOneInFlight)
{
    auto wdl = chainWdl();
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    bool finished = false;
    ClosedLoopClient client(system, name, 7, [&] { finished = true; });
    client.start();
    // At any moment at most one invocation exists.
    while (system.simulator().pendingEvents() > 0) {
        system.simulator().runUntil(system.simulator().now() +
                                    SimTime::millis(10));
        EXPECT_LE(system.inFlight(), 1u);
    }
    EXPECT_TRUE(finished);
    EXPECT_EQ(client.completed(), 7u);
    EXPECT_TRUE(client.done());
    EXPECT_EQ(system.metrics().count(name), 7u);
}

TEST(SystemTest, OpenLoopClientIssuesAllArrivals)
{
    auto wdl = chainWdl();
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    OpenLoopClient client(system, name, 60.0, 25, Rng(5));
    client.start();
    system.run();
    EXPECT_EQ(client.issued(), 25u);
    EXPECT_EQ(client.completed(), 25u);
    EXPECT_EQ(system.metrics().count(name), 25u);
}

TEST(SystemTest, CoLocatedWorkflowsBothComplete)
{
    auto wdl1 = chainWdl();
    auto wdl2 = workflow::parseWdlYaml(
        "name: other\n"
        "functions:\n"
        "  - name: x\n"
        "    exec_ms: 50\n"
        "    sigma: 0\n"
        "  - name: y\n"
        "    exec_ms: 50\n"
        "    sigma: 0\n"
        "steps:\n"
        "  - task: x\n"
        "    output_mb: 1\n"
        "  - task: y\n");
    ASSERT_TRUE(wdl2.ok());
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl1.functions);
    system.registerFunctions(wdl2.functions);
    system.deploy(std::move(wdl1.dag));
    system.deploy(std::move(wdl2.dag));
    ClosedLoopClient c1(system, "chain", 5);
    ClosedLoopClient c2(system, "other", 5);
    c1.start();
    c2.start();
    system.run();
    EXPECT_EQ(system.metrics().count("chain"), 5u);
    EXPECT_EQ(system.metrics().count("other"), 5u);
}

TEST(SystemTest, RegisterFunctionsIsIdempotent)
{
    auto wdl = chainWdl();
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    system.registerFunctions(wdl.functions);  // no fatal
    EXPECT_EQ(system.registry().size(), 3u);
}

TEST(SystemTest, EngineOverheadAccounting)
{
    auto wdl = chainWdl();
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    ClosedLoopClient client(system, name, 10);
    client.start();
    system.run();
    for (size_t w = 0; w < system.cluster().workerCount(); ++w) {
        // Baseline engine footprint is 47 MB (§5.7); state cleaned up.
        EXPECT_EQ(system.workerEngineMemory(w), 47 * kMB);
        EXPECT_GE(system.workerEngineUtilisation(w), 0.1);
        EXPECT_LT(system.workerEngineUtilisation(w), 0.5);
    }
}

TEST(SystemTest, MasterSpWorkerGaugesReadTheDispatchingEngine)
{
    // Under MasterSP the central engine assigns each task to its
    // worker's engine, so a worker that ran tasks shows dispatch work on
    // top of the engine process's baseline CPU.
    auto wdl = chainWdl();
    System system(SystemConfig::hyperflowServerless());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    ClosedLoopClient client(system, name, 10);
    client.start();
    system.run();
    ASSERT_EQ(system.metrics().count(name), 10u);
    size_t ran = 0;
    for (size_t w = 0; w < system.cluster().workerCount(); ++w) {
        const auto& pool = system.cluster().worker(w).pool();
        if (pool.coldStarts() + pool.warmHits() == 0)
            continue;
        ++ran;
        EXPECT_GT(system.workerEngineUtilisation(w),
                  engine::WorkerEngine::kBaselineCpu)
            << "worker " << w;
        EXPECT_EQ(system.workerEngineMemory(w), 47 * kMB);
    }
    EXPECT_GT(ran, 0u);
}

TEST(SystemTest, FeedbackCollectedDuringRuns)
{
    auto wdl = chainWdl();
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    ClosedLoopClient client(system, name, 5);
    client.start();
    system.run();
    EXPECT_TRUE(system.feedback(name).hasEdgeSamples());
    EXPECT_GE(system.feedback(name).scale("a"), 1.0);
}

TEST(SystemTest, ContentionPairsNeverShareAWorkerAfterRepartition)
{
    // cont(G) integration (§4.1.3): declare a and b as interfering; after
    // Algorithm 1 they must land on different workers even though the
    // heavy a->b edge would otherwise merge them.
    auto wdl = chainWdl();
    SystemConfig config = SystemConfig::faasflowFaastore();
    config.scheduler.contention.insert({"a", "b"});
    System system(config);
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    ClosedLoopClient warmup(system, name, 5);
    warmup.start();
    system.run();
    system.repartition(name);

    const auto& placement = *system.deployed(name).placement;
    const auto& dag = system.deployed(name).dag;
    int group_a = -1, group_b = -1;
    for (size_t g = 0; g < placement.groups.size(); ++g) {
        for (const workflow::NodeId id : placement.groups[g]) {
            if (dag.node(id).name == "a")
                group_a = static_cast<int>(g);
            if (dag.node(id).name == "b")
                group_b = static_cast<int>(g);
        }
    }
    EXPECT_NE(group_a, group_b);

    // Without the declaration the chain collapses into one group.
    System free_system(SystemConfig::faasflowFaastore());
    auto wdl2 = chainWdl();
    free_system.registerFunctions(wdl2.functions);
    const std::string name2 = free_system.deploy(std::move(wdl2.dag));
    ClosedLoopClient warmup2(free_system, name2, 5);
    warmup2.start();
    free_system.run();
    free_system.repartition(name2);
    EXPECT_EQ(free_system.deployed(name2).placement->groups.size(), 1u);
}

TEST(SystemTest, OutputDigestFoldsOutputsRelayedThroughFences)
{
    // fetch feeds a parallel construct, so its item rides the fence's
    // edges rather than its own out-edge; the digest must still fold
    // the size of the object it saved.
    const auto digestOf = [](int fetch_mb) {
        auto wdl = workflow::parseWdlYaml(strFormat(R"yaml(
name: thumbnail-pipeline
functions:
  - name: fetch
  - name: resize
  - name: watermark
  - name: store
steps:
  - task: fetch
    output_mb: %d
  - parallel:
      branches:
        - steps:
            - task: resize
              output_mb: 2
        - steps:
            - task: watermark
              output_mb: 2
  - task: store
)yaml",
                                                    fetch_mb));
        EXPECT_TRUE(wdl.ok()) << wdl.error;
        System system(SystemConfig::faasflowFaastore());
        system.registerFunctions(wdl.functions);
        const std::string name = system.deploy(std::move(wdl.dag));
        InvocationRecord record;
        system.invoke(name, [&](const InvocationRecord& r) { record = r; });
        system.run();
        EXPECT_FALSE(record.timed_out);
        return record.output_digest;
    };
    // Every node is done in each run; only fetch's output size differs.
    EXPECT_EQ(digestOf(4), digestOf(4));
    EXPECT_NE(digestOf(4), digestOf(8));
}

TEST(SystemTest, UnknownWorkflowFatals)
{
    System system(SystemConfig::faasflowFaastore());
    EXPECT_EXIT(system.invoke("nope"), ::testing::ExitedWithCode(1),
                "unknown workflow");
}

}  // namespace
}  // namespace faasflow
