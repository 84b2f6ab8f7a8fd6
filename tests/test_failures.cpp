/** @file Failure-injection tests: functions with non-zero failure rates
 *  are retried transparently; workflows still complete and clean up. */
#include <gtest/gtest.h>

#include "common/string_util.h"
#include "common/units.h"
#include "faasflow/client.h"
#include "faasflow/system.h"
#include "workflow/wdl.h"

namespace faasflow {
namespace {

using engine::InvocationRecord;

workflow::WdlResult
flakyWorkflow(double failure_rate)
{
    const std::string yaml = strFormat(
        "name: flaky\n"
        "functions:\n"
        "  - name: stable\n"
        "    exec_ms: 50\n"
        "    sigma: 0\n"
        "  - name: crashy\n"
        "    exec_ms: 100\n"
        "    sigma: 0\n"
        "    failure_rate: %.2f\n"
        "steps:\n"
        "  - task: stable\n"
        "    output_mb: 1\n"
        "  - task: crashy\n"
        "    output_mb: 1\n"
        "  - task: stable\n",
        failure_rate);
    auto wdl = workflow::parseWdlYaml(yaml);
    EXPECT_TRUE(wdl.ok()) << wdl.error;
    return wdl;
}

TEST(FailureInjectionTest, WdlParsesFailureRate)
{
    const auto wdl = flakyWorkflow(0.25);
    bool found = false;
    for (const auto& spec : wdl.functions) {
        if (spec.name == "crashy") {
            EXPECT_DOUBLE_EQ(spec.failure_rate, 0.25);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(FailureInjectionTest, WdlRejectsInvalidRate)
{
    const auto bad = workflow::parseWdlYaml(
        "name: x\n"
        "functions:\n"
        "  - name: f\n"
        "    failure_rate: 1.5\n"
        "steps:\n"
        "  - task: f\n");
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.error.find("failure_rate"), std::string::npos);
}

TEST(FailureInjectionTest, RetriesUntilSuccess)
{
    auto wdl = flakyWorkflow(0.5);
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));

    uint64_t total_retries = 0;
    size_t completed = 0;
    for (int i = 0; i < 50; ++i) {
        system.invoke(name, [&](const InvocationRecord& r) {
            ++completed;
            EXPECT_FALSE(r.timed_out);
            EXPECT_EQ(r.functions_executed, 3u);
            total_retries += r.retries;
        });
        system.run();
    }
    EXPECT_EQ(completed, 50u);
    // With p = 0.5, expect about one retry per invocation of `crashy`;
    // allow a wide band.
    EXPECT_GT(total_retries, 15u);
    EXPECT_LT(total_retries, 150u);
    // Crashed containers were destroyed, not reused; the pool still
    // converges (no leak of busy containers).
    for (size_t w = 0; w < system.cluster().workerCount(); ++w) {
        EXPECT_EQ(
            system.cluster().worker(w).pool().functionLoad("crashy").busy, 0);
    }
}

TEST(FailureInjectionTest, ZeroRateNeverRetries)
{
    auto wdl = flakyWorkflow(0.0);
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    InvocationRecord record;
    system.invoke(name, [&](const InvocationRecord& r) { record = r; });
    system.run();
    EXPECT_EQ(record.retries, 0u);
}

TEST(FailureInjectionTest, RetriesInflateLatencyNotCorrectness)
{
    auto run = [&](double rate) {
        auto wdl = flakyWorkflow(rate);
        SystemConfig config = SystemConfig::faasflowFaastore();
        config.seed = 3;
        System system(config);
        system.registerFunctions(wdl.functions);
        const std::string name = system.deploy(std::move(wdl.dag));
        ClosedLoopClient client(system, name, 40);
        client.start();
        system.run();
        EXPECT_EQ(system.metrics().count(name), 40u);
        EXPECT_EQ(system.metrics().timeouts(name), 0u);
        EXPECT_EQ(system.remoteStore().objectCount(), 0u);
        return system.metrics().e2e(name).mean();
    };
    const double clean = run(0.0);
    const double flaky = run(0.4);
    EXPECT_GT(flaky, clean);
}

TEST(FailureInjectionTest, ForeachInstancesRetryIndependently)
{
    const char* yaml =
        "name: fe-flaky\n"
        "functions:\n"
        "  - name: src\n"
        "    sigma: 0\n"
        "  - name: body\n"
        "    exec_ms: 50\n"
        "    sigma: 0\n"
        "    failure_rate: 0.3\n"
        "steps:\n"
        "  - task: src\n"
        "    output_mb: 1\n"
        "  - foreach:\n"
        "      width: 6\n"
        "      steps:\n"
        "        - task: body\n";
    auto wdl = workflow::parseWdlYaml(yaml);
    ASSERT_TRUE(wdl.ok());
    System system(SystemConfig::faasflowFaastore());
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));
    size_t done = 0;
    for (int i = 0; i < 20; ++i) {
        system.invoke(name, [&](const InvocationRecord& r) {
            EXPECT_EQ(r.functions_executed, 7u);
            EXPECT_FALSE(r.timed_out);
            ++done;
        });
        system.run();
    }
    EXPECT_EQ(done, 20u);
}

}  // namespace
}  // namespace faasflow
