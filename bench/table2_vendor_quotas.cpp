/**
 * @file
 * Table 2 (§2.4): per-request payload quotas of popular serverless
 * platforms — the reason workflows must route large intermediates
 * through remote storage. Also demonstrates the quota's consequence in
 * the simulator: a payload above the quota forced through the remote
 * store versus FaaStore's node-local path.
 */
#include <cstdio>

#include "harness.h"
#include "sections.h"

namespace {

struct VendorQuota
{
    const char* platform;
    const char* quota;
};

constexpr VendorQuota kQuotas[] = {
    {"AWS Lambda", "6MB (synchronous), 256KB (asynchronous)"},
    {"Google Cloud Functions", "10MB for data sending to functions"},
    {"Microsoft Azure Functions", "1MB with single stream"},
    {"Alibaba Function Compute", "6MB (synchronous), 128KB (asynchronous)"},
    {"Apache OpenWhisk", "1MB for each entity"},
};

}  // namespace

namespace faasflow::bench {

void
runTable2VendorQuotas(const RunOptions& opts, Report& report)
{
    const size_t invocations = opts.scaled(20, 8);

    std::printf("Table 2 — hard per-request payload quotas of "
                "popular serverless platforms\n\n");
    TextTable table;
    table.setHeader(
        {"serverless platform", "hard quota (per request)"});
    for (const auto& q : kQuotas)
        table.addRow({q.platform, q.quota});
    std::printf("%s\n", table.str().c_str());

    // Consequence: a 20 MB intermediate cannot ride the RPC
    // payload, so the DB round trip (or FaaStore's local memory)
    // carries it.
    const char* yaml =
        "name: quota-demo\n"
        "functions:\n"
        "  - name: qd_produce\n"
        "    exec_ms: 50\n"
        "    sigma: 0\n"
        "    peak_mb: 100\n"
        "  - name: qd_consume\n"
        "    exec_ms: 50\n"
        "    sigma: 0\n"
        "    peak_mb: 100\n"
        "steps:\n"
        "  - task: qd_produce\n"
        "    output_mb: 20\n"
        "  - task: qd_consume\n";
    auto wdl = workflow::parseWdlYaml(yaml);

    TextTable demo;
    demo.setHeader({"data path for a 20MB intermediate",
                    "transfer latency (ms)"});
    double remote_ms = 0.0;
    double local_ms = 0.0;
    for (const bool faastore : {false, true}) {
        System system(faastore
                          ? SystemConfig::faasflowFaastore()
                          : SystemConfig::faasflowRemoteOnly());
        system.registerFunctions(wdl.functions);
        workflow::Dag dag = wdl.dag;
        const std::string name = system.deploy(std::move(dag));
        ClosedLoopClient warm(system, name, 5);
        warm.start();
        system.run();
        system.repartition(name);
        system.metrics().clear();
        runClosedLoop(system, name, invocations);
        const double latency_ms =
            system.metrics().dataLatency(name).mean() * 1000.0;
        (faastore ? local_ms : remote_ms) = latency_ms;
        demo.addRow({faastore ? "FaaStore (node-local memory)"
                              : "remote store (DB round trip)",
                     strFormat("%.1f", latency_ms)});
    }
    report.pin("remote_transfer_ms", remote_ms);
    report.pin("faastore_transfer_ms", local_ms);
    report.pin("transfer_speedup", remote_ms / local_ms);
    std::printf("%s\n", demo.str().c_str());
}

}  // namespace faasflow::bench
