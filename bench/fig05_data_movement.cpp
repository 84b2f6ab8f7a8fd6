/**
 * @file
 * Figure 5 (§2.4): data movement per invocation when each application is
 * deployed monolithically (every produced datum counted once, shared in
 * process memory) versus as a FaaS workflow (data-shipping through the
 * remote store, amplified by fan-out and per-instance fetches).
 *
 * Paper reference: Vid 4.23 MB -> 96.82 MB (22.9x), Cyc 23.95 MB ->
 * 1182.3 MB (39.5x in network resources).
 */
#include <cstdio>

#include "harness.h"
#include "sections.h"

namespace faasflow::bench {

void
runFig05DataMovement(const RunOptions& opts, Report& report)
{
    const size_t invocations = opts.scaled(20, 5);

    std::printf("Fig. 5 — data movement per invocation: "
                "monolithic vs FaaS data-shipping\n\n");

    TextTable table;
    table.setHeader({"benchmark", "monolithic (MB)",
                     "FaaS analytic (MB)", "FaaS measured (MB)",
                     "amplification"});

    for (const auto& bench : benchmarks::allBenchmarks()) {
        const double mono =
            toMB(benchmarks::monolithicBytes(bench.dag));
        const double analytic =
            toMB(benchmarks::faasShippedBytes(bench.dag));

        // Measure the same quantity by actually running the
        // workflow in the data-shipping configuration (MasterSP +
        // remote store).
        System system(SystemConfig::hyperflowServerless());
        const std::string name = deployBenchmark(system, bench);
        runClosedLoop(system, name, invocations);
        const double measured =
            system.metrics().meanBytesMoved(name) / 1e6;

        report.pin("monolithic_mb_" + bench.name, mono);
        report.pin("analytic_mb_" + bench.name, analytic);
        report.pin("measured_mb_" + bench.name, measured);
        report.pin("amplification_" + bench.name, measured / mono);
        table.addRow({bench.name, strFormat("%.2f", mono),
                      strFormat("%.2f", analytic),
                      strFormat("%.2f", measured),
                      strFormat("%.1fx", measured / mono)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("paper anchors: Vid 4.23 -> 96.82 MB, Cyc 23.95 "
                "-> 1182.3 MB\n");
}

}  // namespace faasflow::bench
