/**
 * @file
 * Figure 11 (§5.2): scheduling overhead of HyperFlow-serverless
 * (MasterSP) versus FaaSFlow (WorkerSP) for all 8 benchmarks, 1000
 * closed-loop invocations each, control-plane-only workloads.
 *
 * Paper reference: scientific 712 -> 141.9 ms, real-world 181.3 ->
 * 51.4 ms; 74.6% average reduction.
 */
#include <cstdio>

#include "harness.h"
#include "sections.h"

namespace {

double
overheadFor(faasflow::SystemConfig config,
            const faasflow::benchmarks::Benchmark& bench, size_t n)
{
    faasflow::System system(config);
    const std::string name = faasflow::bench::deployBenchmark(
        system, bench, /*strip_payloads=*/true);
    faasflow::bench::runClosedLoop(system, name, n);
    return system.metrics().schedOverhead(name).mean();
}

}  // namespace

namespace faasflow::bench {

void
runFig11SchedOverhead(const RunOptions& opts, Report& report)
{
    const size_t invocations = opts.scaled(1000, 25);

    std::printf("Fig. 11 — scheduling overhead: "
                "HyperFlow-serverless (MasterSP) vs FaaSFlow "
                "(WorkerSP), %zu invocations\n\n",
                invocations);

    TextTable table;
    table.setHeader({"benchmark", "HyperFlow (ms)",
                     "FaaSFlow (ms)", "reduction"});

    double sci_m = 0, sci_w = 0, rw_m = 0, rw_w = 0;
    size_t sci_n = 0, rw_n = 0;
    double reduction_sum = 0;
    size_t measured = 0;
    for (const auto& bench : benchmarks::allBenchmarks()) {
        const double master = overheadFor(
            SystemConfig::hyperflowServerless(), bench,
            invocations);
        const double worker = overheadFor(
            SystemConfig::faasflowFaastore(), bench, invocations);
        const bool scientific = bench.dag.taskCount() >= 50;
        (scientific ? sci_m : rw_m) += master;
        (scientific ? sci_w : rw_w) += worker;
        ++(scientific ? sci_n : rw_n);
        reduction_sum += 1.0 - worker / master;
        ++measured;
        report.pin("mastersp_ms_" + bench.name, master);
        report.pin("workersp_ms_" + bench.name, worker);
        table.addRow({bench.name, ms(master), ms(worker),
                      pct(1.0 - worker / master)});
    }
    std::printf("%s\n", table.str().c_str());
    if (sci_n > 0) {
        std::printf("scientific: %.1f -> %.1f ms   (paper: 712 -> "
                    "141.9)\n",
                    sci_m / sci_n, sci_w / sci_n);
        report.pin("scientific_workersp_avg_ms", sci_w / sci_n);
    }
    if (rw_n > 0) {
        std::printf("real-world: %.1f -> %.1f ms   (paper: 181.3 "
                    "-> 51.4)\n",
                    rw_m / rw_n, rw_w / rw_n);
        report.pin("realworld_workersp_avg_ms", rw_w / rw_n);
    }
    if (measured > 0) {
        const double mean_reduction =
            reduction_sum / measured * 100.0;
        report.pin("mean_reduction_pct", mean_reduction);
        std::printf("mean reduction: %.1f%%        (paper: "
                    "74.6%%)\n",
                    mean_reduction);
    }
}

}  // namespace faasflow::bench
