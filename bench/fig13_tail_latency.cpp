/**
 * @file
 * Figure 13 (§5.4): 99%-ile end-to-end latency of every benchmark under
 * open-loop load (6 invocations/min) with the storage node throttled to
 * 50 MB/s. Invocations that exceed 60 s are clamped (execution timeout).
 *
 * Paper reference: FaaSFlow-FaaStore reduces p99 by 23.3% on average for
 * Epi/Soy/Vid/IR/FP/WC, and by 75.2% for Cyc and Gen (which hit the
 * storage-bandwidth bottleneck in their parallel/foreach steps under
 * HyperFlow-serverless).
 */
#include <cstdio>
#include <functional>
#include <vector>

#include "common/campaign.h"
#include "harness.h"
#include "sections.h"

namespace {

constexpr double kRatePerMinute = 6.0;

double
p99For(faasflow::SystemConfig config,
       const faasflow::benchmarks::Benchmark& bench, size_t invocations)
{
    config.cluster.storage_bandwidth = 50e6;
    faasflow::System system(config);
    const std::string name = faasflow::bench::deployBenchmark(system, bench);
    faasflow::bench::runOpenLoop(system, name, kRatePerMinute, invocations);
    return system.metrics().e2e(name).p99() / 1000.0;  // seconds
}

}  // namespace

namespace faasflow::bench {

void
runFig13TailLatency(const RunOptions& opts, Report& report)
{
    const size_t invocations = opts.scaled(300, 30);

    std::printf("Fig. 13 — p99 e2e latency (s) at 50 MB/s storage "
                "bandwidth, 6 invocations/min open loop, %zu "
                "arrivals\n\n",
                invocations);

    TextTable table;
    table.setHeader({"benchmark", "HyperFlow p99 (s)",
                     "FaaSFlow-FaaStore p99 (s)", "reduction"});

    // Each (benchmark, config) cell is an independent run — fan
    // them out through the campaign pool.
    std::vector<std::function<double()>> jobs;
    for (const auto& bench : benchmarks::allBenchmarks()) {
        jobs.push_back([bench, invocations] {
            return p99For(SystemConfig::hyperflowServerless(),
                          bench, invocations);
        });
        jobs.push_back([bench, invocations] {
            return p99For(SystemConfig::faasflowFaastore(), bench,
                          invocations);
        });
    }
    const std::vector<double> p99s =
        runCampaign(jobs, opts.campaignWidth());

    double heavy_reduction = 0.0;
    double light_reduction = 0.0;
    size_t job = 0;
    for (const auto& bench : benchmarks::allBenchmarks()) {
        const double master = p99s[job++];
        const double faas = p99s[job++];
        const double reduction = 1.0 - faas / master;
        if (bench.name == "Cyc" || bench.name == "Gen") {
            heavy_reduction += reduction / 2.0;
        } else {
            light_reduction += reduction / 6.0;
        }
        report.pin("hf_p99_s_" + bench.name, master);
        report.pin("ff_p99_s_" + bench.name, faas);
        table.addRow({bench.name, strFormat("%.2f", master),
                      strFormat("%.2f", faas), pct(reduction)});
    }
    report.pin("heavy_reduction_pct", heavy_reduction * 100);
    report.pin("light_reduction_pct", light_reduction * 100);
    std::printf("%s\n", table.str().c_str());
    std::printf("Cyc+Gen mean reduction:    %.1f%%  (paper: "
                "75.2%%)\n",
                heavy_reduction * 100);
    std::printf("other benchmarks mean:     %.1f%%  (paper: "
                "23.3%%)\n",
                light_reduction * 100);
    std::printf("(a value of 60 s means execution timeout)\n");
}

}  // namespace faasflow::bench
