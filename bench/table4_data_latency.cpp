/**
 * @file
 * Table 4 (§5.3): total data-movement latency over all edges of each
 * benchmark, HyperFlow-serverless vs FaaSFlow-FaaStore, plus the
 * reduction percentage and the fraction of bytes localized.
 *
 * Paper reference (seconds): Cyc 204.2 -> 10.28 (95%), Epi 2.23 -> 0.69
 * (69%), Gen 29.26 -> 22.17 (24%), Soy 10.06 -> 9.53 (5.2%), Vid 4.02 ->
 * 1.03 (74%), IR 0.20 -> 0.13 (35%), FP 1.29 -> 0.49 (62%), WC 1.46 ->
 * 0.21 (70%).
 */
#include <cstdio>

#include "harness.h"
#include "sections.h"

namespace {

struct DataResult
{
    double latency_s;
    double local_fraction;
};

DataResult
dataLatencyFor(faasflow::SystemConfig config,
               const faasflow::benchmarks::Benchmark& bench, size_t n)
{
    faasflow::System system(config);
    const std::string name = faasflow::bench::deployBenchmark(system, bench);
    faasflow::bench::runClosedLoop(system, name, n);
    DataResult result;
    result.latency_s = system.metrics().dataLatency(name).mean();
    const double local = system.metrics().meanBytesLocal(name);
    const double remote = system.metrics().meanBytesRemote(name);
    result.local_fraction =
        local + remote > 0 ? local / (local + remote) : 0.0;
    return result;
}

}  // namespace

namespace faasflow::bench {

void
runTable4DataLatency(const RunOptions& opts, Report& report)
{
    const size_t invocations = opts.scaled(100, 20);

    std::printf("Table 4 — data movement latency over all edges "
                "(seconds), %zu closed-loop invocations\n\n",
                invocations);

    TextTable table;
    table.setHeader({"benchmark", "HyperFlow (s)",
                     "FaaSFlow-FaaStore (s)", "reduced",
                     "bytes localized", "paper reduced"});
    const char* paper[] = {"95%", "69%", "24%", "5.2%",
                           "74%", "35%", "62%", "70%"};

    int i = 0;
    double reduction_sum = 0.0;
    int measured = 0;
    for (const auto& bench : benchmarks::allBenchmarks()) {
        const DataResult master = dataLatencyFor(
            SystemConfig::hyperflowServerless(), bench,
            invocations);
        const DataResult faastore = dataLatencyFor(
            SystemConfig::faasflowFaastore(), bench, invocations);
        const double reduction =
            1.0 - faastore.latency_s / master.latency_s;
        reduction_sum += reduction;
        ++measured;
        report.pin("hf_data_s_" + bench.name, master.latency_s);
        report.pin("ff_data_s_" + bench.name, faastore.latency_s);
        report.pin("local_fraction_" + bench.name, faastore.local_fraction);
        table.addRow(
            {bench.name, strFormat("%.2f", master.latency_s),
             strFormat("%.2f", faastore.latency_s),
             pct(reduction), pct(faastore.local_fraction),
             paper[i++]});
    }
    if (measured > 0) {
        report.pin("mean_reduction_pct", reduction_sum / measured * 100.0);
    }
    std::printf("%s\n", table.str().c_str());
}

}  // namespace faasflow::bench
