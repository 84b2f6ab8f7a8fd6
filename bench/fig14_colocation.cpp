/**
 * @file
 * Figure 14 (§5.5): co-location interference. Each benchmark is measured
 * solo (one closed-loop client) and then with all 8 benchmarks co-running
 * on the same cluster (one closed-loop client each); the degradation of
 * mean e2e latency is reported for both systems.
 *
 * Paper reference: under HyperFlow-serverless, Cyc/Gen/Vid/WC degrade by
 * 50.3%/48.5%/84.4%/66.2%; FaaSFlow-FaaStore largely absorbs the
 * contention by localizing temporary data.
 */
#include <cstdio>
#include <map>
#include <memory>

#include "harness.h"
#include "sections.h"

namespace {

std::map<std::string, double>
soloLatencies(const faasflow::SystemConfig& config, size_t invocations)
{
    std::map<std::string, double> out;
    for (const auto& bench : faasflow::benchmarks::allBenchmarks()) {
        faasflow::System system(config);
        const std::string name =
            faasflow::bench::deployBenchmark(system, bench);
        faasflow::bench::runClosedLoop(system, name, invocations);
        out[name] = system.metrics().e2e(name).mean();
    }
    return out;
}

std::map<std::string, double>
corunLatencies(const faasflow::SystemConfig& config, size_t invocations)
{
    using namespace faasflow;
    System system(config);
    std::vector<std::string> names;
    for (const auto& bench : benchmarks::allBenchmarks())
        names.push_back(bench::deployBenchmark(system, bench));
    system.metrics().clear();

    std::vector<std::unique_ptr<ClosedLoopClient>> clients;
    for (const auto& name : names) {
        clients.push_back(std::make_unique<ClosedLoopClient>(
            system, name, invocations));
        clients.back()->start();
    }
    system.run();

    std::map<std::string, double> out;
    for (const auto& name : names)
        out[name] = system.metrics().e2e(name).mean();
    return out;
}

}  // namespace

namespace faasflow::bench {

void
runFig14Colocation(const RunOptions& opts, Report& report)
{
    const size_t invocations = opts.scaled(120, 20);

    std::printf("Fig. 14 — co-location interference: mean e2e "
                "latency solo vs all-8 co-running (%zu closed-loop "
                "invocations per benchmark)\n\n",
                invocations);

    const auto master_solo = soloLatencies(
        SystemConfig::hyperflowServerless(), invocations);
    const auto master_corun = corunLatencies(
        SystemConfig::hyperflowServerless(), invocations);
    const auto faas_solo = soloLatencies(
        SystemConfig::faasflowFaastore(), invocations);
    const auto faas_corun = corunLatencies(
        SystemConfig::faasflowFaastore(), invocations);

    TextTable table;
    table.setHeader({"benchmark", "HF solo (ms)", "HF co-run (ms)",
                     "HF degraded", "FF solo (ms)",
                     "FF co-run (ms)", "FF degraded"});
    for (const auto& bench : benchmarks::allBenchmarks()) {
        const std::string& n = bench.name;
        const double hf_deg =
            master_corun.at(n) / master_solo.at(n) - 1.0;
        const double ff_deg =
            faas_corun.at(n) / faas_solo.at(n) - 1.0;
        report.pin("hf_degradation_pct_" + n, hf_deg * 100.0);
        report.pin("ff_degradation_pct_" + n, ff_deg * 100.0);
        report.pin("ff_corun_ms_" + n, faas_corun.at(n));
        table.addRow({n, ms(master_solo.at(n)),
                      ms(master_corun.at(n)), pct(hf_deg),
                      ms(faas_solo.at(n)), ms(faas_corun.at(n)),
                      pct(ff_deg)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("paper anchors (HyperFlow-serverless "
                "degradation): Cyc 50.3%%, Gen 48.5%%, Vid "
                "84.4%%, WC 66.2%%\n");
}

}  // namespace faasflow::bench
