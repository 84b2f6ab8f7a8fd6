/**
 * @file
 * Figure 12 (§5.4): p99 e2e latency of Gen and Vid as a function of load
 * (invocations/min) under storage-node bandwidths of 25/50/75/100 MB/s,
 * for HyperFlow-serverless and FaaSFlow-FaaStore. Also prints the §5.4
 * summary statistics: throughput degradation when bandwidth drops from
 * 100 to 25 MB/s, and the effective bandwidth-utilisation multiplier.
 *
 * Paper reference: HyperFlow-serverless degrades 32.5% on average when
 * bandwidth drops to 25 MB/s; FaaSFlow-FaaStore stays under 9.5%, and
 * utilisation of network bandwidth improves 1.5x-4x.
 */
#include <cstdio>
#include <functional>
#include <vector>

#include "common/campaign.h"
#include "harness.h"
#include "sections.h"

namespace {

double
p99For(faasflow::SystemConfig config,
       const faasflow::benchmarks::Benchmark& bench, double bandwidth,
       double rate, size_t invocations)
{
    config.cluster.storage_bandwidth = bandwidth;
    faasflow::System system(config);
    const std::string name = faasflow::bench::deployBenchmark(system, bench);
    faasflow::bench::runOpenLoop(system, name, rate, invocations);
    return system.metrics().e2e(name).p99() / 1000.0;
}

}  // namespace

namespace faasflow::bench {

void
runFig12BandwidthSweep(const RunOptions& opts, Report& report)
{
    const size_t invocations = opts.scaled(200, 40);
    const std::vector<double> bandwidths =
        opts.smoke ? std::vector<double>{25e6, 100e6}
                   : std::vector<double>{25e6, 50e6, 75e6, 100e6};
    const std::vector<double> rates =
        opts.smoke ? std::vector<double>{6.0}
                   : std::vector<double>{4.0, 6.0, 8.0};

    std::printf("Fig. 12 — p99 e2e latency (s) vs load across "
                "storage bandwidths (%zu open-loop arrivals)\n",
                invocations);

    // Every grid point is an independent System run; fan the
    // whole grid out through the campaign runner (the width is
    // pinned by the harness so determinism tests can sweep it).
    std::vector<std::function<double()>> jobs;
    for (const auto& bench :
         {benchmarks::genome(), benchmarks::videoFfmpeg()}) {
        for (const bool faastore : {false, true}) {
            for (const double rate : rates) {
                for (const double bw : bandwidths) {
                    jobs.push_back([bench, faastore, bw, rate,
                                    invocations] {
                        const SystemConfig config =
                            faastore
                                ? SystemConfig::faasflowFaastore()
                                : SystemConfig::
                                      hyperflowServerless();
                        return p99For(config, bench, bw, rate,
                                      invocations);
                    });
                }
            }
        }
    }
    const std::vector<double> p99s =
        runCampaign(jobs, opts.campaignWidth());

    double degradation_master = 0.0, degradation_faas = 0.0;
    int degradation_count = 0;
    // Index of the rate the §5.4 summary reads (6 inv/min).
    size_t summary_rate = 0;
    for (size_t r = 0; r < rates.size(); ++r)
        if (rates[r] == 6.0)
            summary_rate = r;

    size_t job = 0;
    for (const auto& bench :
         {benchmarks::genome(), benchmarks::videoFfmpeg()}) {
        for (const bool faastore : {false, true}) {
            std::printf("\n%s / %s\n", bench.name.c_str(),
                        faastore ? "FaaSFlow-FaaStore"
                                 : "HyperFlow-serverless");
            TextTable table;
            std::vector<std::string> header = {"rate (inv/min)"};
            for (const double bw : bandwidths)
                header.push_back(
                    strFormat("%d MB/s", (int)(bw / 1e6)));
            table.setHeader(header);

            std::vector<std::vector<double>> grid;
            for (const double rate : rates) {
                std::vector<std::string> row = {
                    strFormat("%.0f", rate)};
                std::vector<double> values;
                for (size_t b = 0; b < bandwidths.size(); ++b) {
                    const double p99 = p99s[job++];
                    values.push_back(p99);
                    row.push_back(strFormat("%.2f", p99));
                    report.pin(
                        strFormat(
                            "p99_s_%s_%s_r%.0f_bw%d",
                            bench.name.c_str(),
                            faastore ? "ff" : "hf", rate,
                            (int)(bandwidths[b] / 1e6)),
                        p99);
                }
                grid.push_back(values);
                table.addRow(row);
            }
            std::printf("%s", table.str().c_str());

            // Degradation at 6 inv/min when bandwidth drops from
            // the widest to the narrowest pipe.
            const double at_high =
                grid[summary_rate][bandwidths.size() - 1];
            const double at_low = grid[summary_rate][0];
            const double degradation =
                (at_low - at_high) / at_low;
            (faastore ? degradation_faas : degradation_master) +=
                degradation;
            if (faastore)
                ++degradation_count;
        }
    }

    const double master_pct =
        degradation_master / degradation_count * 100;
    const double faas_pct =
        degradation_faas / degradation_count * 100;
    report.pin("hf_degradation_pct", master_pct);
    report.pin("ff_degradation_pct", faas_pct);
    std::printf("\n§5.4 summary (6 inv/min, p99 increase when "
                "bandwidth drops to 25 MB/s):\n");
    std::printf("  HyperFlow-serverless: %.1f%%   (paper: 32.5%% "
                "throughput degradation)\n",
                master_pct);
    std::printf("  FaaSFlow-FaaStore:    %.1f%%   (paper: < "
                "9.5%%)\n",
                faas_pct);
}

}  // namespace faasflow::bench
