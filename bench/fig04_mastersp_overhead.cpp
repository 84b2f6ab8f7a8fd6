/**
 * @file
 * Figure 4 (§2.3): scheduling overhead of the MasterSP baseline
 * (HyperFlow-serverless) for every benchmark, measured with a single
 * closed-loop client and all function input data packed in the container
 * image (payloads stripped). Overhead = end-to-end latency minus the
 * critical path's actual execution time.
 *
 * Paper reference: scientific workflows average 712 ms, real-world
 * applications 181.3 ms.
 */
#include <cstdio>

#include "harness.h"
#include "sections.h"

namespace faasflow::bench {

void
runFig04MasterSpOverhead(const RunOptions& opts, Report& report)
{
    const size_t invocations = opts.scaled(1000, 25);

    std::printf("Fig. 4 — MasterSP (HyperFlow-serverless) "
                "scheduling overhead, %zu closed-loop invocations "
                "each\n\n",
                invocations);

    TextTable table;
    table.setHeader({"benchmark", "tasks", "sched overhead (ms)",
                     "e2e latency (ms)"});

    double scientific_sum = 0.0;
    double realworld_sum = 0.0;
    size_t scientific_n = 0;
    size_t realworld_n = 0;
    for (const auto& bench : benchmarks::allBenchmarks()) {
        System system(SystemConfig::hyperflowServerless());
        const size_t tasks = bench.dag.taskCount();
        const std::string name = deployBenchmark(
            system, bench, /*strip_payloads=*/true);
        runClosedLoop(system, name, invocations);

        const double overhead =
            system.metrics().schedOverhead(name).mean();
        const double e2e = system.metrics().e2e(name).mean();
        const bool scientific = tasks >= 50;
        (scientific ? scientific_sum : realworld_sum) += overhead;
        ++(scientific ? scientific_n : realworld_n);
        report.pin("sched_overhead_ms_" + name, overhead);
        report.pin("e2e_ms_" + name, e2e);
        table.addRow({name, strFormat("%zu", tasks), ms(overhead),
                      ms(e2e)});
    }
    std::printf("%s\n", table.str().c_str());
    if (scientific_n > 0) {
        const double avg = scientific_sum / scientific_n;
        report.pin("scientific_avg_ms", avg);
        std::printf("scientific average: %.1f ms   (paper: 712 "
                    "ms)\n",
                    avg);
    }
    if (realworld_n > 0) {
        const double avg = realworld_sum / realworld_n;
        report.pin("realworld_avg_ms", avg);
        std::printf("real-world average: %.1f ms   (paper: 181.3 "
                    "ms)\n",
                    avg);
    }
}

}  // namespace faasflow::bench
