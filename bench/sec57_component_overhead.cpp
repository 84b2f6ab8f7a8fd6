/**
 * @file
 * §5.7: FaaSFlow component overhead. Measures (a) the per-worker engine
 * CPU usage and memory footprint while serving invocations (paper: 0.12
 * cores and 47 MB per worker), and (b) how engine resource usage scales
 * as the cluster grows from 1 to 100 workers (paper: linear total, flat
 * per node, no extra per-invocation overhead).
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.h"
#include "sections.h"

namespace faasflow::bench {

void
runSec57ComponentOverhead(const RunOptions& opts, Report& report)
{
    const size_t invocations = opts.scaled(100, 20);

    std::printf("§5.7 — per-worker engine overhead while serving "
                "all 8 benchmarks (closed-loop clients, sustained "
                "load)\n\n");
    {
        System system(SystemConfig::faasflowFaastore());
        std::vector<std::string> names;
        for (const auto& bench : benchmarks::allBenchmarks())
            names.push_back(deployBenchmark(system, bench));
        std::vector<std::unique_ptr<ClosedLoopClient>> clients;
        for (const auto& name : names) {
            clients.push_back(std::make_unique<ClosedLoopClient>(
                system, name, invocations));
            clients.back()->start();
        }
        system.run();

        TextTable table;
        table.setHeader({"worker", "engine CPU (cores)",
                         "engine mem"});
        double cpu_sum = 0.0;
        for (size_t w = 0; w < system.cluster().workerCount();
             ++w) {
            const double cpu = system.workerEngineUtilisation(w);
            cpu_sum += cpu;
            table.addRow({strFormat("w%zu", w),
                          strFormat("%.3f", cpu),
                          formatBytes(
                              system.workerEngineMemory(w))});
        }
        const double mean_cpu =
            cpu_sum /
            static_cast<double>(system.cluster().workerCount());
        report.pin("mean_engine_cpu_cores", mean_cpu);
        std::printf("%s\n", table.str().c_str());
        std::printf("mean engine CPU: %.3f cores  (paper: "
                    "0.12)\n",
                    mean_cpu);
        std::printf("engine memory:   47 MB baseline (paper: 47 "
                    "MB)\n\n");
    }

    std::printf("cluster scaling: engine overhead per node as "
                "the cluster grows (WC, %zu invocations)\n\n",
                invocations);
    TextTable table;
    table.setHeader({"workers", "total engine mem",
                     "mean engine CPU", "mean e2e (ms)"});
    const std::vector<int> scales =
        opts.smoke ? std::vector<int>{1, 10, 25}
                   : std::vector<int>{1, 5, 10, 25, 50, 100};
    for (const int workers : scales) {
        SystemConfig config = SystemConfig::faasflowFaastore();
        config.cluster.worker_count = workers;
        System system(config);
        const std::string name =
            deployBenchmark(system, benchmarks::wordCount());
        runClosedLoop(system, name, invocations);

        int64_t mem = 0;
        double cpu = 0.0;
        for (size_t w = 0; w < system.cluster().workerCount();
             ++w) {
            mem += system.workerEngineMemory(w);
            cpu += system.workerEngineUtilisation(w);
        }
        const double e2e = system.metrics().e2e(name).mean();
        report.pin(strFormat("total_engine_mem_mb_w%d", workers), toMB(mem));
        report.pin(strFormat("mean_engine_cpu_w%d", workers), cpu / workers);
        report.pin(strFormat("mean_e2e_ms_w%d", workers), e2e);
        table.addRow({strFormat("%d", workers), formatBytes(mem),
                      strFormat("%.4f", cpu / workers), ms(e2e)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("expectation: total memory scales linearly with "
                "workers; per-node CPU stays flat;\ne2e latency "
                "does not grow with the cluster (no extra "
                "per-invocation overhead).\n");
}

}  // namespace faasflow::bench
