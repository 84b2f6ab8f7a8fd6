/**
 * @file
 * Figure 15 (§5.5): the Graph Scheduler's grouping and node distribution
 * for all 8 benchmarks deployed together. Scientific workflows (50
 * nodes) should spread across the 7 workers; small real-world workflows
 * should collapse onto a single worker.
 */
#include <cstdio>

#include "harness.h"
#include "sections.h"

namespace faasflow::bench {

void
runFig15Distribution(const RunOptions&, Report& report)
{
    std::printf("Fig. 15 — grouping & scheduling result after one "
                "feedback-driven partition iteration\n\n");

    System system(SystemConfig::faasflowFaastore());
    std::vector<std::string> names;
    for (const auto& bench : benchmarks::allBenchmarks())
        names.push_back(deployBenchmark(system, bench));

    TextTable table;
    std::vector<std::string> header = {"benchmark", "tasks",
                                       "groups"};
    for (size_t w = 0; w < system.cluster().workerCount(); ++w)
        header.push_back(strFormat("w%zu", w));
    table.setHeader(header);

    for (const auto& name : names) {
        const auto& wf = system.deployed(name);
        const auto& placement = *wf.placement;
        const auto counts = placement.nodesPerWorker(
            static_cast<int>(system.cluster().workerCount()));
        std::vector<std::string> row = {
            name, strFormat("%zu", wf.dag.taskCount()),
            strFormat("%zu", placement.groups.size())};
        int used = 0;
        for (const int c : counts) {
            row.push_back(strFormat("%d", c));
            if (c > 0)
                ++used;
        }
        report.pin("groups_" + name,
                   static_cast<double>(placement.groups.size()));
        report.pin("workers_used_" + name, static_cast<double>(used));
        table.addRow(row);
        std::printf("%-4s spans %d worker(s)\n", name.c_str(),
                    used);
    }
    std::printf("\n%s\n", table.str().c_str());
    std::printf("expectation (paper): 50-node scientific "
                "workflows spread across the 7 workers;\n"
                "real-world workflows (<= 10 functions) are "
                "grouped onto one worker.\n");
}

}  // namespace faasflow::bench
