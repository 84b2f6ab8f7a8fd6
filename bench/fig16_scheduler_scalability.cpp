/**
 * @file
 * Figure 16 (§5.6): Graph Scheduler cost as the workflow grows. Genome
 * is scaled to 10/25/50/100/200 function nodes; for each size we measure
 * the wall-clock time of one full partition iteration (Algorithm 1) and
 * estimate the scheduler's working-set memory.
 *
 * Paper reference: response time grows roughly O(n^2); memory starts at
 * 24.43 MB and stays stable; fine for workflows under ~50 nodes.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "benchmarks/specs.h"
#include "common/table.h"
#include "common/units.h"
#include "harness.h"
#include "sections.h"
#include "scheduler/graph_scheduler.h"
#include "workflow/analysis.h"

namespace {

using namespace faasflow;

/** Builds the registry + DAG for a genome instance of `tasks` nodes. */
struct Instance
{
    benchmarks::Benchmark bench;
    cluster::FunctionRegistry registry;

    explicit Instance(int tasks) : bench(benchmarks::genome(tasks))
    {
        for (const auto& spec : bench.functions)
            registry.add(spec);
    }
};

/** Rough working-set estimate: DAG storage + union-find + scheduler
 *  bookkeeping + the constant component overhead the paper reports. */
int64_t
schedulerMemoryEstimate(const workflow::Dag& dag)
{
    const int64_t base = 24 * kMB + 430 * kKB;  // paper: starts at 24.43 MB
    const int64_t per_node = static_cast<int64_t>(
        sizeof(workflow::DagNode) + 3 * sizeof(int) + 64);
    const int64_t per_edge = static_cast<int64_t>(
        sizeof(workflow::DagEdge) + 2 * sizeof(size_t));
    return base + per_node * static_cast<int64_t>(dag.nodeCount()) +
           per_edge * static_cast<int64_t>(dag.edgeCount());
}

/** Best-of-k wall time of `fn` in milliseconds, after one warmup run. */
template <typename Fn>
double
bestOfMs(int reps, Fn&& fn)
{
    fn();  // warmup: page in code and allocator state
    double best = 0.0;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        best = i == 0 ? ms : std::min(best, ms);
    }
    return best;
}

}  // namespace

namespace faasflow::bench {

void
runFig16SchedulerScalability(const RunOptions& opts, Report& report)
{
    const std::vector<int> sizes =
        opts.smoke ? std::vector<int>{10, 50}
                   : std::vector<int>{10, 25, 50, 100, 200};
    const int reps = static_cast<int>(opts.scaled(10, 3));

    std::printf("Fig. 16 — Graph Scheduler scalability: one "
                "Algorithm-1 iteration on Genome(n)\n"
                "(expect roughly O(n^2) growth; mem_MB is the "
                "estimated scheduler working set, paper baseline "
                "24.43 MB)\n\n");

    TextTable table;
    table.setHeader({"nodes", "iterate (ms, best of k)",
                     "hash partition (ms)", "groups", "mem_MB"});
    for (const int n : sizes) {
        const Instance instance(n);
        scheduler::GraphScheduler sched(instance.registry);
        scheduler::RuntimeFeedback feedback;
        workflow::Dag dag = instance.bench.dag;
        // Capacity scales with the workflow so merging is never
        // cut short by the slot cap — Fig. 16 measures the
        // algorithm, not the cap.
        const std::vector<int> capacity(7, n);
        size_t groups = 0;
        const double iterate_ms = bestOfMs(reps, [&] {
            auto placement = sched.iterate(dag, feedback,
                                           capacity, 0);
            groups = placement.groups.size();
        });
        const double hash_ms = bestOfMs(reps, [&] {
            auto placement =
                scheduler::hashPartition(instance.bench.dag, 7, 0);
            (void)placement;
        });
        const double mem_mb =
            toMB(schedulerMemoryEstimate(instance.bench.dag));
        // The host timings are printed, not pinned: a sub-millisecond
        // window moves with the host.
        report.pin(strFormat("groups_n%d", n), static_cast<double>(groups));
        report.pin(strFormat("mem_mb_n%d", n), mem_mb);
        table.addRow({strFormat("%d", n),
                      strFormat("%.3f", iterate_ms),
                      strFormat("%.4f", hash_ms),
                      strFormat("%zu", groups),
                      strFormat("%.2f", mem_mb)});
    }
    std::printf("%s\n", table.str().c_str());
}

}  // namespace faasflow::bench
