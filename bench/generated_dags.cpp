/**
 * @file
 * Generated-DAG campaign: the seeded workload generator's regime x size
 * grid (workflow/dagen.h) driven through both scheduling patterns on
 * identical workflows — the differential oracle as a tracked benchmark.
 *
 * Every cell is an independent simulation: generate the DAG from a
 * pinned (regime, seed, nodes) triple, deploy it with the standard
 * warm-up + repartition methodology, then run a closed loop capturing
 * per-invocation output digests. Per row the section pins the
 * latencies of MasterSP and WorkerSP plus the
 * correctness counters (cross-engine digest mismatches, incomplete
 * invocations, same-epoch duplicate executions, timeouts) — all
 * deterministic, so the section digest must repeat bit-for-bit across
 * runs and campaign thread counts.
 *
 * The canonical WDL emission of every row's workflow is folded into the
 * section digest as well: a generator or emitter that stops being
 * byte-stable fails the golden check even if the simulations still
 * agree.
 */
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/campaign.h"
#include "harness.h"
#include "sections.h"
#include "workflow/dagen.h"
#include "workflow/wdl.h"

namespace {

using namespace faasflow;

constexpr uint64_t kSeed = 20260809;

struct CellResult
{
    size_t expected = 0;
    size_t completed = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    uint64_t duplicate_executions = 0;
    uint64_t timeouts = 0;
    std::map<uint64_t, uint64_t> digests;  ///< invocation id -> digest
};

workflow::GenSpec
rowSpec(workflow::Regime regime, int nodes)
{
    workflow::GenSpec spec;
    spec.regime = regime;
    spec.seed = kSeed ^ fnv1a(workflow::regimeName(regime));
    spec.nodes = nodes;
    return spec;
}

CellResult
runCell(const workflow::GeneratedWorkflow& gen, engine::ControlMode mode,
        size_t invocations)
{
    SystemConfig config = mode == engine::ControlMode::MasterSP
                              ? SystemConfig::hyperflowServerless()
                              : SystemConfig::faasflowFaastore();
    config.seed = kSeed;
    System system(config);

    benchmarks::Benchmark bench;
    bench.name = gen.dag.name();
    bench.dag = gen.dag;
    bench.functions = gen.functions;
    const std::string name = bench::deployBenchmark(system, bench, false, 4);

    CellResult cell;
    cell.expected = invocations;
    size_t remaining = invocations;
    std::function<void()> next = [&] {
        system.invoke(name, [&](const engine::InvocationRecord& r) {
            if (r.timed_out)
                ++cell.timeouts;
            cell.duplicate_executions += r.duplicate_executions;
            cell.digests[r.invocation_id] = r.output_digest;
            if (--remaining > 0)
                next();
        });
    };
    next();
    system.run();

    cell.completed = cell.digests.size();
    const Percentiles& e2e = system.metrics().e2e(name);
    cell.p50_ms = e2e.p50();
    cell.p99_ms = e2e.p99();
    return cell;
}

}  // namespace

namespace faasflow::bench {

void
runGeneratedDags(const RunOptions& opts, Report& report)
{
    const size_t invocations = opts.scaled(12, 4);
    const std::vector<std::pair<std::string, int>> sizes = {
        {"small", static_cast<int>(opts.scaled(16, 8))},
        {"large", static_cast<int>(opts.scaled(96, 24))}};

    struct Row
    {
        workflow::Regime regime;
        std::string label;
        workflow::GeneratedWorkflow gen;
    };
    std::vector<Row> rows;
    for (const workflow::Regime regime : workflow::allRegimes()) {
        for (const auto& [size_label, nodes] : sizes) {
            Row row;
            row.regime = regime;
            row.label = std::string(workflow::regimeName(regime)) +
                        "_" + size_label;
            row.gen = workflow::generate(rowSpec(regime, nodes));
            if (!row.gen.ok()) {
                std::printf("generation failed for %s: %s\n",
                            row.label.c_str(),
                            row.gen.error.c_str());
                report.pin(row.label + "_generation_failed", 1.0);
                continue;
            }
            rows.push_back(std::move(row));
        }
    }

    std::printf("generated-DAG grid — %zu rows x {MasterSP, "
                "WorkerSP}, %zu invocations per cell, seed %llu\n\n",
                rows.size(), invocations,
                static_cast<unsigned long long>(kSeed));

    // One job per (row, engine): all cells are independent sims.
    std::vector<std::function<CellResult()>> jobs;
    for (const Row& row : rows) {
        for (const engine::ControlMode mode :
             {engine::ControlMode::MasterSP,
              engine::ControlMode::WorkerSP}) {
            const workflow::GeneratedWorkflow* gen = &row.gen;
            jobs.push_back([gen, mode, invocations] {
                return runCell(*gen, mode, invocations);
            });
        }
    }
    const std::vector<CellResult> cells =
        runCampaign(jobs, opts.campaignWidth());

    TextTable table;
    table.setHeader({"row", "nodes", "master p50", "worker p50",
                     "speedup", "mismatch"});
    size_t job = 0;
    for (const Row& row : rows) {
        const CellResult& master = cells[job++];
        const CellResult& worker = cells[job++];

        // Cross-engine differential: same invocation index must
        // yield the same output digest on both engines. Ids are
        // allocated per system, so compare in completion order.
        uint64_t mismatches = 0;
        auto m = master.digests.begin();
        auto w = worker.digests.begin();
        for (; m != master.digests.end() &&
               w != worker.digests.end();
             ++m, ++w) {
            if (m->second != w->second)
                ++mismatches;
        }

        table.addRow(
            {row.label,
             strFormat("%zu", row.gen.dag.nodeCount()),
             ms(master.p50_ms), ms(worker.p50_ms),
             strFormat("%.2fx", master.p50_ms / worker.p50_ms),
             strFormat("%llu",
                       static_cast<unsigned long long>(mismatches))});

        const std::string prefix = row.label + "_";
        report.pin(prefix + "nodes",
                   static_cast<double>(row.gen.dag.nodeCount()));
        report.pin(prefix + "master_p50_ms", master.p50_ms);
        report.pin(prefix + "worker_p50_ms", worker.p50_ms);
        report.pin(prefix + "worker_p99_ms", worker.p99_ms);
        // Exact-checked correctness invariants (must stay 0).
        report.pin(prefix + "digest_mismatches",
                   static_cast<double>(mismatches));
        report.pin(prefix + "incomplete",
                   static_cast<double>(
                       master.expected - master.completed +
                       worker.expected - worker.completed));
        report.pin(prefix + "duplicate_executions",
                   static_cast<double>(
                       master.duplicate_executions +
                       worker.duplicate_executions));
        report.pin(prefix + "timeouts",
                   static_cast<double>(master.timeouts +
                                       worker.timeouts));

        // Generator/emitter byte-stability: the canonical WDL
        // emission folds into the section digest.
        report.digest(
            workflow::emitWdl(row.gen.dag, row.gen.functions));
    }
    std::printf("%s\n", table.str().c_str());
}

}  // namespace faasflow::bench
