/**
 * @file
 * Ablation study (beyond the paper's figures, for the design choices
 * DESIGN.md calls out):
 *
 *  1. CONTROL_MODE x DATA_MODE matrix — separates WorkerSP's
 *     scheduling-overhead win from FaaStore's data-movement win (the
 *     artifact exposes the same two switches).
 *  2. Capacity cap sweep — the multi-tenancy slot cap that drives
 *     Fig. 15's distribution, versus data locality.
 *  3. Reclamation headroom (mu) sweep — Eq. 1's safety margin versus the
 *     quota left for localization.
 *  4. Container vs MicroVM sandboxes (§4.3.2).
 *  5. Placement quality: random / round-robin / hash / Algorithm 1.
 */
#include <cstdio>

#include "harness.h"
#include "sections.h"

namespace {

using namespace faasflow;

struct RunStats
{
    double e2e_ms;
    double overhead_ms;
    double data_s;
    double local_fraction;
};

RunStats
runBench(SystemConfig config, const benchmarks::Benchmark& bench, size_t n)
{
    System system(config);
    const std::string name = bench::deployBenchmark(system, bench);
    bench::runClosedLoop(system, name, n);
    const auto& m = system.metrics();
    const double local = m.meanBytesLocal(name);
    const double remote = m.meanBytesRemote(name);
    return RunStats{m.e2e(name).mean(), m.schedOverhead(name).mean(),
                    m.dataLatency(name).mean(),
                    local + remote > 0 ? local / (local + remote) : 0.0};
}

/** Scheduling overhead on the data-free control-plane variant; with
 *  payloads attached, data time dominates "e2e - exec" for every mode
 *  and would mask the control-plane difference. */
double
controlOnlyOverhead(SystemConfig config, const benchmarks::Benchmark& bench,
                    size_t n)
{
    System system(config);
    const std::string name =
        bench::deployBenchmark(system, bench, /*strip_payloads=*/true);
    bench::runClosedLoop(system, name, n);
    return system.metrics().schedOverhead(name).mean();
}

}  // namespace

namespace faasflow::bench {

void
runAblationModes(const RunOptions& opts, Report& report)
{
    const size_t invocations = opts.scaled(60, 15);

    std::printf("Ablations (benchmark: Cyc unless noted, %zu "
                "closed-loop invocations)\n",
                invocations);

    const auto cyc = benchmarks::cycles();
    {
        std::printf("\n1. CONTROL_MODE x DATA_MODE matrix\n");
        TextTable table;
        table.setHeader({"control", "data", "mean e2e (ms)",
                         "ctrl-only overhead (ms)",
                         "data latency (s)"});
        for (const bool worker_sp : {false, true}) {
            for (const bool faastore : {false, true}) {
                SystemConfig config;
                config.control_mode =
                    worker_sp ? engine::ControlMode::WorkerSP
                              : engine::ControlMode::MasterSP;
                config.data_mode =
                    faastore ? engine::DataMode::FaaStore
                             : engine::DataMode::RemoteOnly;
                const RunStats stats =
                    runBench(config, cyc, invocations);
                const double ctrl =
                    controlOnlyOverhead(config, cyc, invocations);
                const std::string key =
                    std::string(worker_sp ? "workersp"
                                          : "mastersp") +
                    "_" + (faastore ? "faastore" : "db");
                report.pin("e2e_ms_" + key, stats.e2e_ms);
                report.pin("ctrl_overhead_ms_" + key, ctrl);
                report.pin("data_s_" + key, stats.data_s);
                table.addRow(
                    {worker_sp ? "WorkerSP" : "MasterSP",
                     faastore ? "FaaStore" : "DB",
                     ms(stats.e2e_ms), ms(ctrl),
                     strFormat("%.2f", stats.data_s)});
            }
        }
        std::printf("%s", table.str().c_str());
        std::printf("-> WorkerSP cuts scheduling overhead "
                    "regardless of the data path; FaaStore cuts "
                    "data latency regardless of the control "
                    "path; FaaSFlow-FaaStore composes both.\n");
    }

    {
        std::printf("\n2. capacity-cap sweep (Cap[node] slots per "
                    "workflow per worker)\n");
        TextTable table;
        table.setHeader({"capacity cap", "workers used", "groups",
                         "local bytes", "mean e2e (ms)"});
        for (const int cap : {8, 16, 36, 72, 144}) {
            SystemConfig config =
                SystemConfig::faasflowFaastore();
            config.scheduler.capacity_cap = cap;
            System system(config);
            const std::string name =
                deployBenchmark(system, cyc);
            runClosedLoop(system, name, invocations);
            const auto& placement =
                *system.deployed(name).placement;
            int used = 0;
            for (const int c : placement.nodesPerWorker(
                     static_cast<int>(
                         system.cluster().workerCount()))) {
                if (c > 0)
                    ++used;
            }
            const double local =
                system.metrics().meanBytesLocal(name);
            const double remote =
                system.metrics().meanBytesRemote(name);
            report.pin(strFormat("cap%d_workers_used", cap),
                       static_cast<double>(used));
            report.pin(strFormat("cap%d_local_fraction", cap),
                       local / (local + remote));
            table.addRow(
                {strFormat("%d", cap), strFormat("%d", used),
                 strFormat("%zu", placement.groups.size()),
                 pct(local / (local + remote)),
                 ms(system.metrics().e2e(name).mean())});
        }
        std::printf("%s", table.str().c_str());
        std::printf("-> small caps spread the workflow (less "
                    "locality, more parallel capacity); large "
                    "caps centralise it.\n");
    }

    {
        std::printf("\n3. reclamation headroom mu sweep (Eq. 1), "
                    "benchmark: Gen\n");
        const auto gen = benchmarks::genome();
        TextTable table;
        table.setHeader(
            {"mu (MiB)", "local bytes", "data latency (s)"});
        for (const int64_t mu_mib : {0, 16, 32, 64, 128}) {
            SystemConfig config =
                SystemConfig::faasflowFaastore();
            config.faastore.headroom = mu_mib * kMiB;
            config.scheduler.headroom = mu_mib * kMiB;
            const RunStats stats =
                runBench(config, gen, invocations);
            report.pin(strFormat("mu%lld_local_fraction",
                                 static_cast<long long>(mu_mib)),
                       stats.local_fraction);
            table.addRow(
                {strFormat("%lld",
                           static_cast<long long>(mu_mib)),
                 pct(stats.local_fraction),
                 strFormat("%.2f", stats.data_s)});
        }
        std::printf("%s", table.str().c_str());
        std::printf("-> a larger safety margin shrinks the "
                    "reclaimable quota and pushes data back to "
                    "the remote store.\n");
    }

    {
        std::printf("\n4. placement quality (Epi, identical "
                    "runtime, only the partition differs)\n");
        const auto epi = benchmarks::epigenomics();
        TextTable table;
        table.setHeader({"placement", "groups", "local bytes",
                         "data latency (s)", "mean e2e (ms)"});
        struct Strategy
        {
            const char* name;
            const char* key;
            int mode;  // 0 random, 1 round-robin, 2 hash, 3 alg 1
        };
        for (const Strategy strategy :
             {Strategy{"random", "random", 0},
              Strategy{"round-robin", "roundrobin", 1},
              Strategy{"hash (iter 0)", "hash", 2},
              Strategy{"Algorithm 1", "algorithm1", 3}}) {
            SystemConfig config =
                SystemConfig::faasflowFaastore();
            System system(config);
            system.registerFunctions(epi.functions);
            workflow::Dag dag = epi.dag;
            const int workers = static_cast<int>(
                config.cluster.worker_count);
            std::string name;
            if (strategy.mode == 0) {
                name = system.deploy(
                    std::move(dag),
                    scheduler::randomPartition(epi.dag, workers,
                                               0, Rng(7)));
            } else if (strategy.mode == 1) {
                name = system.deploy(
                    std::move(dag),
                    scheduler::roundRobinPartition(epi.dag,
                                                   workers, 0));
            } else {
                name = system.deploy(std::move(dag));  // hash
            }
            if (strategy.mode == 3) {
                ClosedLoopClient warm(system, name, 10);
                warm.start();
                system.run();
                system.repartition(name);
            }
            system.metrics().clear();
            runClosedLoop(system, name, invocations);
            const auto& m = system.metrics();
            const double local = m.meanBytesLocal(name);
            const double remote = m.meanBytesRemote(name);
            const double fraction =
                local + remote > 0 ? local / (local + remote)
                                   : 0.0;
            report.pin(strFormat("placement_%s_local_fraction",
                                 strategy.key),
                       fraction);
            report.pin(strFormat("placement_%s_e2e_ms",
                                 strategy.key),
                       m.e2e(name).mean());
            table.addRow(
                {strategy.name,
                 strFormat("%zu", system.deployed(name)
                                      .placement->groups.size()),
                 pct(fraction),
                 strFormat("%.2f", m.dataLatency(name).mean()),
                 ms(m.e2e(name).mean())});
        }
        std::printf("%s", table.str().c_str());
        std::printf("-> affinity-blind placements leave "
                    "everything remote; Algorithm 1 localizes "
                    "the per-lane pipelines.\n");
    }

    {
        std::printf("\n5. sandbox technology (§4.3.2), benchmark: "
                    "Vid\n");
        const auto vid = benchmarks::videoFfmpeg();
        TextTable table;
        table.setHeader({"sandbox", "mean e2e (ms)",
                         "data latency (s)", "local bytes"});
        for (const bool microvm : {false, true}) {
            SystemConfig config =
                SystemConfig::faasflowFaastore();
            config.faastore.sandbox =
                microvm ? storage::FaaStore::Sandbox::MicroVM
                        : storage::FaaStore::Sandbox::Container;
            const RunStats stats =
                runBench(config, vid, invocations);
            const char* key = microvm ? "microvm" : "container";
            report.pin(strFormat("sandbox_%s_e2e_ms", key), stats.e2e_ms);
            report.pin(strFormat("sandbox_%s_local_fraction", key),
                       stats.local_fraction);
            table.addRow(
                {microvm ? "MicroVM (vsock store)" : "Container",
                 ms(stats.e2e_ms),
                 strFormat("%.3f", stats.data_s),
                 pct(stats.local_fraction)});
        }
        std::printf("%s", table.str().c_str());
        std::printf("-> MicroVM isolation keeps the locality "
                    "benefit; each access just pays the vsock "
                    "hop.\n");
    }
}

}  // namespace faasflow::bench
