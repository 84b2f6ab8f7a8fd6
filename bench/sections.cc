/**
 * @file
 * The section table: every production benchmark section, in canonical
 * (alphabetical) order. A new bench translation unit adds its run
 * function here and to the declaration list in sections.h. There is no
 * static-initializer self-registration, so the linker can never drop a
 * section silently.
 */
#include "sections.h"

namespace faasflow::bench {

namespace {

constexpr Section kSections[] = {
    {"ablation_modes",
     "control/data mode matrix, capacity & headroom sweeps, placement "
     "quality, sandbox tech",
     runAblationModes},
    {"coldstart_policies",
     "keep-alive policies under memory pressure (AlwaysCold / "
     "FixedLifetime / GreedyDual / NeverEvict)",
     runColdstartPolicies},
    {"durability_frontier",
     "p50/p99 e2e and rollback counts across {sync, group_commit, "
     "speculative} x {none, light, storage-hostile}",
     runDurabilityFrontier},
    {"fig04_mastersp_overhead",
     "MasterSP scheduling overhead per benchmark (paper Fig. 4)",
     runFig04MasterSpOverhead},
    {"fig05_data_movement",
     "data movement: monolithic vs FaaS data-shipping (paper Fig. 5)",
     runFig05DataMovement},
    {"fig11_sched_overhead",
     "scheduling overhead: MasterSP vs WorkerSP (paper Fig. 11)",
     runFig11SchedOverhead},
    {"fig12_bandwidth_sweep",
     "p99 vs load across storage bandwidths (paper Fig. 12)",
     runFig12BandwidthSweep},
    {"fig13_tail_latency",
     "p99 at 50 MB/s storage bandwidth, open loop (paper Fig. 13)",
     runFig13TailLatency},
    {"fig14_colocation",
     "co-location interference, solo vs all-8 co-run (paper Fig. 14)",
     runFig14Colocation},
    {"fig15_distribution",
     "Graph Scheduler grouping & node distribution (paper Fig. 15)",
     runFig15Distribution},
    {"fig16_scheduler_scalability",
     "Graph Scheduler cost vs workflow size (paper Fig. 16)",
     runFig16SchedulerScalability},
    {"generated_dags",
     "seeded regime x size grid (dagen.h), MasterSP vs WorkerSP on identical "
     "DAGs with cross-engine digest invariants",
     runGeneratedDags},
    {"load_saturation",
     "multi-tenant open-loop saturation sweep with/without admission control",
     runLoadSaturation},
    {"perf_hotpaths",
     "simulator hot paths: sweep p99, campaign bit-identity, trace "
     "and profile counts",
     runPerfHotpaths},
    {"sec57_component_overhead",
     "per-worker engine CPU/memory and cluster scaling (paper §5.7)",
     runSec57ComponentOverhead},
    {"table2_vendor_quotas",
     "vendor payload quotas + oversize-intermediate demo (paper Table 2)",
     runTable2VendorQuotas},
    {"table4_data_latency",
     "data-movement latency over all edges, HF vs FF (paper Table 4)",
     runTable4DataLatency},
};

}  // namespace

std::span<const Section>
allSections()
{
    return kSections;
}

}  // namespace faasflow::bench
