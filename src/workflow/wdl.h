#ifndef FAASFLOW_WORKFLOW_WDL_H_
#define FAASFLOW_WORKFLOW_WDL_H_

#include <string>
#include <string_view>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/function.h"
#include "json/json.h"
#include "sim/fault_schedule.h"
#include "workflow/dag.h"

namespace faasflow::workflow {

/**
 * Result of parsing a Workflow Definition Language document: the DAG plus
 * any function specs declared inline (to be registered with the
 * FunctionRegistry before deployment).
 */
struct WdlResult
{
    Dag dag;
    std::vector<cluster::FunctionSpec> functions;

    /** Parsed `faults:` block (pass to System::installFaults). */
    sim::FaultSchedule faults;
    bool has_faults = false;

    /** Parsed `cluster:` block — a seeded fleet topology (node count,
     *  heterogeneity knobs) to run the workflow on. */
    cluster::FleetSpec fleet;
    bool has_cluster = false;

    /** Parsed `durability:` block — the latency-vs-durability point the
     *  workflow wants to run under (implies a durable progress log). */
    struct DurabilitySpec
    {
        /** "sync", "group_commit" or "speculative". */
        std::string mode = "sync";
        /** WAL commit latency of one batch, microseconds. */
        double append_latency_us = 800.0;
        /** Group-commit linger window, microseconds. */
        double batch_window_us = 300.0;
        /** Batch flushes immediately at this many records. */
        int batch_max_records = 16;
    };
    DurabilitySpec durability;
    bool has_durability = false;

    /** Parsed `slo:` block — the workflow's end-to-end service-level
     *  objective, fed to the obs::SloMonitor burn-rate alerting. */
    struct SloSpec
    {
        /** Per-invocation e2e deadline; slower completions are misses. */
        double deadline_ms = 1000.0;
        /** Advisory p99 target printed in SLO tables (0 = unset). */
        double target_p99_ms = 0.0;
        /** Allowed long-run deadline-miss fraction (error budget). */
        double miss_budget = 0.01;
        /** Multi-window burn-rate windows. */
        double short_window_ms = 1000.0;
        double long_window_ms = 10000.0;
        /** Alert fires at both-window burn >= fire_burn, clears below
         *  clear_burn (hysteresis). */
        double fire_burn = 2.0;
        double clear_burn = 1.0;
    };
    SloSpec slo;
    bool has_slo = false;

    std::string error;  ///< empty on success

    bool ok() const { return error.empty(); }
};

/**
 * Parses a workflow.yaml-style definition (§4.1.1) into a Dag.
 *
 * Document shape:
 *
 *   name: video-ffmpeg
 *   functions:              # optional inline function declarations
 *     - name: split
 *       exec_ms: 250        # mean execution time
 *       sigma: 0.08         # optional lognormal jitter
 *       mem_mb: 256         # container provisioned memory  (Mem(v))
 *       peak_mb: 140        # observed peak usage            (S)
 *       # exact-unit alternatives (override the ms/mb keys; these are
 *       # what emitWdl writes so documents round-trip byte-exactly):
 *       # exec_us: 250000   # integer microseconds
 *       # mem_bytes: 256000000
 *       # peak_bytes: 140000000
 *   steps:                  # executed as a sequence
 *     - task: split
 *       output_mb: 30       # payload shipped to each successor
 *     - foreach:
 *         width: 4
 *         steps:
 *           - task: transcode
 *             output_mb: 8
 *     - parallel:
 *         branches:
 *           - - task: a
 *           - - task: b
 *     - switch:
 *         branches:
 *           - - task: on_true
 *           - - task: on_false
 *     - task: merge
 *
 * Logic steps follow §4.1.1: task, sequence, parallel, switch, foreach.
 * Parallel/switch/foreach constructs are fenced by virtual start/end
 * nodes that keep them atomic during graph partition. Payload sizes may
 * be given as output_bytes, output_kb, or output_mb.
 *
 * The step language is series-parallel by construction. Two alternative
 * workflow bodies express arbitrary DAGs (a document carries exactly one
 * of `steps`, `dag`, or `generate`):
 *
 *   dag:                    # explicit node/edge lists
 *     nodes:
 *       - {name: a, function: split}
 *       - {name: fence, kind: virtual_start}   # or virtual_end
 *       - {name: b, function: work, foreach_width: 4}
 *     edges:
 *       - {from: a, to: b, bytes: 1048576}     # payload from `from`
 *       - {from: a, to: fence}                 # control-only edge
 *       - {from: fence, to: b,                 # explicit relay payload
 *          payload: [{origin: a, bytes: 64}]}
 *
 *   generate:               # seeded generator (workflow/dagen.h)
 *     regime: montage       # chain/fanout/diamond/layered/montage
 *     seed: 7
 *     nodes: 2000
 *     # optional knobs: width_min/width_max, edge_density,
 *     # edge_kb_mean/edge_kb_sigma, cost_classes, exec_ms_mean/
 *     # exec_ms_sigma, jitter_sigma, mem_mb, peak_fraction
 *
 * `generate` supplies its own function declarations, so it cannot be
 * combined with a `functions` block. A `dag` body is validated
 * structurally (acyclic, connected, sources/sinks present) after parse.
 *
 * A document may also carry a top-level `faults:` block describing a
 * fault-injection schedule — either an explicit event script:
 *
 *   faults:
 *     events:
 *       - kind: worker_crash    # containers + local store lost
 *         worker: 1
 *         at_ms: 120
 *         down_ms: 400
 *       - kind: link_down       # worker: -1 (or omitted) = storage node
 *         worker: 0
 *         at_ms: 50
 *         down_ms: 100
 *       - kind: storage_brownout
 *         at_ms: 200
 *         down_ms: 1000
 *         factor: 4.0           # remote-store op latency multiplier
 *       - kind: master_crash    # master engine dies; needs durable_log
 *         at_ms: 300            # to survive in MasterSP mode
 *         down_ms: 500
 *
 * or a seeded random schedule (Poisson arrivals, see RandomFaultParams):
 *
 *   faults:
 *     seed: 7
 *     profile: heavy            # optional light/heavy/storage-hostile base
 *     horizon_ms: 10000
 *     workers: 7                # index range faults are drawn from
 *     crash_rate_per_min: 1.0   # explicit rates override the profile
 *     link_rate_per_min: 1.0
 *     brownout_rate_per_min: 0.0
 *     master_crash_rate_per_min: 0.0
 *
 * A top-level `cluster:` block generates the fleet to run on (see
 * cluster/fleet.h; all knobs optional, defaults mirror the paper's
 * uniform testbed machine):
 *
 *   cluster:
 *     nodes: 1000
 *     seed: 42
 *     cores: 8                  # baseline cores per node
 *     memory_gb: 32
 *     nic_mb_s: 100             # NIC bandwidth, MB/s full duplex
 *     big_fraction: 0.1         # share of nodes with scaled-up cores
 *     big_multiplier: 2.0
 *     slow_nic_fraction: 0.1    # share of nodes with degraded NICs
 *     slow_nic_multiplier: 0.25
 *     hop_latency_ms: 0.5       # one-way cross-node latency
 *
 * A top-level `durability:` block opts the run into the durable
 * progress log at a chosen latency-vs-durability point (DESIGN.md §8.5):
 *
 *   durability:
 *     mode: speculative         # sync | group_commit | speculative
 *     append_latency_us: 800    # WAL commit latency per batch
 *     batch_window_us: 300      # group-commit linger window
 *     batch_max_records: 16     # size-triggered flush threshold
 */
WdlResult parseWdl(const json::Value& doc);

/** Convenience: YAML text -> parseWdl. */
WdlResult parseWdlYaml(std::string_view yaml_text);

/**
 * Emits a canonical WDL document for a DAG plus its function specs,
 * using the explicit `dag:` body and the exact-unit function keys
 * (exec_us / mem_bytes / peak_bytes). Canonical means byte-stable:
 * emit(parse(emit(x))) == emit(x), and the output depends only on the
 * DAG/function contents — the substrate for generator determinism
 * goldens and reproducing any generated case as a standalone file.
 */
std::string emitWdl(const Dag& dag,
                    const std::vector<cluster::FunctionSpec>& functions);

/** Initial bandwidth estimate used to seed edge weights before any
 *  runtime feedback exists (bytes/s). */
constexpr double kInitialBandwidthEstimate = 50e6;

}  // namespace faasflow::workflow

#endif  // FAASFLOW_WORKFLOW_WDL_H_
