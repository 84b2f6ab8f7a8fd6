#ifndef FAASFLOW_ENGINE_TYPES_H_
#define FAASFLOW_ENGINE_TYPES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "engine/modes.h"
#include "obs/trace.h"
#include "scheduler/feedback.h"
#include "scheduler/placement.h"
#include "workflow/analysis.h"
#include "workflow/dag.h"

namespace faasflow::engine {

/**
 * Everything measured about one workflow invocation; the unit of all
 * evaluation metrics (§5).
 */
struct InvocationRecord
{
    uint64_t invocation_id = 0;
    std::string workflow;

    /** Owning tenant when submitted through the admission path (empty
     *  for direct System::invoke submissions). */
    std::string tenant;

    /** Offered time: when the client submitted, not when admission let
     *  the invocation start — deferred admission wait counts in e2e(). */
    SimTime submit;
    SimTime finish;
    bool timed_out = false;

    /** Sum of the *actual* execution times of the functions on the
     *  critical path (the §2.3 baseline for scheduling overhead). */
    SimTime critical_exec;

    /** Total latency of every data put/get across all edges (Table 4). */
    SimTime data_latency;

    /** Application-level bytes moved, split by path. */
    int64_t bytes_via_remote = 0;
    int64_t bytes_via_local = 0;

    uint64_t cold_starts = 0;
    uint64_t functions_executed = 0;

    /** Failed execution attempts that were retried transparently. */
    uint64_t retries = 0;

    /** Worker-failure recovery passes that touched this invocation. */
    uint64_t recoveries = 0;

    /** Nodes re-driven (drive epoch bumped) by worker-failure recovery
     *  or master-failover replay. */
    uint64_t redriven_nodes = 0;

    /** Master-failover log replays that rebuilt this invocation. */
    uint64_t master_recoveries = 0;

    /** Same-epoch double executions observed; must stay 0 — the chaos
     *  campaign's exactly-once-per-drive-epoch invariant. */
    uint64_t duplicate_executions = 0;

    /** Speculation rollbacks: nodes whose completion fact was lost with
     *  the uncommitted log suffix at a crash and that were unwound and
     *  re-driven from the last durable prefix. Each one is a wasted
     *  re-execution speculation paid for its latency win. */
    uint64_t rolled_back_nodes = 0;

    /** Order-independent digest over final per-node outputs, skip flags
     *  and switch choices; a faulty run byte-matches its fault-free
     *  golden twin iff the digests are equal. */
    uint64_t output_digest = 0;

    /** Decomposition aids: total pure execution time across all function
     *  instances, and total time instances spent waiting for a container
     *  (cold starts and slot queueing). Sums over parallel work, so they
     *  can exceed e2e(). */
    SimTime exec_total;
    SimTime container_wait;

    SimTime e2e() const { return finish - submit; }

    /** The paper's scheduling overhead: end-to-end minus critical-path
     *  execution time. */
    SimTime schedOverhead() const { return e2e() - critical_exec; }

    int64_t bytesMoved() const { return bytes_via_remote + bytes_via_local; }
};

/**
 * A workflow registered with the platform. The placement is held behind
 * a shared_ptr so red-black redeployment (§4.2.2) can swap in a new
 * version while in-flight invocations keep routing by the snapshot they
 * started under.
 */
struct DeployedWorkflow
{
    std::string name;
    workflow::Dag dag;

    /** Built once at deploy; every run-time question about the DAG's
     *  data or constructs is answered from it. */
    workflow::DagIndex index;

    std::shared_ptr<const scheduler::Placement> placement;

    /** Feedback sink for the current partition iteration (may be null
     *  when collection is disabled). */
    scheduler::RuntimeFeedback* feedback = nullptr;
};

/**
 * Per-invocation runtime state shared by the metrics pipeline. Trigger
 * counting itself is decentralised (each engine keeps its own State for
 * its local sub-graph); this object only aggregates what the evaluation
 * needs plus cross-cutting facts (switch choices) that in a real
 * deployment ride inside the state-synchronisation payloads.
 */
struct Invocation
{
    uint64_t id = 0;
    DeployedWorkflow* wf = nullptr;

    /** Deterministic control seed (a hash of system seed + invocation
     *  id): switch choices are a pure function of it, so re-drives and
     *  post-failover replays re-derive identical branches. */
    uint64_t ctl_seed = 0;

    /** Placement snapshot taken at submission (red-black isolation). */
    std::shared_ptr<const scheduler::Placement> placement;

    /** Actual execution duration per DAG node (max across foreach
     *  instances); feeds the critical-path recomputation at finish. */
    std::vector<SimTime> node_exec;

    /** Nodes whose switch branch was not taken (skipped at run time). */
    std::vector<bool> node_skipped;

    /** switch construct id -> taken branch. */
    std::map<int, int> switch_choice;

    /**
     * Durable per-node completion facts — the ground truth worker-failure
     * recovery rebuilds engine `State` counters from. In a real
     * deployment these live in the remote database alongside the data;
     * here they ride on the invocation, which the master node owns.
     */
    std::vector<uint8_t> node_done;

    /** Idempotence guard: a node's trigger fires at most once per drive
     *  epoch (re-drives after recovery clear it first). */
    std::vector<uint8_t> node_triggered;

    /**
     * Per-node drive epoch, bumped when recovery re-dispatches the node.
     * Queued trigger decisions and returning results stamped with an
     * older epoch are stale and are dropped; results from nodes the
     * recovery did not touch keep flowing untouched.
     */
    std::vector<uint32_t> node_drive_epoch;

    /** Worker whose local FaaStore holds the node's output; -1 when the
     *  output went to the remote store (or the node has none). */
    std::vector<int> node_output_worker;

    /**
     * Double-execution sentinels: whether the node ever started a real
     * execution, and the drive epoch it last started under. Recovery
     * legitimately re-runs a node under a *bumped* epoch; two starts
     * under the same epoch are an exactly-once violation and are
     * counted in record.duplicate_executions.
     */
    std::vector<uint8_t> node_ran;
    std::vector<uint32_t> node_run_epoch;

    /**
     * Speculation frontier (batched durability modes only): set when a
     * node's completion fact is *issued* to the progress log, cleared
     * when its durability callback fires. A node inside the frontier is
     * applied in memory but possibly not yet durable — a crash may lose
     * it, so replay-equality checks must exclude the frontier and the
     * rollback pass re-drives whatever the log turns out to lack.
     */
    std::vector<uint8_t> node_speculative;

    /** Switch choices whose StateSignal is issued but not yet durable
     *  (same frontier discipline as node_speculative). */
    std::map<int, uint8_t> switch_speculative;

    /** Bumped once per recovery pass; WorkerSP state-update signals carry
     *  the epoch they were sent under and stale ones are ignored (their
     *  senders are already counted by the counter rebuild). */
    uint32_t recovery_epoch = 0;

    /** Trace span tree: the invocation's root span (client track) and
     *  the latest span recorded for each DAG node (re-drives replace the
     *  entry, so dep flows always point at the run that produced the
     *  consumed output). All zero while tracing is disabled. */
    obs::SpanId inv_span = 0;
    std::vector<obs::SpanId> node_span;

    size_t sinks_remaining = 0;
    bool finished = false;

    /** When the invocation actually started (== record.submit unless
     *  admission deferred it); the timeout clamp anchors here. */
    SimTime start_time;

    /** Set once the record reached metrics/the client (a timed-out
     *  invocation delivers early; its eventual completion is silent). */
    bool record_delivered = false;

    InvocationRecord record;
    std::function<void(const InvocationRecord&)> on_complete;
};

/**
 * Records the causal "dep" flow arrows into a node's freshly-opened
 * trace span: one from each DAG predecessor's span (the data/control
 * dependency that released this node), or from the invocation root for
 * source nodes. Predecessor spans are complete by the time a node
 * fires, so the arrows never point backwards. No-op while disabled.
 */
inline void
recordNodeSpanFlows(obs::TraceRecorder* trace, const Invocation& inv,
                    workflow::NodeId node, obs::SpanId to, SimTime at)
{
    if (!trace || !trace->enabled() || to == 0)
        return;
    const auto& dag = inv.wf->dag;
    bool any = false;
    for (const size_t e : dag.inEdges(node)) {
        const obs::SpanId from =
            inv.node_span[static_cast<size_t>(dag.edge(e).from)];
        if (from != 0) {
            trace->flow("dep", from, to, at);
            any = true;
        }
    }
    if (!any)
        trace->flow("dep", inv.inv_span, to, at);
}

}  // namespace faasflow::engine

#endif  // FAASFLOW_ENGINE_TYPES_H_
