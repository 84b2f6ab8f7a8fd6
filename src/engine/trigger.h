#ifndef FAASFLOW_ENGINE_TRIGGER_H_
#define FAASFLOW_ENGINE_TRIGGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "common/sim_time.h"
#include "engine/runtime_context.h"
#include "engine/types.h"
#include "storage/progress_log.h"

namespace faasflow::engine {

/*
 * The trigger rules MasterSP and WorkerSP share. The two patterns differ
 * only in where a trigger decision runs and which hops cross the network
 * (§2.2, §3.1); how a decision is made and how a completion is recorded
 * is the same, so both engines call these.
 */

/**
 * The paper's `State` structure: per-invocation predecessor-done
 * counters for the nodes one engine triggers (every node for the master,
 * the local sub-graph for a worker).
 */
class PredecessorCounters
{
  public:
    /**
     * Counts one more done predecessor of `target`. Returns true once all
     * of its predecessors have reported. A signal for a finished
     * invocation or an already-done target (a re-run producer) is not
     * counted.
     */
    bool arrive(const Invocation& inv, workflow::NodeId target);

    /**
     * Worker-failure recovery: forgets `inv`'s counters and recounts them
     * from its durable node_done facts over the not-done nodes `owned`
     * selects, calling `ready` on each one whose predecessors are all
     * done, in node order.
     */
    void recount(const Invocation& inv,
                 const std::function<bool(workflow::NodeId)>& owned,
                 const std::function<void(workflow::NodeId)>& ready);

    /** Releases a finished invocation's counters (§4.2.1). */
    void erase(uint64_t invocation_id) { counts_.erase(invocation_id); }

    /** Forgets every counter (the engine process died). */
    void clear() { counts_.clear(); }

    /** Live counters held for one invocation (leak checks). */
    size_t count(uint64_t invocation_id) const;

    /** Live counters over every invocation. */
    size_t total() const;

  private:
    /** invocation -> (node -> predecessors done). */
    std::map<uint64_t, std::map<workflow::NodeId, int>> counts_;
};

/**
 * The trigger decision for `node`, made on `track` as it surfaces from
 * an engine's service queue. Records the "trigger" instant; at a
 * switch's start, draws the taken branch (a pure function of the
 * invocation's control seed, so any engine, or a replay after a
 * failover, derives the same one) and appends its StateSignal from
 * `origin`. A virtual node, or one on a branch not taken, completes
 * without running: it is marked skipped where it is, and gets the
 * zero-length node span that keeps the trace's causal chain intact.
 *
 * Returns true when the node must run on a worker, false when it
 * completed without running; the caller then records it done with zero
 * execution time.
 */
bool decideTrigger(const RuntimeContext& ctx, Invocation& inv,
                   workflow::NodeId node, int track, net::NodeId origin);

/**
 * Records `node` done after `exec_time` of execution. With a progress
 * log attached it appends the NodeDone record from `origin`; under the
 * batched durability modes the node stays inside the speculation
 * frontier until the record is durable.
 *
 * Returns true when the successors may fire at once: without a log, or
 * under Speculative durability. Otherwise `on_durable` runs at the
 * durability ack, and only while the fact is still current: the
 * invocation live and the node still done under the same drive epoch.
 */
template <typename OnDurable>
bool
recordNodeDone(const RuntimeContext& ctx, Invocation& inv,
               workflow::NodeId node, SimTime exec_time, net::NodeId origin,
               OnDurable on_durable)
{
    const size_t idx = static_cast<size_t>(node);
    inv.node_done[idx] = 1;
    inv.node_exec[idx] = exec_time;
    if (!ctx.progress_log)
        return true;
    // Write-ahead discipline, three latency-vs-durability points:
    //   Sync: the fact commits at issue, and successors wait for the
    //   durability ack.
    //   GroupCommit: the fact buffers for a batched commit, so memory
    //   runs ahead of the log (the speculation frontier), but successors
    //   still wait for the batch ack.
    //   Speculative: successors fire at issue; a crash that drops the
    //   buffered suffix rolls the node back, and the recovery re-drive
    //   covers whatever the log lacks.
    storage::LogRecord rec;
    rec.kind = storage::LogRecordKind::NodeDone;
    rec.invocation = inv.id;
    rec.node = node;
    rec.exec_micros = exec_time.micros();
    rec.output_worker = inv.node_output_worker[idx];
    rec.skipped = inv.node_skipped[idx] ? 1 : 0;
    const bool speculative = ctx.durability == DurabilityMode::Speculative;
    if (ctx.durability != DurabilityMode::Sync)
        inv.node_speculative[idx] = 1;
    const uint32_t drive = inv.node_drive_epoch[idx];
    ctx.progress_log->append(
        origin, std::move(rec),
        [&inv, idx, drive, speculative,
         on_durable = std::move(on_durable)](SimTime) {
            // The drive guard keeps a late ack from clearing the marker
            // of a re-issued record after a rollback.
            if (drive == inv.node_drive_epoch[idx])
                inv.node_speculative[idx] = 0;
            if (speculative)
                return;  // successors already fired at issue
            // A recovery may have re-driven even a done node (lost local
            // output) while the ack was in flight.
            if (inv.finished || drive != inv.node_drive_epoch[idx] ||
                !inv.node_done[idx]) {
                return;
            }
            on_durable();
        });
    return speculative;
}

}  // namespace faasflow::engine

#endif  // FAASFLOW_ENGINE_TRIGGER_H_
