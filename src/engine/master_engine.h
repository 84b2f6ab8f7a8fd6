#ifndef FAASFLOW_ENGINE_MASTER_ENGINE_H_
#define FAASFLOW_ENGINE_MASTER_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "engine/runtime_context.h"
#include "engine/service_queue.h"
#include "engine/trigger.h"
#include "engine/types.h"
#include "engine/worker_engine.h"

namespace faasflow::engine {

/**
 * The central workflow engine of HyperFlow-serverless (§2.2): keeps all
 * function states on the master node, checks trigger conditions there,
 * and assigns every ready task to a worker over the network. Every state
 * return and every trigger decision serialises through this engine's
 * single event processor — the MasterSP bottleneck the paper measures.
 */
class MasterEngine
{
  public:
    MasterEngine(RuntimeContext& ctx, Rng rng);

    /** The per-worker engines assigned tasks run on, by worker index. */
    void setWorkers(std::vector<WorkerEngine*> workers);

    /** Called when an invocation fully completes (all sinks done). */
    void setSinkNotifier(std::function<void(Invocation&)> notifier);

    /** Client entry: submits an invocation (client and master share the
     *  storage node, as in the paper's testbed). */
    void invoke(Invocation& inv);

    /**
     * Worker-failure recovery: rebuilds the central trigger counters of
     * one invocation from its durable node_done facts (the master itself
     * never crashes here — it shares the storage node) and re-assigns
     * nodes whose predecessors are already satisfied under the remapped
     * placement. Results still in flight from surviving workers keep
     * their drive epoch and land normally afterwards.
     */
    void restoreInvocation(Invocation& inv);

    /** Releases a finished invocation's state. */
    void cleanup(uint64_t invocation_id) { state_.erase(invocation_id); }

    /** Live State counters held for one invocation (leak checks). */
    size_t
    stateCount(uint64_t invocation_id) const
    {
        return state_.count(invocation_id);
    }

    /**
     * Master failover, step 1: the engine process dies. All central
     * trigger counters are lost, the incarnation counter advances (so
     * continuations captured before the crash — durability acks, queued
     * events — become no-ops), and no new work is accepted until
     * onMasterRestart.
     */
    void onMasterCrash();

    /** Master failover, step 2: the process is back. The caller (the
     *  System facade) replays the progress log and then re-drives every
     *  live invocation via restoreInvocation. */
    void onMasterRestart();

    bool alive() const { return alive_; }
    uint32_t incarnation() const { return incarnation_; }

    ServiceQueue& queue() { return queue_; }

  private:
    RuntimeContext& ctx_;
    ServiceQueue queue_;
    std::vector<WorkerEngine*> workers_;
    std::function<void(Invocation&)> sink_notifier_;
    bool alive_ = true;
    uint32_t incarnation_ = 0;

    /** Central State: predecessor-done counters of every node. */
    PredecessorCounters state_;

    void deliver(Invocation& inv, workflow::NodeId target);
    void trigger(Invocation& inv, workflow::NodeId node);

    /** `drive` is the node's drive epoch at dispatch; a result stamped
     *  with an older epoch belongs to a superseded run and is dropped. */
    void completeNode(Invocation& inv, workflow::NodeId node,
                      SimTime exec_time, uint32_t drive);

    /** Fans a durable completion fact out to its successors (or the
     *  sink notifier). Runs after the write-ahead append commits when a
     *  progress log is attached. */
    void deliverSuccessors(Invocation& inv, workflow::NodeId node);
};

}  // namespace faasflow::engine

#endif  // FAASFLOW_ENGINE_MASTER_ENGINE_H_
