#ifndef FAASFLOW_ENGINE_WORKER_ENGINE_H_
#define FAASFLOW_ENGINE_WORKER_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "engine/runtime_context.h"
#include "engine/service_queue.h"
#include "engine/task_executor.h"
#include "engine/trigger.h"
#include "engine/types.h"

namespace faasflow::engine {

/**
 * The per-worker workflow engine (§3.1, §4.2): one service queue and one
 * task executor per worker, under either control pattern.
 *
 * Under WorkerSP the engine owns the sub-graph placed on its worker: it
 * keeps the paper's `State` structure (per-invocation predecessor-done
 * counters for local nodes) and `FunctionInfo` (successor locations come
 * from the invocation's placement snapshot). Completion of a local
 * function triggers local successors through the inner RPC path and
 * ships state updates to remote engines over the network — no master
 * involved. Under MasterSP it makes no triggering decisions: the central
 * engine assigns each task through execute() and gets the result back.
 */
class WorkerEngine
{
  public:
    WorkerEngine(RuntimeContext& ctx, int worker_index, Rng rng);

    /** Wires the engine to its peers for cross-worker state updates. */
    void setPeers(std::vector<WorkerEngine*> peers);

    /** Called when a sink node finished and the completion message
     *  reached the client/master side. */
    void setSinkNotifier(std::function<void(Invocation&)> notifier);

    /** Client entry: starts a source node (invocation submission). */
    void startSource(Invocation& inv, workflow::NodeId source);

    /**
     * Receives one predecessor-done signal for a local node, either from
     * a remote engine's TCP update or a local trigger; triggers the node
     * when all its predecessors reported. `epoch` is the sender's view of
     * the invocation's recovery epoch: signals stamped before a recovery
     * pass are dropped, because the counter rebuild already accounted for
     * their (necessarily done) senders.
     */
    void deliverStateUpdate(Invocation& inv, workflow::NodeId target,
                            uint32_t epoch);

    /**
     * MasterSP dispatch: runs one node the central engine assigned to
     * this worker; `on_result` fires on the worker when the function
     * finished (the caller ships the state back to the master). `drive`
     * is the node's drive epoch at assignment: a dispatch whose epoch is
     * stale by the time it surfaces belongs to a superseded run and is
     * dropped.
     */
    void execute(Invocation& inv, workflow::NodeId node, uint32_t drive,
                 std::function<void(SimTime exec_time)> on_result);

    /**
     * Worker-failure recovery: forgets this engine's counters for the
     * invocation, recounts them from the invocation's durable node_done
     * facts for the local sub-graph under the (possibly remapped)
     * placement, and re-triggers nodes whose predecessors are already
     * satisfied. Must run on every engine after resetLostNodes, so state
     * for nodes remapped away is wiped too.
     */
    void restoreInvocation(Invocation& inv);

    /** Releases the State structures of a finished invocation (§4.2.1). */
    void cleanup(uint64_t invocation_id) { state_.erase(invocation_id); }

    /** Live State counters held for one invocation (leak checks). */
    size_t
    stateCount(uint64_t invocation_id) const
    {
        return state_.count(invocation_id);
    }

    ServiceQueue& queue() { return queue_; }

    /** Simulated engine memory footprint (§5.7 component overhead):
     *  baseline plus live State structures. */
    int64_t memoryFootprint() const;

    /**
     * Constant CPU cost of the engine process itself (gevent hub,
     * heartbeats, metric collection) on top of event handling — the
     * bulk of the 0.12 cores §5.7 reports.
     */
    static constexpr double kBaselineCpu = 0.1;

    /** Total engine CPU: baseline process activity + event handling. */
    double
    cpuUsage() const
    {
        return kBaselineCpu + queue_.utilisation();
    }

  private:
    RuntimeContext& ctx_;
    int worker_index_;
    ServiceQueue queue_;
    TaskExecutor executor_;
    std::vector<WorkerEngine*> peers_;
    std::function<void(Invocation&)> sink_notifier_;
    PredecessorCounters state_;

    /** The worker this engine runs on. */
    cluster::WorkerNode&
    host() const
    {
        return ctx_.cluster.worker(static_cast<size_t>(worker_index_));
    }

    void trigger(Invocation& inv, workflow::NodeId node);

    /** Runs a node that is due on this worker's executor; `submitted` is
     *  when its trigger decision or assignment entered the queue. */
    void run(Invocation& inv, workflow::NodeId node, uint32_t drive,
             SimTime submitted,
             std::function<void(TaskExecutor::NodeRunResult)> done);

    void completeNode(Invocation& inv, workflow::NodeId node,
                      SimTime exec_time);
    void propagate(Invocation& inv, workflow::NodeId node);
};

}  // namespace faasflow::engine

#endif  // FAASFLOW_ENGINE_WORKER_ENGINE_H_
