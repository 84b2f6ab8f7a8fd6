#include "engine/master_engine.h"

#include <utility>

#include "workflow/analysis.h"

namespace faasflow::engine {

namespace {

constexpr int kMasterTrack = static_cast<int>(obs::TraceTrack::Master);

}  // namespace

MasterEngine::MasterEngine(RuntimeContext& ctx, Rng rng)
    : ctx_(ctx),
      queue_(ctx.sim, ctx.config.master_service_mean,
             ctx.config.master_service_sigma, rng.split())
{
}

void
MasterEngine::setWorkers(std::vector<WorkerEngine*> workers)
{
    workers_ = std::move(workers);
}

void
MasterEngine::setSinkNotifier(std::function<void(Invocation&)> notifier)
{
    sink_notifier_ = std::move(notifier);
}

void
MasterEngine::invoke(Invocation& inv)
{
    for (const workflow::NodeId source : workflow::sourceNodes(inv.wf->dag))
        trigger(inv, source);
}

void
MasterEngine::deliver(Invocation& inv, workflow::NodeId target)
{
    if (state_.arrive(inv, target))
        trigger(inv, target);
}

void
MasterEngine::trigger(Invocation& inv, workflow::NodeId node_id)
{
    const size_t idx = static_cast<size_t>(node_id);
    if (inv.finished || inv.node_done[idx] || inv.node_triggered[idx])
        return;
    inv.node_triggered[idx] = 1;
    const uint32_t drive = inv.node_drive_epoch[idx];
    // Every trigger condition check serialises through the central
    // engine's processor.
    queue_.submit([this, &inv, node_id, drive] {
        if (inv.finished || !alive_ ||
            drive != inv.node_drive_epoch[static_cast<size_t>(node_id)]) {
            return;  // superseded by a recovery pass or a master crash
        }
        // Virtual joins and skipped branches complete inside the central
        // engine; no worker is involved.
        const net::NodeId master = ctx_.cluster.storageNodeId();
        if (!decideTrigger(ctx_, inv, node_id, kMasterTrack, master)) {
            completeNode(inv, node_id, SimTime::zero(), drive);
            return;
        }

        // Stage 1 of a MasterSP invocation (§2.3): assign the task to
        // its worker over TCP. The dispatch is stamped with the master
        // incarnation: a result crossing a master crash lands at a
        // process with no memory of the dispatch (its TCP connection
        // died with it) and must be dropped — the restart replay (or
        // the timeout, without a log) owns the node from here.
        const uint32_t inc = incarnation_;
        const int worker = inv.placement->workerOf(node_id);
        WorkerEngine* engine = workers_[static_cast<size_t>(worker)];
        const net::NodeId worker_nid =
            ctx_.cluster.worker(static_cast<size_t>(worker)).netId();
        ctx_.network.sendMessage(
            master, worker_nid, ctx_.config.assign_msg_bytes,
            [this, engine, &inv, node_id, drive, inc, master, worker_nid] {
                // An assignment that crossed a dead link arrives late;
                // by then the node was re-driven elsewhere (or the
                // invocation finished) and this copy must not run.
                if (inv.finished ||
                    drive !=
                        inv.node_drive_epoch[static_cast<size_t>(node_id)]) {
                    return;
                }
                engine->execute(
                    inv, node_id, drive,
                    [this, &inv, node_id, drive, inc, master,
                     worker_nid](SimTime exec_time) {
                        // Stage 3: return the execution state to the
                        // master engine.
                        ctx_.network.sendMessage(
                            worker_nid, master, ctx_.config.result_msg_bytes,
                            [this, &inv, node_id, drive, inc, exec_time] {
                                queue_.submit([this, &inv, node_id, drive,
                                               inc, exec_time] {
                                    if (inc != incarnation_)
                                        return;
                                    completeNode(inv, node_id, exec_time,
                                                 drive);
                                });
                            });
                    });
            });
    });
}

void
MasterEngine::completeNode(Invocation& inv, workflow::NodeId node_id,
                           SimTime exec_time, uint32_t drive)
{
    const size_t idx = static_cast<size_t>(node_id);
    if (inv.finished || !alive_ || drive != inv.node_drive_epoch[idx] ||
        inv.node_done[idx]) {
        return;  // stale result from a run superseded by recovery
    }
    // The master shares the storage node, so under Sync memory and log
    // agree at every instant. A crash between issue and ack is safe in
    // every mode: the ack continuation dies on the incarnation guard and
    // the restart replay re-delivers from whatever committed.
    const uint32_t inc = incarnation_;
    const bool now = recordNodeDone(
        ctx_, inv, node_id, exec_time, ctx_.cluster.storageNodeId(),
        [this, &inv, node_id, inc] {
            if (inc == incarnation_)
                deliverSuccessors(inv, node_id);
        });
    if (now)
        deliverSuccessors(inv, node_id);
}

void
MasterEngine::deliverSuccessors(Invocation& inv, workflow::NodeId node_id)
{
    const auto& dag = inv.wf->dag;
    const auto& out = dag.outEdges(node_id);
    if (out.empty()) {
        // Sink: the client runs on the master node, no extra hop.
        if (sink_notifier_)
            sink_notifier_(inv);
        return;
    }
    for (const size_t e : out)
        deliver(inv, dag.edge(e).to);
}

void
MasterEngine::onMasterCrash()
{
    alive_ = false;
    ++incarnation_;
    state_.clear();
}

void
MasterEngine::onMasterRestart()
{
    alive_ = true;
}

void
MasterEngine::restoreInvocation(Invocation& inv)
{
    state_.recount(
        inv, [](workflow::NodeId) { return true; },
        [this, &inv](workflow::NodeId node) { trigger(inv, node); });
}

}  // namespace faasflow::engine
