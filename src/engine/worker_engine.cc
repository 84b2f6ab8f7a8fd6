#include "engine/worker_engine.h"

#include <utility>

#include "common/units.h"

namespace faasflow::engine {

namespace {

/** Baseline memory of one deployed per-worker engine (§5.7: 47 MB). */
constexpr int64_t kEngineBaselineMemory = 47 * kMB;
/** Approximate footprint of one invocation's State structure. */
constexpr int64_t kStateStructureBytes = 2 * kKiB;

}  // namespace

WorkerEngine::WorkerEngine(RuntimeContext& ctx, int worker_index, Rng rng)
    : ctx_(ctx),
      worker_index_(worker_index),
      queue_(ctx.sim, ctx.config.worker_service_mean,
             ctx.config.worker_service_sigma, rng.split()),
      executor_(ctx.sim, ctx.cluster.worker(static_cast<size_t>(worker_index)),
                *ctx.stores[static_cast<size_t>(worker_index)], ctx.registry,
                rng.split(), ctx.trace, workerTrack(worker_index))
{
    executor_.setProfile(ctx.profile);
}

void
WorkerEngine::setPeers(std::vector<WorkerEngine*> peers)
{
    peers_ = std::move(peers);
}

void
WorkerEngine::setSinkNotifier(std::function<void(Invocation&)> notifier)
{
    sink_notifier_ = std::move(notifier);
}

void
WorkerEngine::startSource(Invocation& inv, workflow::NodeId source)
{
    trigger(inv, source);
}

void
WorkerEngine::deliverStateUpdate(Invocation& inv, workflow::NodeId target,
                                 uint32_t epoch)
{
    if (epoch != inv.recovery_epoch)
        return;  // late signal for a recovered invocation
    if (state_.arrive(inv, target))
        trigger(inv, target);
}

void
WorkerEngine::execute(Invocation& inv, workflow::NodeId node, uint32_t drive,
                      std::function<void(SimTime)> on_result)
{
    // Dispatch costs one event on this worker's engine.
    const SimTime submitted = ctx_.sim.now();
    queue_.submit([this, &inv, node, drive, submitted,
                   on_result = std::move(on_result)] {
        // The worker may have died between assignment delivery and this
        // dispatch; the node is then in the recovery re-run set. A
        // stale drive epoch means a recovery already re-assigned the
        // node elsewhere — running this copy too would break the
        // once-per-epoch execution invariant.
        if (inv.finished ||
            drive != inv.node_drive_epoch[static_cast<size_t>(node)] ||
            !host().alive()) {
            return;
        }
        run(inv, node, drive, submitted,
            [on_result](TaskExecutor::NodeRunResult result) {
                on_result(result.max_exec);
            });
    });
}

void
WorkerEngine::trigger(Invocation& inv, workflow::NodeId node_id)
{
    const size_t idx = static_cast<size_t>(node_id);
    if (inv.finished || inv.node_done[idx] || inv.node_triggered[idx])
        return;
    inv.node_triggered[idx] = 1;
    // The decision queued below dies if a recovery pass re-drives the
    // node first, or if this worker is down when it surfaces (its nodes
    // are then in the recovery's re-run set anyway).
    const uint32_t drive = inv.node_drive_epoch[idx];
    // Each trigger decision is one event for this engine's processor.
    const SimTime submitted = ctx_.sim.now();
    queue_.submit([this, &inv, node_id, drive, submitted] {
        if (inv.finished ||
            drive != inv.node_drive_epoch[static_cast<size_t>(node_id)])
            return;
        if (!host().alive())
            return;
        if (!decideTrigger(ctx_, inv, node_id, workerTrack(worker_index_),
                           host().netId())) {
            completeNode(inv, node_id, SimTime::zero());
            return;
        }
        run(inv, node_id, drive, submitted,
            [this, &inv, node_id](TaskExecutor::NodeRunResult result) {
                completeNode(inv, node_id, result.max_exec);
            });
    });
}

void
WorkerEngine::run(Invocation& inv, workflow::NodeId node, uint32_t drive,
                  SimTime submitted,
                  std::function<void(TaskExecutor::NodeRunResult)> done)
{
    if (ctx_.profile) {
        // Scheduling latency: trigger decision or assignment delivery to
        // executor start (this engine's service-queue share of §2.3
        // overhead).
        ctx_.profile->recordSched(inv.wf->name, inv.wf->dag.node(node).name,
                                  ctx_.sim.now() - submitted);
    }
    // Double-execution sentinel: recovery legitimately re-runs a node
    // under a bumped drive epoch, but a second start under the same
    // epoch breaks exactly-once (the chaos campaign fails the run).
    const size_t idx = static_cast<size_t>(node);
    if (inv.node_ran[idx] && inv.node_run_epoch[idx] == drive)
        ++inv.record.duplicate_executions;
    inv.node_ran[idx] = 1;
    inv.node_run_epoch[idx] = drive;
    executor_.runNode(inv, node, ctx_.data_mode, inv.wf->feedback,
                      std::move(done));
}

void
WorkerEngine::completeNode(Invocation& inv, workflow::NodeId node_id,
                           SimTime exec_time)
{
    if (inv.finished || inv.node_done[static_cast<size_t>(node_id)])
        return;
    // Sync and GroupCommit propagate at the durability ack. Speculative
    // propagates at issue: the engines survive a master crash, and a
    // worker crash loses the output along with the record, so the
    // lost-node re-drive doubles as the rollback.
    const uint32_t epoch = inv.recovery_epoch;
    const bool now = recordNodeDone(
        ctx_, inv, node_id, exec_time, host().netId(),
        [this, &inv, node_id, epoch] {
            // A recovery pass while the ack was in flight already
            // recounted this (done) sender and re-drove whatever became
            // ready; propagating again would double-count. A worker that
            // crashed after issue leaves the node to recovery.
            if (epoch == inv.recovery_epoch && host().alive())
                propagate(inv, node_id);
        });
    if (now)
        propagate(inv, node_id);
}

void
WorkerEngine::propagate(Invocation& inv, workflow::NodeId node_id)
{
    const auto& dag = inv.wf->dag;
    const auto& out = dag.outEdges(node_id);
    // Signals carry the recovery epoch they were sent under; if a
    // recovery pass rebuilds the counters while they are in flight, the
    // rebuild already counted this (done) sender and the late delivery
    // must not count it twice.
    const uint32_t epoch = inv.recovery_epoch;
    if (out.empty()) {
        // Sink: report the execution state back to the client side.
        ctx_.network.sendMessage(host().netId(), ctx_.cluster.storageNodeId(),
                                 ctx_.config.result_msg_bytes, [this, &inv] {
                                     if (sink_notifier_)
                                         sink_notifier_(inv);
                                 });
        return;
    }
    for (const size_t e : out) {
        const workflow::NodeId target = dag.edge(e).to;
        const int target_worker = inv.placement->workerOf(target);
        if (target_worker == worker_index_) {
            // Inner RPC on the same node (§3.1).
            ctx_.sim.schedule(ctx_.config.local_trigger_latency,
                              [this, &inv, target, epoch] {
                                  deliverStateUpdate(inv, target, epoch);
                              });
        } else {
            // Cross-worker state transfer over TCP — the only kind of
            // control traffic WorkerSP puts on the network.
            WorkerEngine* peer = peers_[static_cast<size_t>(target_worker)];
            ctx_.network.sendMessage(
                host().netId(), peer->host().netId(),
                ctx_.config.state_msg_bytes, [peer, &inv, target, epoch] {
                    peer->deliverStateUpdate(inv, target, epoch);
                });
        }
    }
}

void
WorkerEngine::restoreInvocation(Invocation& inv)
{
    state_.recount(
        inv,
        [this, &inv](workflow::NodeId node) {
            return inv.placement->workerOf(node) == worker_index_;
        },
        [this, &inv](workflow::NodeId node) { trigger(inv, node); });
}

int64_t
WorkerEngine::memoryFootprint() const
{
    return kEngineBaselineMemory +
           static_cast<int64_t>(state_.total()) * kStateStructureBytes;
}

}  // namespace faasflow::engine
