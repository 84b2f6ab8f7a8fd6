#include "engine/worker_engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/units.h"
#include "storage/progress_log.h"

namespace faasflow::engine {

namespace {

/** Baseline memory of one deployed per-worker engine (§5.7: 47 MB). */
constexpr int64_t kEngineBaselineMemory = 47 * kMB;
/** Approximate footprint of one invocation's State structure. */
constexpr int64_t kStateStructureBytes = 2 * kKiB;

/** True when `node` sits on a switch branch the invocation did not take. */
bool
isSkipped(const Invocation& inv, const workflow::DagNode& node)
{
    if (node.switch_id < 0 || node.switch_branch < 0)
        return false;
    const auto it = inv.switch_choice.find(node.switch_id);
    if (it == inv.switch_choice.end())
        panic("node '%s' triggered before its switch chose a branch",
              node.name.c_str());
    return it->second != node.switch_branch;
}

/** Branch count of a switch construct = max branch index + 1. */
int
switchBranchCount(const workflow::Dag& dag, int switch_id)
{
    int max_branch = -1;
    for (const auto& node : dag.nodes()) {
        if (node.switch_id == switch_id)
            max_branch = std::max(max_branch, node.switch_branch);
    }
    return max_branch + 1;
}

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
    if (inv.finished || epoch != inv.recovery_epoch)
        return;  // late signal for a finished or recovered invocation
    if (inv.node_done[static_cast<size_t>(target)])
        return;  // re-run producer signalling an already-done consumer
    const int needed =
        static_cast<int>(inv.wf->dag.inEdges(target).size());
    int& done = state_[inv.id][target];
    ++done;
    if (done >= needed)
        trigger(inv, target);
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
        const size_t idx = static_cast<size_t>(node_id);
        if (inv.finished || drive != inv.node_drive_epoch[idx])
            return;
        if (!ctx_.cluster.worker(static_cast<size_t>(worker_index_)).alive())
            return;
        const auto& node = inv.wf->dag.node(node_id);
        if (ctx_.trace) {
            ctx_.trace->instant("trigger", node.name,
                                workerTrack(worker_index_), ctx_.sim.now(),
                                inv.inv_span);
        }

        // A switch start picks the taken branch; the choice travels with
        // the state-update protocol to every involved engine. The draw
        // is a pure function of the invocation's control seed, so any
        // engine (or a post-failover replay) derives the same branch.
        if (node.kind == workflow::StepKind::VirtualStart &&
            node.switch_id >= 0) {
            const int branches =
                switchBranchCount(inv.wf->dag, node.switch_id);
            if (branches > 0 &&
                !inv.switch_choice.count(node.switch_id)) {
                const int branch =
                    chooseSwitchBranch(inv, node.switch_id, branches);
                inv.switch_choice[node.switch_id] = branch;
                if (ctx_.progress_log) {
                    storage::LogRecord rec;
                    rec.kind = storage::LogRecordKind::StateSignal;
                    rec.invocation = inv.id;
                    rec.switch_id = node.switch_id;
                    rec.switch_branch = branch;
                    storage::ProgressLog::AppendCallback on_durable;
                    if (ctx_.durability != DurabilityMode::Sync) {
                        // Batched commit: frontier until the batch ack;
                        // the epoch guard keeps a late ack from
                        // clearing a re-issued choice's marker.
                        const int sw = node.switch_id;
                        inv.switch_speculative[sw] = 1;
                        const uint32_t epoch = inv.recovery_epoch;
                        on_durable = [&inv, sw, epoch](SimTime) {
                            if (epoch == inv.recovery_epoch)
                                inv.switch_speculative.erase(sw);
                        };
                    }
                    ctx_.progress_log->append(
                        ctx_.cluster
                            .worker(static_cast<size_t>(worker_index_))
                            .netId(),
                        std::move(rec), std::move(on_durable));
                }
            }
        }

        if (node.isVirtual() || isSkipped(inv, node)) {
            const bool skipped = !node.isVirtual();
            if (skipped)
                inv.node_skipped[static_cast<size_t>(node_id)] = true;
            if (ctx_.trace && ctx_.trace->enabled()) {
                // Zero-duration node span: keeps the causal chain through
                // virtual joins and non-taken branches intact.
                const obs::SpanId span = ctx_.trace->span(
                    "node", node.name, workerTrack(worker_index_),
                    ctx_.sim.now(), ctx_.sim.now(),
                    skipped ? "skipped" : "virtual", inv.inv_span);
                inv.node_span[idx] = span;
                recordNodeSpanFlows(ctx_.trace, inv, node_id, span,
                                    ctx_.sim.now());
            }
            completeNode(inv, node_id, SimTime::zero());
            return;
        }
        if (ctx_.profile) {
            // Scheduling latency: trigger decision to executor start
            // (this engine's service-queue share of §2.3 overhead).
            ctx_.profile->recordSched(inv.wf->name, node.name,
                                      ctx_.sim.now() - submitted);
        }
        noteExecution(inv, node_id, drive);
        executor_.runNode(inv, node_id, ctx_.data_mode, inv.wf->feedback,
                          [this, &inv, node_id](
                              TaskExecutor::NodeRunResult result) {
                              completeNode(inv, node_id, result.max_exec);
                          });
    });
}

void
WorkerEngine::completeNode(Invocation& inv, workflow::NodeId node_id,
                           SimTime exec_time)
{
    const size_t idx = static_cast<size_t>(node_id);
    if (inv.finished || inv.node_done[idx])
        return;
    inv.node_done[idx] = 1;
    inv.node_exec[idx] = exec_time;
    if (ctx_.progress_log) {
        // WorkerSP durability discipline depends on the mode. Sync and
        // GroupCommit gate downstream propagation on the durability ack
        // — the completion fact must survive a crash before anything
        // observes it. Speculative propagates at issue (the engines
        // themselves survive a master crash, and a worker crash loses
        // the output along with the record, so the existing lost-node
        // re-drive doubles as the rollback).
        storage::LogRecord rec;
        rec.kind = storage::LogRecordKind::NodeDone;
        rec.invocation = inv.id;
        rec.node = node_id;
        rec.exec_micros = exec_time.micros();
        rec.output_worker = inv.node_output_worker[idx];
        rec.skipped = inv.node_skipped[idx] ? 1 : 0;
        const bool gated = ctx_.durability != DurabilityMode::Speculative;
        if (ctx_.durability != DurabilityMode::Sync)
            inv.node_speculative[idx] = 1;
        const uint32_t drive = inv.node_drive_epoch[idx];
        const uint32_t epoch = inv.recovery_epoch;
        ctx_.progress_log->append(
            ctx_.cluster.worker(static_cast<size_t>(worker_index_)).netId(),
            std::move(rec),
            [this, &inv, node_id, drive, epoch, gated](SimTime) {
                const size_t i = static_cast<size_t>(node_id);
                if (drive == inv.node_drive_epoch[i])
                    inv.node_speculative[i] = 0;
                if (!gated)
                    return;  // already propagated at issue
                // A recovery pass while the ack was in flight already
                // recounted this (done) sender and re-drove whatever
                // became ready — propagating again would double-count.
                if (inv.finished || epoch != inv.recovery_epoch ||
                    drive != inv.node_drive_epoch[i] || !inv.node_done[i]) {
                    return;
                }
                if (!ctx_.cluster
                         .worker(static_cast<size_t>(worker_index_))
                         .alive()) {
                    return;  // crashed after issue; recovery owns it
                }
                propagate(inv, node_id);
            });
        if (gated)
            return;
    }
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
        ctx_.network.sendMessage(
            ctx_.cluster.worker(static_cast<size_t>(worker_index_)).netId(),
            ctx_.cluster.storageNodeId(), ctx_.config.result_msg_bytes,
            [this, &inv] {
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
                ctx_.cluster.worker(static_cast<size_t>(worker_index_))
                    .netId(),
                ctx_.cluster.worker(static_cast<size_t>(target_worker))
                    .netId(),
                ctx_.config.state_msg_bytes, [peer, &inv, target, epoch] {
                    peer->deliverStateUpdate(inv, target, epoch);
                });
        }
    }
}

void
WorkerEngine::restoreInvocation(Invocation& inv)
{
    state_.erase(inv.id);
    const auto& dag = inv.wf->dag;
    for (const auto& node : dag.nodes()) {
        if (inv.placement->workerOf(node.id) != worker_index_)
            continue;
        if (inv.node_done[static_cast<size_t>(node.id)])
            continue;
        const auto& in = dag.inEdges(node.id);
        int done_preds = 0;
        for (const size_t e : in) {
            if (inv.node_done[static_cast<size_t>(dag.edge(e).from)])
                ++done_preds;
        }
        if (done_preds > 0)
            state_[inv.id][node.id] = done_preds;
        if (done_preds == static_cast<int>(in.size()))
            trigger(inv, node.id);
    }
}

void
WorkerEngine::cleanup(uint64_t invocation_id)
{
    state_.erase(invocation_id);
}

size_t
WorkerEngine::stateCount(uint64_t invocation_id) const
{
    const auto it = state_.find(invocation_id);
    return it == state_.end() ? 0 : it->second.size();
}

int64_t
WorkerEngine::memoryFootprint() const
{
    int64_t states = 0;
    for (const auto& [id, nodes] : state_)
        states += static_cast<int64_t>(nodes.size());
    return kEngineBaselineMemory + states * kStateStructureBytes;
}

}  // namespace faasflow::engine
