#include "engine/master_engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "storage/progress_log.h"

namespace faasflow::engine {

namespace {

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

ExecutorAgent::ExecutorAgent(RuntimeContext& ctx, int worker_index, Rng rng)
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
ExecutorAgent::execute(Invocation& inv, workflow::NodeId node, uint32_t drive,
                       std::function<void(SimTime)> on_result)
{
    // Dispatch costs one event on the worker-side proxy.
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
            !ctx_.cluster.worker(static_cast<size_t>(worker_index_))
                 .alive()) {
            return;
        }
        if (ctx_.profile) {
            // Scheduling latency: assignment delivery to executor start
            // (the worker-proxy service-queue share of §2.3 overhead).
            ctx_.profile->recordSched(inv.wf->name,
                                      inv.wf->dag.node(node).name,
                                      ctx_.sim.now() - submitted);
        }
        noteExecution(inv, node, drive);
        executor_.runNode(inv, node, ctx_.data_mode, inv.wf->feedback,
                          [on_result](TaskExecutor::NodeRunResult result) {
                              on_result(result.max_exec);
                          });
    });
}

MasterEngine::MasterEngine(RuntimeContext& ctx, Rng rng)
    : ctx_(ctx),
      queue_(ctx.sim, ctx.config.master_service_mean,
             ctx.config.master_service_sigma, rng.split())
{
}

void
MasterEngine::setAgents(std::vector<ExecutorAgent*> agents)
{
    agents_ = std::move(agents);
}

void
MasterEngine::setSinkNotifier(std::function<void(Invocation&)> notifier)
{
    sink_notifier_ = std::move(notifier);
}

void
MasterEngine::invoke(Invocation& inv)
{
    for (const auto& node : inv.wf->dag.nodes()) {
        if (inv.wf->dag.inEdges(node.id).empty())
            trigger(inv, node.id);
    }
}

void
MasterEngine::deliver(Invocation& inv, workflow::NodeId target)
{
    if (inv.finished || inv.node_done[static_cast<size_t>(target)])
        return;
    const int needed = static_cast<int>(inv.wf->dag.inEdges(target).size());
    int& done = state_[inv.id][target];
    ++done;
    if (done >= needed)
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
        const auto& node = inv.wf->dag.node(node_id);
        if (ctx_.trace) {
            ctx_.trace->instant("trigger", node.name,
                                static_cast<int>(obs::TraceTrack::Master),
                                ctx_.sim.now(), inv.inv_span);
        }

        if (node.kind == workflow::StepKind::VirtualStart &&
            node.switch_id >= 0) {
            const int branches =
                switchBranchCount(inv.wf->dag, node.switch_id);
            if (branches > 0 && !inv.switch_choice.count(node.switch_id)) {
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
                        // Batched commit: the choice is in memory but
                        // not yet durable — frontier until the batch
                        // ack. The epoch guard keeps a late ack from
                        // clearing a *re-issued* choice's marker.
                        const int sw = node.switch_id;
                        inv.switch_speculative[sw] = 1;
                        const uint32_t epoch = inv.recovery_epoch;
                        on_durable = [&inv, sw, epoch](SimTime) {
                            if (epoch == inv.recovery_epoch)
                                inv.switch_speculative.erase(sw);
                        };
                    }
                    ctx_.progress_log->append(ctx_.cluster.storageNodeId(),
                                              std::move(rec),
                                              std::move(on_durable));
                }
            }
        }

        if (node.isVirtual() || isSkipped(inv, node)) {
            const bool skipped = !node.isVirtual();
            if (skipped)
                inv.node_skipped[static_cast<size_t>(node_id)] = true;
            if (ctx_.trace && ctx_.trace->enabled()) {
                // Zero-duration node span on the master lane — virtual
                // joins and skipped branches run inside the central
                // engine, no worker is involved.
                const obs::SpanId span = ctx_.trace->span(
                    "node", node.name,
                    static_cast<int>(obs::TraceTrack::Master), ctx_.sim.now(),
                    ctx_.sim.now(), skipped ? "skipped" : "virtual",
                    inv.inv_span);
                inv.node_span[static_cast<size_t>(node_id)] = span;
                recordNodeSpanFlows(ctx_.trace, inv, node_id, span,
                                    ctx_.sim.now());
            }
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
        ExecutorAgent* agent = agents_[static_cast<size_t>(worker)];
        const net::NodeId master = ctx_.cluster.storageNodeId();
        const net::NodeId worker_nid =
            ctx_.cluster.worker(static_cast<size_t>(worker)).netId();
        ctx_.network.sendMessage(
            master, worker_nid, ctx_.config.assign_msg_bytes,
            [this, agent, &inv, node_id, drive, inc, master, worker_nid] {
                // An assignment that crossed a dead link arrives late;
                // by then the node was re-driven elsewhere (or the
                // invocation finished) and this copy must not run.
                if (inv.finished ||
                    drive !=
                        inv.node_drive_epoch[static_cast<size_t>(node_id)]) {
                    return;
                }
                agent->execute(
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
    inv.node_done[idx] = 1;
    inv.node_exec[idx] = exec_time;
    if (ctx_.progress_log) {
        // Write-ahead discipline, three latency-vs-durability points:
        //   Sync — the fact commits at issue (master shares the storage
        //   node; memory and log agree at every instant) and successor
        //   delivery waits for the durability ack.
        //   GroupCommit — the fact buffers for a batched commit, so
        //   memory runs ahead of the log (the speculation frontier) but
        //   dispatch still waits for the batch ack.
        //   Speculative — successors fire NOW, at issue; a crash that
        //   drops the buffered suffix rolls the node back (the restart
        //   replay re-drives everything outside the durable prefix).
        // A crash between issue and ack is safe in all three: the ack
        // continuation dies on the incarnation guard and the restart
        // replay re-delivers from whatever committed.
        storage::LogRecord rec;
        rec.kind = storage::LogRecordKind::NodeDone;
        rec.invocation = inv.id;
        rec.node = node_id;
        rec.exec_micros = exec_time.micros();
        rec.output_worker = inv.node_output_worker[idx];
        rec.skipped = inv.node_skipped[idx] ? 1 : 0;
        const uint32_t inc = incarnation_;
        const bool speculative =
            ctx_.durability == DurabilityMode::Speculative;
        if (ctx_.durability != DurabilityMode::Sync)
            inv.node_speculative[idx] = 1;
        ctx_.progress_log->append(
            ctx_.cluster.storageNodeId(), std::move(rec),
            [this, &inv, node_id, drive, inc, speculative](SimTime) {
                const size_t i = static_cast<size_t>(node_id);
                // The drive guard keeps a late ack from clearing the
                // marker of a *re-issued* record after a rollback.
                if (drive == inv.node_drive_epoch[i])
                    inv.node_speculative[i] = 0;
                if (speculative)
                    return;  // successors already fired at issue
                // A worker-crash recovery may have re-driven even a
                // done node (lost local output) while the ack was in
                // flight; the epoch check keeps this fan-out stale.
                if (inv.finished || inc != incarnation_ ||
                    drive != inv.node_drive_epoch[i] || !inv.node_done[i]) {
                    return;
                }
                deliverSuccessors(inv, node_id);
            });
        if (!speculative)
            return;
    }
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
    state_.erase(inv.id);
    const auto& dag = inv.wf->dag;
    for (const auto& node : dag.nodes()) {
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
MasterEngine::cleanup(uint64_t invocation_id)
{
    state_.erase(invocation_id);
}

size_t
MasterEngine::stateCount(uint64_t invocation_id) const
{
    const auto it = state_.find(invocation_id);
    return it == state_.end() ? 0 : it->second.size();
}

}  // namespace faasflow::engine
