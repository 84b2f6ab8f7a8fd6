#include "engine/trigger.h"

#include "common/logging.h"
#include "common/rng.h"

namespace faasflow::engine {

namespace {

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

/** The switch draw: a pure function of the invocation's control seed and
 *  the switch id, so every engine derives it without coordination. */
int
chooseSwitchBranch(const Invocation& inv, int switch_id, int branches)
{
    const uint64_t x = splitMix64(
        inv.ctl_seed ^
        (kSplitMix64Gamma *
         (static_cast<uint64_t>(static_cast<uint32_t>(switch_id)) + 1)));
    return static_cast<int>(x % static_cast<uint64_t>(branches));
}

/** Draws the taken branch at a switch's start, once per invocation, and
 *  appends its StateSignal from `origin`. */
void
drawSwitch(const RuntimeContext& ctx, Invocation& inv,
           const workflow::DagNode& node, net::NodeId origin)
{
    // The start fence carries the construct's id, so the index has it.
    const int branches = inv.wf->index.switch_branches.at(node.switch_id);
    if (branches <= 0 || inv.switch_choice.count(node.switch_id))
        return;
    const int branch = chooseSwitchBranch(inv, node.switch_id, branches);
    inv.switch_choice[node.switch_id] = branch;
    if (!ctx.progress_log)
        return;
    storage::LogRecord rec;
    rec.kind = storage::LogRecordKind::StateSignal;
    rec.invocation = inv.id;
    rec.switch_id = node.switch_id;
    rec.switch_branch = branch;
    storage::ProgressLog::AppendCallback on_durable;
    if (ctx.durability != DurabilityMode::Sync) {
        // Batched commit: the choice is in memory but not yet durable,
        // so it is frontier until the batch ack. The epoch guard keeps a
        // late ack from clearing a re-issued choice's marker.
        const int sw = node.switch_id;
        inv.switch_speculative[sw] = 1;
        const uint32_t epoch = inv.recovery_epoch;
        on_durable = [&inv, sw, epoch](SimTime) {
            if (epoch == inv.recovery_epoch)
                inv.switch_speculative.erase(sw);
        };
    }
    ctx.progress_log->append(origin, std::move(rec), std::move(on_durable));
}

}  // namespace

bool
PredecessorCounters::arrive(const Invocation& inv, workflow::NodeId target)
{
    if (inv.finished || inv.node_done[static_cast<size_t>(target)])
        return false;
    const int needed = static_cast<int>(inv.wf->dag.inEdges(target).size());
    int& done = counts_[inv.id][target];
    ++done;
    return done >= needed;
}

void
PredecessorCounters::recount(
    const Invocation& inv, const std::function<bool(workflow::NodeId)>& owned,
    const std::function<void(workflow::NodeId)>& ready)
{
    counts_.erase(inv.id);
    const auto& dag = inv.wf->dag;
    for (const auto& node : dag.nodes()) {
        if (!owned(node.id) || inv.node_done[static_cast<size_t>(node.id)])
            continue;
        const auto& in = dag.inEdges(node.id);
        int done_preds = 0;
        for (const size_t e : in) {
            if (inv.node_done[static_cast<size_t>(dag.edge(e).from)])
                ++done_preds;
        }
        if (done_preds > 0)
            counts_[inv.id][node.id] = done_preds;
        if (done_preds == static_cast<int>(in.size()))
            ready(node.id);
    }
}

size_t
PredecessorCounters::count(uint64_t invocation_id) const
{
    const auto it = counts_.find(invocation_id);
    return it == counts_.end() ? 0 : it->second.size();
}

size_t
PredecessorCounters::total() const
{
    size_t n = 0;
    for (const auto& [id, nodes] : counts_)
        n += nodes.size();
    return n;
}

bool
decideTrigger(const RuntimeContext& ctx, Invocation& inv,
              workflow::NodeId node_id, int track, net::NodeId origin)
{
    const auto& node = inv.wf->dag.node(node_id);
    if (ctx.trace) {
        ctx.trace->instant("trigger", node.name, track, ctx.sim.now(),
                           inv.inv_span);
    }
    if (node.kind == workflow::StepKind::VirtualStart && node.switch_id >= 0)
        drawSwitch(ctx, inv, node, origin);

    if (!node.isVirtual() && !isSkipped(inv, node))
        return true;
    const bool skipped = !node.isVirtual();
    const size_t idx = static_cast<size_t>(node_id);
    if (skipped)
        inv.node_skipped[idx] = true;
    if (ctx.trace && ctx.trace->enabled()) {
        const obs::SpanId span =
            ctx.trace->span("node", node.name, track, ctx.sim.now(),
                            ctx.sim.now(), skipped ? "skipped" : "virtual",
                            inv.inv_span);
        inv.node_span[idx] = span;
        recordNodeSpanFlows(ctx.trace, inv, node_id, span, ctx.sim.now());
    }
    return false;
}

}  // namespace faasflow::engine
