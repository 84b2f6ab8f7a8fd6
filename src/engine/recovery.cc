#include "engine/recovery.h"

#include "common/logging.h"

namespace faasflow::engine {

std::vector<uint8_t>
lostNodeSet(const Invocation& inv, int crashed_worker)
{
    const auto& dag = inv.wf->dag;
    const auto& placement = *inv.placement;
    std::vector<uint8_t> rerun(dag.nodeCount(), 0);
    std::vector<workflow::NodeId> worklist;
    const auto add = [&rerun, &worklist](workflow::NodeId id) {
        if (!rerun[static_cast<size_t>(id)]) {
            rerun[static_cast<size_t>(id)] = 1;
            worklist.push_back(id);
        }
    };
    // A done producer on the dead worker whose output lived only in its
    // local memory; it re-runs once any reader of that output is pending.
    const auto outputLost = [&](workflow::NodeId id) {
        const size_t idx = static_cast<size_t>(id);
        return placement.workerOf(id) == crashed_worker &&
               inv.node_done[idx] &&
               inv.node_output_worker[idx] == crashed_worker;
    };

    // Seeds: unfinished nodes on the dead worker, and done ones there
    // whose lost output a not-done consumer still has to read.
    for (const auto& node : dag.nodes()) {
        const size_t idx = static_cast<size_t>(node.id);
        if (placement.workerOf(node.id) != crashed_worker)
            continue;
        if (!inv.node_done[idx]) {
            add(node.id);
        } else if (outputLost(node.id)) {
            for (const workflow::NodeId to : inv.wf->index.consumers[idx]) {
                if (!inv.node_done[static_cast<size_t>(to)]) {
                    add(node.id);
                    break;
                }
            }
        }
    }

    // Closure: every added node walks its in-edges once. A producer whose
    // lost output the node reads must re-run with it. So must a done
    // virtual fence gating it: payload rides through fences (a
    // consumer's trigger gate is the fence, not the payload's origin),
    // so leaving the fence done would let the consumer fire before the
    // re-run producer has regenerated its output. Re-running a fence is
    // free (virtual, no data) and the wave then flows producer -> fence
    // -> consumer in dependency order. Fences have successors by
    // construction, so completed sinks are never pulled in (their
    // client-side completion already counted).
    while (!worklist.empty()) {
        const workflow::NodeId id = worklist.back();
        worklist.pop_back();
        for (const size_t e : dag.inEdges(id)) {
            const auto& edge = dag.edge(e);
            if (dag.node(edge.from).isVirtual() &&
                inv.node_done[static_cast<size_t>(edge.from)]) {
                add(edge.from);
            }
            for (const auto& item : edge.payload) {
                if (outputLost(item.origin))
                    add(item.origin);
            }
        }
    }
    return rerun;
}

std::shared_ptr<const scheduler::Placement>
remapPlacement(const scheduler::Placement& placement, int from_worker,
               int to_worker)
{
    auto next = std::make_shared<scheduler::Placement>(placement);
    for (int& w : next->worker_of) {
        if (w == from_worker)
            w = to_worker;
    }
    for (int& w : next->group_worker) {
        if (w == from_worker)
            w = to_worker;
    }
    return next;
}

size_t
resetLostNodes(Invocation& inv, const std::vector<uint8_t>& rerun)
{
    size_t redriven = 0;
    for (size_t idx = 0; idx < rerun.size(); ++idx) {
        if (!rerun[idx])
            continue;
        inv.node_done[idx] = 0;
        inv.node_triggered[idx] = 0;
        inv.node_exec[idx] = SimTime::zero();
        inv.node_output_worker[idx] = -1;
        ++inv.node_drive_epoch[idx];
        ++redriven;
    }
    ++inv.recovery_epoch;
    return redriven;
}

}  // namespace faasflow::engine
