#include "load/autoscaler.h"

#include <algorithm>

#include "cluster/cluster.h"
#include "cluster/node.h"
#include "common/sim_time.h"

namespace faasflow::load {

namespace {

/** Inspection cadence. */
constexpr SimTime kInterval = SimTime::millis(100);
/** Max prewarm starts per function per worker per tick. */
constexpr int kMaxStep = 2;

}  // namespace

Autoscaler::Autoscaler(System& system) : system_(system) {}

void
Autoscaler::start()
{
    if (started_)
        return;
    started_ = true;
    // The function set is fixed at start (registrations happen during
    // deployment, before load); FunctionRegistry::names() is sorted.
    functions_ = system_.registry().names();
    tick();
}

void
Autoscaler::tick()
{
    ++stats_.ticks;
    cluster::Cluster& cluster = system_.cluster();
    for (size_t w = 0; w < cluster.workerCount(); ++w) {
        cluster::WorkerNode& node = cluster.worker(w);
        if (!node.alive())
            continue;
        cluster::ContainerPool& pool = node.pool();
        for (const std::string& fn : functions_) {
            const cluster::ContainerPool::FunctionLoad load =
                pool.functionLoad(fn);

            // Queued acquisitions mean every container of the function
            // is taken and the per-function limit still has head-room;
            // saturation (all busy, none queued yet) earns one
            // speculative container.
            int want = 0;
            if (load.waiting > 0)
                want = std::min(load.waiting, kMaxStep);
            else if (load.containers > 0 && load.busy == load.containers)
                want = 1;
            if (want > 0) {
                stats_.scale_up_total +=
                    static_cast<uint64_t>(pool.prewarm(fn, want));
            }
        }
    }
    sim::Simulator& sim = system_.simulator();
    // Re-arm as a background event while foreground work remains, so
    // this tick and the telemetry sampler's cannot keep each other alive.
    if (sim.pendingEvents() > 0)
        sim.scheduleBackground(kInterval, [this] { tick(); });
}

}  // namespace faasflow::load
