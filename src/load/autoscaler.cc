#include "load/autoscaler.h"

#include <algorithm>

#include "cluster/cluster.h"
#include "cluster/node.h"

namespace faasflow::load {

Autoscaler::Autoscaler(System& system) : Autoscaler(system, Config()) {}

Autoscaler::Autoscaler(System& system, Config config)
    : system_(system), config_(config)
{
}

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
            const int count = pool.containerCount(fn);
            const int busy = pool.busyContainers(fn);
            const int idle = std::max(count - busy, 0);
            const int waiting = static_cast<int>(pool.waitersFor(fn));

            // Scale up: queued acquisitions mean every container of the
            // function is taken and the per-function limit still has
            // head-room; saturation (all busy, none queued yet) earns
            // one speculative container.
            int want = 0;
            if (waiting > 0)
                want = std::min(waiting, config_.max_step);
            else if (count > 0 && busy == count)
                want = 1;
            if (want > 0) {
                stats_.scale_up_total +=
                    static_cast<uint64_t>(pool.prewarm(fn, want));
                continue;  // never trim what we just grew
            }

            // Scale down: a quiet node holding more idle containers
            // than the floor (plus slack) returns the memory.
            if (idle > config_.min_warm + config_.trim_slack &&
                node.averageCpuUtilisation() < config_.trim_utilisation) {
                stats_.scale_down_total += static_cast<uint64_t>(
                    pool.trimIdle(fn, config_.min_warm));
            }
        }
    }
    sim::Simulator& sim = system_.simulator();
    // Re-arm as a background event while foreground work remains, so
    // this tick and the telemetry sampler's cannot keep each other alive.
    if (sim.pendingEvents() > 0)
        sim.scheduleBackground(config_.interval, [this] { tick(); });
}

}  // namespace faasflow::load
