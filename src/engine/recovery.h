#ifndef FAASFLOW_ENGINE_RECOVERY_H_
#define FAASFLOW_ENGINE_RECOVERY_H_

#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "engine/types.h"
#include "scheduler/placement.h"

namespace faasflow::engine {

/**
 * Failure-detection knobs of the master's heartbeat monitor. Workers
 * push a heartbeat every `heartbeat_interval`; after `heartbeat_misses`
 * consecutive silent periods the master declares the worker dead and
 * starts recovery. The simulation models this as a fixed detection
 * delay from the instant of the crash (ticking individual heartbeat
 * events would keep the event queue alive forever for no extra
 * fidelity). A worker that reboots before the detector fires announces
 * its restart, so detection never lags a short outage.
 */
struct RecoveryConfig
{
    SimTime heartbeat_interval = SimTime::millis(100);
    int heartbeat_misses = 3;

    SimTime
    detectionDelay() const
    {
        return heartbeat_interval * static_cast<double>(heartbeat_misses);
    }
};

/**
 * Computes the re-run set of one invocation after `crashed_worker`
 * failed: every unfinished node placed there, closed over done
 * producers whose output lived only in that worker's local memory and
 * is still needed by a not-done (or re-run) consumer, plus any done
 * virtual fence gating a node in the set (payload rides *through*
 * fences, so the re-drive wave must flow producer -> fence -> consumer
 * in dependency order — see lostNodeSet's gate rule). The FaaStore
 * placement invariant — an object is saved locally only when all its
 * consumers are co-located — keeps the producer closure inside the
 * crashed worker's own sub-graph, so surviving workers never
 * re-execute a *task*; only zero-cost virtual fences may be re-driven
 * elsewhere.
 *
 * One worklist pass: each node added to the set walks its in-edges
 * once, so the cost is linear in the DAG's size. Returns one flag per
 * DAG node; all-zero when the invocation lost nothing (no recovery
 * needed).
 */
std::vector<uint8_t> lostNodeSet(const Invocation& inv, int crashed_worker);

/**
 * Copy of `placement` with every node (and group) of `from_worker`
 * moved to `to_worker`. Moving the whole sub-graph together preserves
 * the all-consumers-local invariant that bounds lostNodeSet.
 */
std::shared_ptr<const scheduler::Placement>
remapPlacement(const scheduler::Placement& placement, int from_worker,
               int to_worker);

/**
 * Clears the completion facts of every flagged node and bumps its drive
 * epoch (stale queued triggers and in-flight results die), then bumps
 * the invocation's recovery epoch (stale WorkerSP state updates die).
 * Engines rebuild their counters afterwards via restoreInvocation.
 * Returns the number of nodes re-driven (the recovery metrics feed).
 */
size_t resetLostNodes(Invocation& inv, const std::vector<uint8_t>& rerun);

}  // namespace faasflow::engine

#endif  // FAASFLOW_ENGINE_RECOVERY_H_
