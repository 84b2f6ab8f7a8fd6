#ifndef FAASFLOW_ENGINE_TASK_EXECUTOR_H_
#define FAASFLOW_ENGINE_TASK_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>

#include "cluster/node.h"
#include "common/rng.h"
#include "engine/types.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "scheduler/feedback.h"
#include "storage/faastore.h"

namespace faasflow::engine {

/** Builds the storage key of a node's output object. */
std::string dataKey(const Invocation& inv, workflow::NodeId node);

/**
 * Executes one DAG node on one worker: container acquisition (all
 * foreach instances), input fetch through FaaStore, core-bound
 * execution, and output save. Shared by both the MasterSP executor
 * agents and the WorkerSP per-worker engines — the two patterns differ
 * in *triggering*, not in how a function body runs.
 *
 * A foreach node with width w acquires w containers and runs w
 * instances in parallel; inputs are fetched once per node (the worker
 * caches the object, instances read it locally) and the combined output
 * is saved once, which preserves total bytes moved while letting the
 * instances contend for cores realistically.
 */
class TaskExecutor
{
  public:
    /**
     * @param trace optional activity recorder (may be null)
     * @param track trace lane for this executor's spans
     */
    TaskExecutor(sim::Simulator& sim, cluster::WorkerNode& node,
                 storage::FaaStore& store,
                 const cluster::FunctionRegistry& registry, Rng rng,
                 obs::TraceRecorder* trace = nullptr, int track = 0);

    struct NodeRunResult
    {
        SimTime max_exec;  ///< longest instance execution (pure CPU time)
        uint64_t cold_starts = 0;
    };

    /**
     * Runs a task node end to end. Data metrics are accumulated onto
     * `inv.record`; per-edge fetch latencies are reported to `feedback`
     * when non-null (the FaaStore metric collection of §4.1.2).
     * @param mode RemoteOnly forces every object through the database
     */
    void runNode(Invocation& inv, workflow::NodeId node, DataMode mode,
                 scheduler::RuntimeFeedback* feedback,
                 std::function<void(NodeRunResult)> done);

    cluster::WorkerNode& node() { return node_; }
    storage::FaaStore& store() { return store_; }

    /** Online profile sink (may be null / disabled); samples exec,
     *  queue-wait, cold-start, per-edge transfer and store-op costs. */
    void setProfile(obs::ProfileStore* profile) { profile_ = profile; }

  private:
    sim::Simulator& sim_;
    cluster::WorkerNode& node_;
    storage::FaaStore& store_;
    const cluster::FunctionRegistry& registry_;
    Rng rng_;
    obs::TraceRecorder* trace_;
    int track_;
    obs::ProfileStore* profile_ = nullptr;

    struct RunState;

    /** True when the worker crashed after this run started; the run's
     *  async callbacks then silently stop resuming it. */
    bool abandoned(const std::shared_ptr<RunState>& rs) const;

    void fetchInputs(std::shared_ptr<RunState> rs);
    void executeInstances(std::shared_ptr<RunState> rs);

    /** Trace wait/coldstart phase spans of one container acquisition. */
    void recordAcquire(const std::shared_ptr<RunState>& rs,
                       SimTime requested,
                       const cluster::AcquireResult& acquired);

    /** One execution attempt of one instance; failed attempts recycle
     *  the container and retry transparently. */
    void runInstanceAttempt(std::shared_ptr<RunState> rs,
                            cluster::Container* container);
    void saveOutput(std::shared_ptr<RunState> rs);
    void finish(std::shared_ptr<RunState> rs);
};

}  // namespace faasflow::engine

#endif  // FAASFLOW_ENGINE_TASK_EXECUTOR_H_
