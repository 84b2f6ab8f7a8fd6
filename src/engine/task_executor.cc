#include "engine/task_executor.h"

#include <algorithm>
#include <charconv>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"

namespace faasflow::engine {

std::string
dataKey(const Invocation& inv, workflow::NodeId node)
{
    // Built on the per-fetch hot path: direct concatenation, one
    // allocation, no printf machinery.
    const std::string& wf = inv.wf->name;
    const std::string& name = inv.wf->dag.node(node).name;
    char id_buf[20];
    const auto conv =
        std::to_chars(id_buf, id_buf + sizeof(id_buf), inv.id);
    std::string key;
    key.reserve(wf.size() + name.size() +
                static_cast<size_t>(conv.ptr - id_buf) + 2);
    key += wf;
    key += '/';
    key.append(id_buf, conv.ptr);
    key += '/';
    key += name;
    return key;
}

TaskExecutor::TaskExecutor(sim::Simulator& sim, cluster::WorkerNode& node,
                           storage::FaaStore& store,
                           const cluster::FunctionRegistry& registry, Rng rng,
                           obs::TraceRecorder* trace, int track)
    : sim_(sim), node_(node), store_(store), registry_(registry), rng_(rng),
      trace_(trace), track_(track)
{
}

/** Mutable state threaded through the async phases of one node run. */
struct TaskExecutor::RunState
{
    Invocation* inv = nullptr;
    workflow::NodeId node_id = -1;
    DataMode mode = DataMode::FaaStore;
    scheduler::RuntimeFeedback* feedback = nullptr;
    std::function<void(NodeRunResult)> done;

    const cluster::FunctionSpec* spec = nullptr;
    int width = 1;
    size_t pending = 0;  ///< outstanding async sub-operations in a phase
    NodeRunResult result;
    SimTime started;     ///< when runNode was entered (trace span begin)

    /** The node's trace span, open across all phases: phase spans nest
     *  under it, and a worker crash sweeps it closed mid-run. 0 while
     *  tracing is disabled. */
    obs::SpanId span = 0;

    /** Worker crash epoch captured at runNode entry. Every asynchronous
     *  resume compares it against the node's current epoch and abandons
     *  the run if the worker crashed in between — crucially *before*
     *  touching the core ledger or a (freed) Container pointer. */
    uint64_t node_epoch = 0;
};

bool
TaskExecutor::abandoned(const std::shared_ptr<RunState>& rs) const
{
    return rs->node_epoch != node_.crashEpoch();
}

void
TaskExecutor::runNode(Invocation& inv, workflow::NodeId node_id,
                      DataMode mode, scheduler::RuntimeFeedback* feedback,
                      std::function<void(NodeRunResult)> done)
{
    auto rs = std::make_shared<RunState>();
    rs->inv = &inv;
    rs->node_id = node_id;
    rs->mode = mode;
    rs->feedback = feedback;
    rs->done = std::move(done);

    const auto& node = inv.wf->dag.node(node_id);
    if (!node.isTask())
        panic("TaskExecutor given virtual node '%s'", node.name.c_str());
    rs->spec = &registry_.get(node.function);
    rs->width = node.foreach_width;
    rs->started = sim_.now();
    rs->node_epoch = node_.crashEpoch();
    if (trace_ && trace_->enabled()) {
        rs->span = trace_->openSpan("node", node.name, track_, rs->started,
                                    inv.inv_span);
        inv.node_span[static_cast<size_t>(node_id)] = rs->span;
        recordNodeSpanFlows(trace_, inv, node_id, rs->span, rs->started);
    }

    if (rs->width > 1 && feedback)
        feedback->recordMap(node.name, static_cast<double>(rs->width));

    // Inputs are fetched once per node into the worker (instances read
    // them locally); each instance then runs its own container/core
    // lifecycle, so a width beyond the per-function container cap simply
    // queues instead of deadlocking.
    fetchInputs(rs);
}

void
TaskExecutor::fetchInputs(std::shared_ptr<RunState> rs)
{
    const auto& dag = rs->inv->wf->dag;
    struct Fetch
    {
        size_t edge_idx;
        workflow::NodeId origin;
        int64_t bytes;
    };
    std::vector<Fetch> fetches;
    for (const size_t e : dag.inEdges(rs->node_id)) {
        for (const auto& item : dag.edge(e).payload) {
            if (rs->inv->node_skipped[static_cast<size_t>(item.origin)])
                continue;  // data from a non-taken switch branch
            fetches.push_back(Fetch{e, item.origin, item.bytes});
        }
    }
    if (fetches.empty()) {
        executeInstances(rs);
        return;
    }

    // Every executor instance pulls its full input from storage (Lambda
    // semantics) — a foreach node with width w fetches each payload item
    // w times, which is exactly the §2.4 data-shipping amplification.
    std::vector<Fetch> instance_fetches;
    instance_fetches.reserve(fetches.size() * static_cast<size_t>(rs->width));
    for (int i = 0; i < rs->width; ++i) {
        instance_fetches.insert(instance_fetches.end(), fetches.begin(),
                                fetches.end());
    }

    rs->pending = instance_fetches.size();
    // Per-edge max item latency becomes the feedback weight sample.
    auto edge_latency = std::make_shared<std::map<size_t, SimTime>>();
    for (const Fetch& f : instance_fetches) {
        const std::string key = dataKey(*rs->inv, f.origin);
        const bool local = store_.hasLocal(key);
        auto on_got = [this, rs, f, local, edge_latency](
                          SimTime elapsed, int64_t bytes,
                          const Payload& body) {
            if (abandoned(rs))
                return;
            if (body) {
                // Cache the producer's body handle on the invocation so
                // downstream consumers see the same blob (zero-copy).
                rs->inv->node_payload[static_cast<size_t>(f.origin)] = body;
            }
            if (trace_) {
                trace_->span("fetch",
                             rs->inv->wf->dag.node(f.origin).name, track_,
                             sim_.now() - elapsed, sim_.now(),
                             local ? "local" : "remote", rs->span);
            }
            rs->inv->record.data_latency += elapsed;
            if (local) {
                rs->inv->record.bytes_via_local += bytes;
            } else {
                rs->inv->record.bytes_via_remote += bytes;
            }
            if (profile_) {
                const auto& dag = rs->inv->wf->dag;
                profile_->recordEdge(
                    rs->inv->wf->name, f.edge_idx,
                    dag.node(f.origin).name,
                    dag.node(rs->node_id).name, sim_.now(), f.bytes,
                    bytes, elapsed, local);
                profile_->recordStoreOp(
                    local ? obs::ProfileStore::StoreOp::FetchLocal
                          : obs::ProfileStore::StoreOp::FetchRemote,
                    bytes, elapsed);
            }
            auto& slot = (*edge_latency)[f.edge_idx];
            slot = std::max(slot, elapsed);
            if (--rs->pending == 0) {
                if (rs->feedback) {
                    for (const auto& [edge_idx, latency] : *edge_latency) {
                        rs->feedback->recordEdgeLatency(edge_idx, latency);
                    }
                }
                executeInstances(rs);
            }
        };
        if (rs->mode == DataMode::RemoteOnly) {
            store_.remoteStore().get(key, node_.netId(), std::move(on_got),
                                     rs->span);
        } else {
            store_.fetch(rs->inv->wf->name, key, std::move(on_got),
                         rs->span);
        }
    }
}

void
TaskExecutor::recordAcquire(const std::shared_ptr<RunState>& rs,
                            SimTime requested,
                            const cluster::AcquireResult& acquired)
{
    const std::string& name = rs->inv->wf->dag.node(rs->node_id).name;
    const SimTime queued_until = requested + acquired.queue_delay;
    if (profile_) {
        if (acquired.queue_delay > SimTime::zero())
            profile_->recordQueue(rs->inv->wf->name, name,
                                  acquired.queue_delay);
        if (acquired.cold_start)
            profile_->recordColdStart(rs->inv->wf->name, name,
                                      sim_.now() - queued_until);
    }
    if (!trace_ || rs->span == 0)
        return;
    if (acquired.queue_delay > SimTime::zero())
        trace_->span("wait", name, track_, requested, queued_until, {},
                     rs->span);
    if (acquired.cold_start)
        trace_->span("coldstart", name, track_, queued_until, sim_.now(),
                     {}, rs->span);
}

void
TaskExecutor::executeInstances(std::shared_ptr<RunState> rs)
{
    const auto& node = rs->inv->wf->dag.node(rs->node_id);
    rs->pending = static_cast<size_t>(rs->width);
    for (int i = 0; i < rs->width; ++i) {
        // Each instance: container (warm or cold) -> core -> execute.
        const SimTime requested = sim_.now();
        node_.pool().acquire(
            node.function,
            [this, rs, requested](cluster::AcquireResult acquired) {
                if (abandoned(rs))
                    return;  // never touch the (freed) container
                rs->inv->record.container_wait += sim_.now() - requested;
                recordAcquire(rs, requested, acquired);
                if (acquired.cold_start) {
                    ++rs->result.cold_starts;
                    ++rs->inv->record.cold_starts;
                    if (rs->mode == DataMode::FaaStore) {
                        // Simulated cgroup shrink: reclaim the cold
                        // container's over-provisioned memory (§4.3.2).
                        store_.reclaimContainerMemory(
                            node_.pool(), acquired.container, *rs->spec);
                    }
                }
                cluster::Container* container = acquired.container;
                runInstanceAttempt(rs, container);
            });
    }
}

void
TaskExecutor::runInstanceAttempt(std::shared_ptr<RunState> rs,
                                 cluster::Container* container)
{
    node_.acquireCore([this, rs, container] {
        if (abandoned(rs))
            return;  // crash reset the core ledger; nothing to release
        const SimTime exec = rs->spec->sampleExecTime(rng_);
        const bool failed = rs->spec->failure_rate > 0.0 &&
                            rng_.uniform() < rs->spec->failure_rate;
        rs->result.max_exec = std::max(rs->result.max_exec, exec);
        rs->inv->record.exec_total += exec;
        if (profile_) {
            profile_->recordExec(rs->inv->wf->name,
                                 rs->inv->wf->dag.node(rs->node_id).name,
                                 exec);
        }
        sim_.schedule(exec, [this, rs, container, failed, exec] {
            if (abandoned(rs))
                return;
            node_.releaseCore();
            if (trace_) {
                trace_->span("exec",
                             rs->inv->wf->dag.node(rs->node_id).name,
                             track_, sim_.now() - exec, sim_.now(),
                             failed ? "crashed" : std::string_view{},
                             rs->span);
            }
            if (failed) {
                // The attempt crashed: the container is torn down (a
                // crashed sandbox is not reused) and the platform retries
                // transparently on a fresh one.
                ++rs->inv->record.retries;
                if (trace_) {
                    trace_->instant(
                        "retry", rs->inv->wf->dag.node(rs->node_id).name,
                        track_, sim_.now(), rs->span);
                }
                node_.pool().releaseCrashed(container);
                const auto& node = rs->inv->wf->dag.node(rs->node_id);
                const SimTime retry_requested = sim_.now();
                node_.pool().acquire(
                    node.function,
                    [this, rs, retry_requested](
                        cluster::AcquireResult again) {
                        if (abandoned(rs))
                            return;
                        rs->inv->record.container_wait +=
                            sim_.now() - retry_requested;
                        recordAcquire(rs, retry_requested, again);
                        if (again.cold_start) {
                            ++rs->result.cold_starts;
                            ++rs->inv->record.cold_starts;
                        }
                        runInstanceAttempt(rs, again.container);
                    });
                return;
            }
            node_.pool().release(container);
            if (--rs->pending == 0)
                saveOutput(rs);
        });
    });
}

void
TaskExecutor::saveOutput(std::shared_ptr<RunState> rs)
{
    const auto& dag = rs->inv->wf->dag;
    // The node's output size: the payload item it originates (identical
    // on every consuming edge — one object, many readers).
    int64_t output_bytes = 0;
    bool has_consumer = false;
    for (const auto& edge : dag.edges()) {
        for (const auto& item : edge.payload) {
            if (item.origin == rs->node_id) {
                output_bytes = item.bytes;
                has_consumer = true;
                break;
            }
        }
        if (has_consumer)
            break;
    }
    if (!has_consumer || output_bytes == 0) {
        finish(rs);
        return;
    }

    const bool prefer_local =
        rs->mode == DataMode::FaaStore &&
        rs->inv->placement->allConsumersLocal(dag, rs->node_id);
    const std::string key = dataKey(*rs->inv, rs->node_id);
    store_.save(
        rs->inv->wf->name, key, output_bytes,
        rs->inv->node_payload[static_cast<size_t>(rs->node_id)],
        prefer_local,
        [this, rs, output_bytes](SimTime elapsed, bool local) {
            if (abandoned(rs))
                return;  // the saved object died with the node
            // Remember where the object landed: recovery must
            // re-run this producer if that local copy is lost.
            rs->inv->node_output_worker[static_cast<size_t>(rs->node_id)] =
                local ? rs->inv->placement->workerOf(rs->node_id) : -1;
            if (trace_) {
                trace_->span("save",
                             rs->inv->wf->dag.node(rs->node_id).name,
                             track_, sim_.now() - elapsed, sim_.now(),
                             local ? "local" : "remote", rs->span);
            }
            rs->inv->record.data_latency += elapsed;
            if (local) {
                rs->inv->record.bytes_via_local += output_bytes;
            } else {
                rs->inv->record.bytes_via_remote += output_bytes;
            }
            if (profile_) {
                profile_->recordStoreOp(
                    local ? obs::ProfileStore::StoreOp::SaveLocal
                          : obs::ProfileStore::StoreOp::SaveRemote,
                    output_bytes, elapsed);
            }
            finish(rs);
        },
        rs->span);
}

void
TaskExecutor::finish(std::shared_ptr<RunState> rs)
{
    if (rs->feedback) {
        const auto& dag = rs->inv->wf->dag;
        const auto& node = dag.node(rs->node_id);
        // Concurrency is tracked per *function*; several DAG nodes may
        // share one function, so attribute an equal share to this node
        // or Scale(v) would be multiply counted.
        int sharers = 0;
        for (const auto& other : dag.nodes()) {
            if (other.isTask() && other.function == node.function)
                ++sharers;
        }
        const double concurrency =
            node_.pool().averageConcurrency(node.function) /
            std::max(sharers, 1);
        rs->feedback->recordScale(node.name, std::max(1.0, concurrency));
    }
    if (trace_) {
        trace_->closeSpan(rs->span, sim_.now(),
                          strFormat("width=%d cold=%llu", rs->width,
                                    static_cast<unsigned long long>(
                                        rs->result.cold_starts)));
    }
    rs->inv->record.functions_executed +=
        static_cast<uint64_t>(rs->width);
    rs->done(rs->result);
}

}  // namespace faasflow::engine
