#include "faasflow/system.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "engine/recovery.h"
#include "workflow/analysis.h"

namespace faasflow {

namespace {

/** SplitMix64 finalizer over (seed, id): gives every invocation an
 *  independent control-flow seed for its switch draws — deterministic
 *  in the system seed and the invocation id alone, so a replayed or
 *  re-driven switch re-derives the same branch. */
uint64_t
mixSeed(uint64_t seed, uint64_t id)
{
    return splitMix64(seed + kSplitMix64Gamma * (id + 1));
}

}  // namespace

System::System(SystemConfig config)
    : config_(config), profile_(config.profile), slo_(&trace_),
      rng_(config.seed)
{
    if (config_.profile_enabled)
        profile_.enable();
    sim_ = std::make_unique<sim::Simulator>();
    network_ = std::make_unique<net::Network>(*sim_, config_.network);
    network_->setTrace(&trace_);
    network_->setFlowObserver([this](net::NodeId, net::NodeId,
                                     int64_t bytes, SimTime elapsed) {
        profile_.recordTransfer(bytes, elapsed);
    });
    cluster_ = std::make_unique<cluster::Cluster>(
        *sim_, *network_, registry_, config_.cluster, rng_.split());
    remote_ = std::make_unique<storage::RemoteStore>(
        *sim_, *network_, cluster_->storageNodeId(), config_.remote);
    remote_->setTrace(&trace_);

    for (size_t w = 0; w < cluster_->workerCount(); ++w) {
        stores_.push_back(std::make_unique<storage::FaaStore>(
            *sim_, cluster_->worker(w), *remote_, config_.faastore));
    }

    if (config_.durable_log) {
        // The durability mode alone decides batching: Sync commits each
        // append on its own, which is what its engines assume when they
        // treat every fact as durable at issue.
        progress_log_ = std::make_unique<storage::ProgressLog>(
            *sim_, *network_, cluster_->storageNodeId(),
            config_.progress_log,
            config_.durability_mode != engine::DurabilityMode::Sync);
    }

    std::vector<storage::FaaStore*> store_ptrs;
    for (auto& s : stores_)
        store_ptrs.push_back(s.get());
    ctx_ = std::make_unique<engine::RuntimeContext>(engine::RuntimeContext{
        *sim_, *network_, *cluster_, std::move(store_ptrs), *remote_,
        registry_, config_.engine, config_.data_mode, &trace_, &profile_,
        progress_log_.get(), config_.durability_mode});

    // One engine per worker serves both control patterns: WorkerSP
    // triggers on it, MasterSP dispatches assigned tasks through it.
    // Each worker still draws two splits, WorkerSP's first and MasterSP's
    // second, and its engine takes the one of the configured mode. That
    // keeps every stream where it was for both modes: the engine's
    // service and execution jitter, and every split drawn after these
    // (the master engine's), hence every seeded output.
    const bool master_sp =
        config_.control_mode == engine::ControlMode::MasterSP;
    for (size_t w = 0; w < cluster_->workerCount(); ++w) {
        const Rng worker_sp_rng = rng_.split();
        const Rng master_sp_rng = rng_.split();
        worker_engines_.push_back(std::make_unique<engine::WorkerEngine>(
            *ctx_, static_cast<int>(w),
            master_sp ? master_sp_rng : worker_sp_rng));
    }
    std::vector<engine::WorkerEngine*> peers;
    for (auto& e : worker_engines_)
        peers.push_back(e.get());
    for (auto& e : worker_engines_) {
        e->setPeers(peers);
        e->setSinkNotifier(
            [this](engine::Invocation& inv) { onSinkComplete(inv); });
    }
    master_engine_ =
        std::make_unique<engine::MasterEngine>(*ctx_, rng_.split());
    master_engine_->setWorkers(peers);
    master_engine_->setSinkNotifier(
        [this](engine::Invocation& inv) { onSinkComplete(inv); });

    graph_scheduler_ = std::make_unique<scheduler::GraphScheduler>(
        registry_, config_.scheduler);

    registerTelemetryGauges();
}

void
System::registerTelemetryGauges()
{
    telemetry_.setInterval(config_.telemetry_interval);
    net::Network* net = network_.get();
    sim::Simulator* sim = sim_.get();

    // NIC egress/ingress utilisation is a windowed rate: bytes moved
    // since the previous sample over the sample interval, normalised by
    // the NIC capacity. The byte counters live in the network; the
    // deltas live in the closures (reset by TelemetrySampler::clear is
    // unnecessary — gauges are pure functions of counter differences).
    const auto nic_util = [net, sim](net::NodeId nid, bool egress) {
        return [net, sim, nid, egress, last_bytes = int64_t{0},
                last_us = int64_t{0}]() mutable {
            const net::NicStats& s = net->stats(nid);
            const int64_t bytes = egress ? s.bytes_sent : s.bytes_received;
            const int64_t now_us = sim->now().micros();
            const int64_t db = bytes - last_bytes;
            const int64_t dt = now_us - last_us;
            last_bytes = bytes;
            last_us = now_us;
            const double bw = egress ? net->egressBandwidth(nid)
                                     : net->ingressBandwidth(nid);
            if (dt <= 0 || bw <= 0.0)
                return 0.0;
            return static_cast<double>(db) * 1e6 /
                   (static_cast<double>(dt) * bw);
        };
    };

    for (size_t w = 0; w < cluster_->workerCount(); ++w) {
        cluster::WorkerNode* node = &cluster_->worker(w);
        storage::FaaStore* store = stores_[w].get();
        const std::string labels =
            strFormat("node=\"%s\"", node->name().c_str());
        telemetry_.registerGauge("faasflow_cores_in_use", labels, [node] {
            return static_cast<double>(node->coresInUse());
        });
        telemetry_.registerGauge("faasflow_run_queue_depth", labels,
                                 [node] {
                                     return static_cast<double>(
                                         node->runQueueDepth());
                                 });
        telemetry_.registerGauge("faasflow_memory_used_bytes", labels,
                                 [node] {
                                     return static_cast<double>(
                                         node->memoryUsed());
                                 });
        telemetry_.registerGauge("faasflow_containers_total", labels,
                                 [node] {
                                     return static_cast<double>(
                                         node->pool().totalContainers());
                                 });
        telemetry_.registerGauge("faasflow_containers_warm", labels,
                                 [node] {
                                     return static_cast<double>(
                                         node->pool().idleContainers());
                                 });
        telemetry_.registerGauge("faasflow_pool_wait_queue", labels,
                                 [node] {
                                     return static_cast<double>(
                                         node->pool().waitQueueDepth());
                                 });
        telemetry_.registerGauge("faasflow_local_store_used_bytes", labels,
                                 [store] {
                                     return static_cast<double>(
                                         store->memStore().usedBytes());
                                 });
        engine::WorkerEngine* weng = worker_engines_[w].get();
        telemetry_.registerGauge("faasflow_engine_queue_depth", labels,
                                 [weng] {
                                     return static_cast<double>(
                                         weng->queue().depth());
                                 });
        telemetry_.registerGauge("faasflow_nic_egress_util", labels,
                                 nic_util(node->netId(), true));
        telemetry_.registerGauge("faasflow_nic_ingress_util", labels,
                                 nic_util(node->netId(), false));
    }

    const net::NodeId sid = cluster_->storageNodeId();
    const std::string slabels =
        strFormat("node=\"%s\"", network_->nodeName(sid).c_str());
    storage::RemoteStore* remote = remote_.get();
    telemetry_.registerGauge("faasflow_storage_queue_depth", slabels,
                             [net, sid] {
                                 return static_cast<double>(
                                     net->nodeActiveFlows(sid));
                             });
    telemetry_.registerGauge("faasflow_storage_objects", slabels, [remote] {
        return static_cast<double>(remote->objectCount());
    });
    telemetry_.registerGauge("faasflow_storage_bytes", slabels, [remote] {
        return static_cast<double>(remote->storedBytes());
    });
    engine::MasterEngine* meng = master_engine_.get();
    telemetry_.registerGauge("faasflow_engine_queue_depth", slabels, [meng] {
        return static_cast<double>(meng->queue().depth());
    });
    if (progress_log_) {
        // Durability-path health: append/batch throughput, the live
        // speculative window (records issued but not yet durable), and
        // the rollback counters the frontier sweep reports on.
        storage::ProgressLog* log = progress_log_.get();
        const RecoveryStats* rs = &rstats_;
        telemetry_.registerGauge("faasflow_log_appends", slabels, [log] {
            return static_cast<double>(log->stats().appends);
        });
        telemetry_.registerGauge("faasflow_log_batches", slabels, [log] {
            return static_cast<double>(log->stats().batches);
        });
        telemetry_.registerGauge("faasflow_log_batch_mean_records", slabels,
                                 [log] {
                                     return log->stats().batch_records.mean();
                                 });
        telemetry_.registerGauge("faasflow_log_pending_records", slabels,
                                 [log] {
                                     return static_cast<double>(
                                         log->pendingTotal());
                                 });
        telemetry_.registerGauge("faasflow_log_dropped_records", slabels,
                                 [log] {
                                     return static_cast<double>(
                                         log->stats().dropped_records);
                                 });
        telemetry_.registerGauge("faasflow_log_rollbacks", slabels, [rs] {
            return static_cast<double>(rs->rollbacks);
        });
        telemetry_.registerGauge("faasflow_log_rolled_back_nodes", slabels,
                                 [rs] {
                                     return static_cast<double>(
                                         rs->rolled_back_nodes);
                                 });
        telemetry_.registerGauge("faasflow_log_max_pending", slabels,
                                 [log] {
                                     return static_cast<double>(
                                         log->stats().max_pending);
                                 });
        telemetry_.registerGauge("faasflow_log_flushes_by_size", slabels,
                                 [log] {
                                     return static_cast<double>(
                                         log->stats().flushes_by_size);
                                 });
        telemetry_.registerGauge("faasflow_log_flushes_by_window", slabels,
                                 [log] {
                                     return static_cast<double>(
                                         log->stats().flushes_by_window);
                                 });
        // Batch-size distribution, one series per bucket (the same
        // buckets faasflow_run --stats prints).
        static const char* const kBatchBuckets[] = {"1", "2-4", "5-8",
                                                    "9-16", "17+"};
        for (size_t b = 0; b < 5; ++b) {
            telemetry_.registerGauge(
                "faasflow_log_batch_size_hist",
                strFormat("%s,bucket=\"%s\"", slabels.c_str(),
                          kBatchBuckets[b]),
                [log, b] {
                    return static_cast<double>(
                        log->stats().batch_size_hist[b]);
                });
        }
    }
    telemetry_.registerGauge("faasflow_nic_egress_util", slabels,
                             nic_util(sid, true));
    telemetry_.registerGauge("faasflow_nic_ingress_util", slabels,
                             nic_util(sid, false));

    // Simulation-engine health: queue depth plus the EventQueue's
    // lifetime counters, so a scrape can spot pathological stale-event
    // accumulation or compaction churn the same way it spots NIC
    // saturation. One series each, labelled as the engine itself.
    const std::string elabels = "node=\"sim\"";
    telemetry_.registerGauge("faasflow_sim_queue_pending", elabels, [sim] {
        return static_cast<double>(sim->pendingEvents());
    });
    telemetry_.registerGauge("faasflow_sim_events_fired", elabels, [sim] {
        return static_cast<double>(sim->queueStats().fired);
    });
    telemetry_.registerGauge("faasflow_sim_stale_dropped", elabels, [sim] {
        return static_cast<double>(sim->queueStats().stale_dropped);
    });
    telemetry_.registerGauge("faasflow_sim_compactions", elabels, [sim] {
        return static_cast<double>(sim->queueStats().compactions);
    });
    telemetry_.registerGauge("faasflow_sim_heap_peak", elabels, [sim] {
        return static_cast<double>(sim->queueStats().max_heap);
    });

    // Dynamic-label series (per-workflow profiles, per-tenant SLO burn
    // rates) ride the same exporter through the exposition hook.
    telemetry_.registerExposition([this] {
        return profile_.enabled() ? profile_.toPrometheusText()
                                  : std::string();
    });
    telemetry_.registerExposition([this] {
        return slo_.tenantCount() > 0 ? slo_.toPrometheusText(sim_->now())
                                      : std::string();
    });
}

void
System::startTelemetry()
{
    telemetry_.start(*sim_);
}

System::~System() = default;

void
System::registerFunctions(const std::vector<cluster::FunctionSpec>& specs)
{
    for (const auto& spec : specs) {
        if (!registry_.contains(spec.name))
            registry_.add(spec);
    }
}

std::string
System::deploy(workflow::Dag dag)
{
    const auto placement = graph_scheduler_->initialPlacement(
        dag, static_cast<int>(cluster_->workerCount()));
    return deploy(std::move(dag), placement);
}

std::string
System::deploy(workflow::Dag dag, scheduler::Placement placement)
{
    const auto check = workflow::validate(dag);
    if (!check.ok)
        fatal("deploy('%s'): %s", dag.name().c_str(), check.error.c_str());
    for (const auto& node : dag.nodes()) {
        if (node.isTask() && !registry_.contains(node.function)) {
            fatal("deploy('%s'): function '%s' is not registered",
                  dag.name().c_str(), node.function.c_str());
        }
    }
    const std::string name = dag.name();
    if (workflows_.count(name))
        fatal("workflow '%s' already deployed", name.c_str());

    auto state = std::make_unique<WorkflowState>();
    state->wf.name = name;
    state->wf.dag = std::move(dag);
    state->wf.index = workflow::indexDag(state->wf.dag);
    state->wf.placement =
        std::make_shared<const scheduler::Placement>(std::move(placement));
    state->wf.feedback = &state->feedback;
    allocateStorePools(*state);
    workflows_.emplace(name, std::move(state));
    return name;
}

void
System::allocateStorePools(WorkflowState& state)
{
    if (config_.data_mode != engine::DataMode::FaaStore)
        return;
    const auto& dag = state.wf.dag;
    const auto& placement = *state.wf.placement;
    const int64_t headroom = config_.faastore.headroom;
    for (size_t w = 0; w < cluster_->workerCount(); ++w) {
        int64_t quota = 0;
        for (const auto& node : dag.nodes()) {
            if (!node.isTask() ||
                placement.workerOf(node.id) != static_cast<int>(w)) {
                continue;
            }
            quota += storage::FaaStore::overProvision(
                registry_.get(node.function),
                static_cast<double>(node.foreach_width), headroom);
        }
        if (!stores_[w]->allocatePool(state.wf.name, quota)) {
            FAAS_WARN("worker %zu cannot back FaaStore pool of %s (%lld B)",
                      w, state.wf.name.c_str(),
                      static_cast<long long>(quota));
        }
    }
}

System::WorkflowState&
System::stateOf(const std::string& workflow)
{
    const auto it = workflows_.find(workflow);
    if (it == workflows_.end())
        fatal("unknown workflow '%s'", workflow.c_str());
    return *it->second;
}

const engine::DeployedWorkflow&
System::deployed(const std::string& name) const
{
    const auto it = workflows_.find(name);
    if (it == workflows_.end())
        fatal("unknown workflow '%s'", name.c_str());
    return it->second->wf;
}

scheduler::RuntimeFeedback&
System::feedback(const std::string& name)
{
    return stateOf(name).feedback;
}

std::vector<int>
System::workerCapacities() const
{
    std::vector<int> caps;
    for (size_t w = 0; w < cluster_->workerCount(); ++w) {
        const int by_memory = cluster_->worker(w).containerCapacityLeft(
            config_.scheduler.container_size);
        caps.push_back(std::min(by_memory, config_.scheduler.capacity_cap));
    }
    return caps;
}

void
System::repartition(const std::string& workflow)
{
    WorkflowState& state = stateOf(workflow);
    const auto old_placement = state.wf.placement;

    scheduler::Placement next = graph_scheduler_->iterate(
        state.wf.dag, state.feedback, workerCapacities(),
        old_placement->version);

    // Red-black switch (§4.2.2): recycle containers of every function
    // that moved off its old worker; in-flight invocations keep their
    // placement snapshot and drain naturally.
    for (const auto& node : state.wf.dag.nodes()) {
        if (!node.isTask())
            continue;
        const int old_worker = old_placement->workerOf(node.id);
        if (next.workerOf(node.id) != old_worker) {
            cluster_->worker(static_cast<size_t>(old_worker))
                .pool()
                .recycleFunction(node.function);
        }
    }

    state.wf.placement =
        std::make_shared<const scheduler::Placement>(std::move(next));
    allocateStorePools(state);
    state.feedback.clear();
}

uint64_t
System::invoke(const std::string& workflow,
               std::function<void(const engine::InvocationRecord&)> on_result)
{
    return invoke(workflow, std::string(), std::move(on_result));
}

uint64_t
System::invoke(const std::string& workflow,
               const std::string& idempotency_key,
               std::function<void(const engine::InvocationRecord&)> on_result)
{
    profile_.recordTenantArrival("default");
    return invokeInternal(workflow, idempotency_key, std::string(),
                          sim_->now(), std::move(on_result));
}

uint64_t
System::invokeInternal(
    const std::string& workflow, const std::string& idempotency_key,
    const std::string& tenant, SimTime offered_at,
    std::function<void(const engine::InvocationRecord&)> on_result)
{
    // Exactly-once submission: a key the log already holds belongs to a
    // run that is (or was) in progress — a client retrying a submit
    // that raced a master crash must not double-run the workflow.
    if (progress_log_ && !idempotency_key.empty()) {
        if (const uint64_t prior = progress_log_->submissionFor(
                idempotency_key)) {
            return prior;
        }
    }

    WorkflowState& state = stateOf(workflow);
    const auto& dag = state.wf.dag;

    auto inv = std::make_unique<engine::Invocation>();
    engine::Invocation& ref = *inv;
    ref.id = next_invocation_id_++;
    ref.wf = &state.wf;
    ref.placement = state.wf.placement;
    ref.ctl_seed = mixSeed(config_.seed, ref.id);
    ref.node_exec.assign(dag.nodeCount(), SimTime::zero());
    ref.node_skipped.assign(dag.nodeCount(), false);
    ref.node_done.assign(dag.nodeCount(), 0);
    ref.node_triggered.assign(dag.nodeCount(), 0);
    ref.node_drive_epoch.assign(dag.nodeCount(), 0);
    ref.node_output_worker.assign(dag.nodeCount(), -1);
    ref.node_ran.assign(dag.nodeCount(), 0);
    ref.node_run_epoch.assign(dag.nodeCount(), 0);
    ref.node_speculative.assign(dag.nodeCount(), 0);
    ref.node_span.assign(dag.nodeCount(), 0);
    ref.sinks_remaining = workflow::sinkNodes(dag).size();
    if (trace_.enabled()) {
        // Root of the invocation's span tree; every node span hangs off
        // it and deliverRecord closes it at the recorded finish. The
        // tenant (when submitted through admission) rides as the detail.
        ref.inv_span = trace_.openSpan(
            "invocation",
            strFormat("%s#%llu", workflow.c_str(),
                      static_cast<unsigned long long>(ref.id)),
            static_cast<int>(obs::TraceTrack::Client), sim_->now(), 0,
            tenant);
    }
    ref.record.invocation_id = ref.id;
    ref.record.workflow = workflow;
    ref.record.tenant = tenant;
    ref.record.submit = offered_at;
    ref.start_time = sim_->now();
    ref.on_complete = std::move(on_result);
    invocations_.emplace(ref.id, std::move(inv));

    if (progress_log_) {
        storage::LogRecord rec;
        rec.kind = storage::LogRecordKind::InvocationSubmitted;
        rec.invocation = ref.id;
        rec.workflow = workflow;
        rec.idempotency_key = idempotency_key;
        progress_log_->append(cluster_->storageNodeId(), std::move(rec));
    }

    // Workers already known dead cannot be dispatched to; remap this
    // invocation's sub-graph away at submission time (the detection
    // sweep only covers invocations that existed when it ran, and a
    // crash before detection is caught by that pending sweep).
    for (size_t w = 0; w < detected_down_.size(); ++w) {
        if (!detected_down_[w])
            continue;
        const int repl = pickReplacement(w);
        if (repl >= 0 && static_cast<size_t>(repl) != w) {
            ref.placement = engine::remapPlacement(
                *ref.placement, static_cast<int>(w), repl);
        }
    }

    // Timeout watchdog (§5.4): when the deadline passes first, deliver a
    // clamped record; the invocation itself drains silently afterwards.
    const uint64_t id = ref.id;
    sim_->schedule(config_.invocation_timeout, [this, id] {
        const auto it = invocations_.find(id);
        if (it == invocations_.end() || it->second->record_delivered)
            return;
        deliverRecord(*it->second, true);
    });

    if (master_down_) {
        // The submission is accepted (and durable when a log is on) but
        // nothing drives it until the master returns; restoreMaster
        // flushes these. Triggering is idempotent (node_triggered), so
        // a replay covering the same invocation is harmless.
        deferred_starts_.push_back(id);
        return id;
    }
    startInvocation(ref);
    return id;
}

void
System::startInvocation(engine::Invocation& ref)
{
    const auto& dag = ref.wf->dag;
    if (config_.control_mode == engine::ControlMode::MasterSP) {
        master_engine_->invoke(ref);
    } else {
        // The client reaches each source node's worker engine directly.
        for (const workflow::NodeId source : workflow::sourceNodes(dag)) {
            const int worker = ref.placement->workerOf(source);
            engine::WorkerEngine* eng =
                worker_engines_[static_cast<size_t>(worker)].get();
            network_->sendMessage(
                cluster_->storageNodeId(),
                cluster_->worker(static_cast<size_t>(worker)).netId(),
                config_.engine.assign_msg_bytes,
                [eng, &ref, source] { eng->startSource(ref, source); });
        }
    }
}

void
System::onSinkComplete(engine::Invocation& inv)
{
    if (master_down_) {
        // The completion facts are durable (or at least worker-held);
        // the client-facing acknowledgement waits for the master to
        // return and is flushed at restoreMaster.
        deferred_sinks_.push_back(inv.id);
        return;
    }
    if (inv.sinks_remaining == 0)
        panic("sink completion underflow for invocation %llu",
              static_cast<unsigned long long>(inv.id));
    if (--inv.sinks_remaining == 0) {
        inv.finished = true;
        finalize(inv);
    }
}

void
System::deliverRecord(engine::Invocation& inv, bool timed_out)
{
    if (inv.record_delivered)
        return;
    inv.record_delivered = true;
    inv.record.timed_out = timed_out;
    // The timeout clamp anchors at the actual start, not the offered
    // time: a deferred-then-admitted invocation still gets the full
    // execution budget (its e2e then includes the admission wait).
    inv.record.finish = timed_out
                            ? inv.start_time + config_.invocation_timeout
                            : sim_->now();
    inv.record.critical_exec =
        engine::actualCriticalExec(inv.wf->dag, inv.node_exec);
    inv.record.output_digest = engine::invocationOutputDigest(inv);
    if (inv.inv_span != 0) {
        trace_.closeSpan(inv.inv_span, inv.record.finish,
                         timed_out ? "timeout" : std::string_view{});
    }
    if (timed_out && !inv.record.tenant.empty()) {
        const auto it = tenants_.find(inv.record.tenant);
        if (it != tenants_.end())
            ++it->second.stats.timeouts;
    }
    metrics_.add(inv.record);
    // Feed the online profiler and the SLO burn-rate monitor. Plain
    // invoke() traffic (no admission tenant) reports as "default" so a
    // WDL slo: block works without a load spec.
    static const std::string kDefaultTenant = "default";
    const std::string& tenant =
        inv.record.tenant.empty() ? kDefaultTenant : inv.record.tenant;
    profile_.recordTenantCompletion(tenant, inv.record.e2e(), timed_out);
    slo_.recordCompletion(tenant, inv.record.finish, inv.record.e2e(),
                          timed_out);
    if (inv.on_complete)
        inv.on_complete(inv.record);
}

void
System::finalize(engine::Invocation& inv)
{
    deliverRecord(inv, false);

    // Release the tenant's in-flight slot and let deferred work pump.
    // This anchors at the *real* completion (not the timeout clamp), so
    // the backpressure gate tracks what the cluster is still executing.
    if (!inv.record.tenant.empty()) {
        const auto tit = tenants_.find(inv.record.tenant);
        if (tit != tenants_.end()) {
            TenantState& ts = tit->second;
            if (ts.in_flight > 0)
                --ts.in_flight;
            ++ts.stats.completed;
            armPump(inv.record.tenant, ts);
        }
    }

    if (progress_log_) {
        storage::LogRecord rec;
        rec.kind = storage::LogRecordKind::InvocationFinished;
        rec.invocation = inv.id;
        progress_log_->append(cluster_->storageNodeId(), std::move(rec));
    }

    // Drop intermediate objects and engine state (§4.2.1).
    const auto& dag = inv.wf->dag;
    for (const auto& node : dag.nodes()) {
        if (!node.isTask())
            continue;
        const std::string key = engine::dataKey(inv, node.id);
        const int worker = inv.placement->workerOf(node.id);
        stores_[static_cast<size_t>(worker)]->drop(inv.wf->name, key);
    }
    for (auto& eng : worker_engines_)
        eng->cleanup(inv.id);
    master_engine_->cleanup(inv.id);
    const auto it = invocations_.find(inv.id);
    if (faults_installed_ ||
        (progress_log_ &&
         config_.durability_mode != engine::DurabilityMode::Sync)) {
        // Keep the shell alive: a sink/state message backed off across a
        // link outage may still dereference it on late delivery (the
        // `finished` flag makes every such delivery a no-op). Batched
        // durability needs the same: the invocation can finish while its
        // last batch's ack is still in flight, and the ack callback
        // clears speculation markers through the shell.
        retired_.push_back(std::move(it->second));
    }
    invocations_.erase(it);
}

void
System::run()
{
    sim_->run();
    // Alert spans still open when the run drains close at the final
    // clock so the exported span tree validates.
    slo_.finish(sim_->now());
}

void
System::setTenantSlo(const std::string& tenant, const obs::SloSpec& spec)
{
    slo_.setSpec(tenant, spec);
}

void
System::runFor(SimTime span)
{
    sim_->runUntil(sim_->now() + span);
}

void
System::installFaults(const sim::FaultSchedule& schedule)
{
    faults_installed_ = true;
    for (const auto& event : schedule.events()) {
        switch (event.kind) {
        case sim::FaultKind::WorkerCrash: {
            if (event.worker < 0 ||
                static_cast<size_t>(event.worker) >=
                    cluster_->workerCount()) {
                fatal("fault schedule: worker %d out of range", event.worker);
            }
            const size_t w = static_cast<size_t>(event.worker);
            sim_->scheduleAt(event.at, [this, w] { crashWorker(w); });
            sim_->scheduleAt(event.at + event.duration,
                             [this, w] { restoreWorker(w); });
            // The master notices the failure after the heartbeat timeout
            // — or at the reboot announcement when the outage is shorter
            // than the timeout — and re-dispatches the lost sub-graphs.
            const SimTime detect =
                std::min(config_.recovery.detectionDelay(), event.duration);
            sim_->scheduleAt(event.at + detect,
                             [this, w] { onWorkerFailureDetected(w); });
            break;
        }
        case sim::FaultKind::LinkDown: {
            const net::NodeId nid =
                event.worker < 0
                    ? cluster_->storageNodeId()
                    : cluster_->worker(static_cast<size_t>(event.worker))
                          .netId();
            // The outage window is one "fault" span on the network
            // track; the span id crosses from the down- to the
            // up-lambda through the shared slot.
            auto span = std::make_shared<obs::SpanId>(0);
            sim_->scheduleAt(event.at, [this, nid, span] {
                network_->setLinkUp(nid, false);
                if (trace_.enabled()) {
                    *span = trace_.openSpan(
                        "fault", "link-outage",
                        static_cast<int>(obs::TraceTrack::Net),
                        sim_->now(), 0, network_->nodeName(nid));
                }
            });
            sim_->scheduleAt(event.at + event.duration, [this, nid, span] {
                network_->setLinkUp(nid, true);
                if (*span != 0)
                    trace_.closeSpan(*span, sim_->now());
            });
            break;
        }
        case sim::FaultKind::StorageBrownout: {
            // The progress log shares the storage node, so a brown-out
            // stretches its commit latency by the same factor.
            const double severity = event.severity;
            auto span = std::make_shared<obs::SpanId>(0);
            sim_->scheduleAt(event.at, [this, severity, span] {
                remote_->setDegradeFactor(severity);
                if (progress_log_)
                    progress_log_->setDegradeFactor(severity);
                if (trace_.enabled()) {
                    *span = trace_.openSpan(
                        "fault", "brownout",
                        static_cast<int>(obs::TraceTrack::Storage),
                        sim_->now(), 0, strFormat("x%.2f", severity));
                }
            });
            sim_->scheduleAt(event.at + event.duration, [this, span] {
                remote_->setDegradeFactor(1.0);
                if (progress_log_)
                    progress_log_->setDegradeFactor(1.0);
                if (*span != 0)
                    trace_.closeSpan(*span, sim_->now());
            });
            break;
        }
        case sim::FaultKind::MasterCrash: {
            sim_->scheduleAt(event.at, [this] { crashMaster(); });
            sim_->scheduleAt(event.at + event.duration,
                             [this] { restoreMaster(); });
            break;
        }
        }
    }
}

void
System::crashWorker(size_t worker)
{
    faults_installed_ = true;
    cluster::WorkerNode& node = cluster_->worker(worker);
    if (!node.alive())
        return;
    node.crash();
    stores_[worker]->onNodeCrash();
    network_->setLinkUp(node.netId(), false);
    if (progress_log_) {
        // Completion facts buffered on the worker for its next batch die
        // with the process. Under GroupCommit a NodeDone fact's batch
        // ack is the only thing that propagates the node's completion,
        // so a dropped fact is rolled back: the node is unfinished on
        // the dead worker again and detection re-drives it, even when
        // its output reached the remote store and survived the crash.
        const auto dropped = progress_log_->dropPending(node.netId());
        if (!dropped.empty()) {
            ++rstats_.rollbacks;
            rstats_.dropped_records += dropped.size();
        }
        if (config_.durability_mode == engine::DurabilityMode::GroupCommit)
            rollBackDroppedFacts(dropped);
    }
    if (trace_.enabled()) {
        // Sweep the worker's lane: whatever was mid-phase dies with the
        // node (the spans close here, marked), then open the crash
        // window so the outage is visible as a block on the same lane.
        const int track = engine::workerTrack(static_cast<int>(worker));
        trace_.closeOpenSpans(track, sim_->now(), "crashed");
        if (worker_crash_span_.size() < cluster_->workerCount())
            worker_crash_span_.resize(cluster_->workerCount(), 0);
        worker_crash_span_[worker] =
            trace_.openSpan("fault", "crash", track, sim_->now());
    }
    if (crash_time_.size() < cluster_->workerCount()) {
        crash_time_.resize(cluster_->workerCount());
        detect_pending_.resize(cluster_->workerCount(), 0);
    }
    crash_time_[worker] = sim_->now();
    detect_pending_[worker] = 1;
}

void
System::rollBackDroppedFacts(const std::vector<storage::LogRecord>& dropped)
{
    for (const storage::LogRecord& rec : dropped) {
        if (rec.kind != storage::LogRecordKind::NodeDone)
            continue;
        const auto it = invocations_.find(rec.invocation);
        if (it == invocations_.end() || it->second->finished)
            continue;
        engine::Invocation& inv = *it->second;
        const size_t idx = static_cast<size_t>(rec.node);
        if (!inv.node_done[idx])
            continue;
        inv.node_done[idx] = 0;
        inv.node_triggered[idx] = 0;
        inv.node_output_worker[idx] = -1;
        ++inv.node_drive_epoch[idx];
        ++rstats_.rolled_back_nodes;
        ++inv.record.rolled_back_nodes;
    }
}

void
System::restoreWorker(size_t worker)
{
    cluster::WorkerNode& node = cluster_->worker(worker);
    if (node.alive())
        return;
    node.setAlive(true);
    network_->setLinkUp(node.netId(), true);
    if (worker < worker_crash_span_.size() &&
        worker_crash_span_[worker] != 0) {
        trace_.closeSpan(worker_crash_span_[worker], sim_->now());
        worker_crash_span_[worker] = 0;
    }
    if (worker < detected_down_.size())
        detected_down_[worker] = 0;
}

bool
System::workerAlive(size_t worker) const
{
    return cluster_->worker(worker).alive();
}

size_t
System::engineStateEntries(uint64_t invocation_id) const
{
    size_t total = 0;
    for (const auto& eng : worker_engines_)
        total += eng->stateCount(invocation_id);
    if (master_engine_)
        total += master_engine_->stateCount(invocation_id);
    return total;
}

int
System::pickReplacement(size_t crashed) const
{
    // First alive worker scanning upward from the crashed index; the
    // crashed worker itself is considered last (it may have rebooted
    // before detection, in which case it recovers its own sub-graph).
    const size_t n = cluster_->workerCount();
    for (size_t i = 1; i <= n; ++i) {
        const size_t w = (crashed + i) % n;
        if (cluster_->worker(w).alive())
            return static_cast<int>(w);
    }
    return -1;
}

void
System::onWorkerFailureDetected(size_t worker)
{
    if (detected_down_.size() < cluster_->workerCount())
        detected_down_.resize(cluster_->workerCount(), 0);
    detected_down_[worker] = cluster_->worker(worker).alive() ? 0 : 1;
    if (worker < detect_pending_.size() && detect_pending_[worker]) {
        detect_pending_[worker] = 0;
        rstats_.detection_ms.add(
            (sim_->now() - crash_time_[worker]).millisF());
    }
    if (trace_.enabled() && !cluster_->worker(worker).alive()) {
        // The heartbeat sweep noticed the loss; recovery starts here.
        trace_.instant("recovery",
                       strFormat("detect %s",
                                 cluster_->worker(worker).name().c_str()),
                       static_cast<int>(obs::TraceTrack::Master),
                       sim_->now());
    }
    const int replacement = pickReplacement(worker);
    if (replacement < 0) {
        // Every worker is down; re-check after another heartbeat period.
        sim_->schedule(config_.recovery.heartbeat_interval,
                       [this, worker] { onWorkerFailureDetected(worker); });
        return;
    }
    for (auto& [id, inv] : invocations_) {
        if (!inv->finished)
            recoverInvocation(*inv, worker, replacement);
    }
}

void
System::recoverInvocation(engine::Invocation& inv, size_t crashed,
                          int replacement)
{
    const int crashed_w = static_cast<int>(crashed);
    const auto rerun = engine::lostNodeSet(inv, crashed_w);
    if (std::none_of(rerun.begin(), rerun.end(),
                     [](uint8_t flag) { return flag != 0; })) {
        return;  // this invocation lost nothing on the dead worker
    }

    ++rstats_.recoveries;
    ++inv.record.recoveries;
    if (trace_.enabled() && inv.inv_span != 0) {
        trace_.instant("recovery", "redrive",
                       static_cast<int>(obs::TraceTrack::Master),
                       sim_->now(), inv.inv_span);
    }

    // Move the dead worker's whole sub-graph onto the replacement (which
    // preserves the all-consumers-local invariant), invalidate the lost
    // nodes, then let the engines recount their State structures from
    // the surviving done facts and re-drive whatever became ready.
    inv.placement =
        engine::remapPlacement(*inv.placement, crashed_w, replacement);
    inv.record.redriven_nodes += engine::resetLostNodes(inv, rerun);
    if (config_.control_mode == engine::ControlMode::MasterSP) {
        master_engine_->restoreInvocation(inv);
    } else {
        for (auto& eng : worker_engines_)
            eng->restoreInvocation(inv);
    }
}

void
System::crashMaster()
{
    if (master_down_)
        return;
    faults_installed_ = true;
    master_down_ = true;
    ++rstats_.master_crashes;
    master_engine_->onMasterCrash();
    if (trace_.enabled()) {
        master_crash_span_ = trace_.openSpan(
            "fault", "master-crash",
            static_cast<int>(obs::TraceTrack::Master), sim_->now());
    }
    if (config_.control_mode != engine::ControlMode::MasterSP)
        return;

    // The master process held every live invocation's control state in
    // memory and it dies with the process. Snapshot the facts first
    // (only so restoreMaster can verify replay equality), then wipe.
    for (auto& [id, inv] : invocations_) {
        if (inv->finished)
            continue;
        if (progress_log_) {
            InvocationSnapshot snap;
            snap.node_done = inv->node_done;
            snap.switch_choice = inv->switch_choice;
            snap.node_speculative = inv->node_speculative;
            snap.switch_speculative = inv->switch_speculative;
            master_snapshots_[id] = std::move(snap);
        }
        const size_t n = inv->wf->dag.nodeCount();
        inv->node_done.assign(n, 0);
        inv->node_triggered.assign(n, 0);
        inv->node_exec.assign(n, SimTime::zero());
        inv->node_skipped.assign(n, false);
        inv->node_output_worker.assign(n, -1);
        inv->node_speculative.assign(n, 0);
        inv->switch_choice.clear();
        inv->switch_speculative.clear();
        inv->sinks_remaining = workflow::sinkNodes(inv->wf->dag).size();
        // node_ran / node_run_epoch survive deliberately: they are the
        // double-execution sentinels, not master state.
    }

    // The crash loses the master's buffered (uncommitted) log suffix:
    // facts issued but not yet handed to the WAL die with the process.
    // Whatever they described is rolled back by the restart replay.
    if (progress_log_) {
        const size_t lost =
            progress_log_->dropPending(cluster_->storageNodeId()).size();
        if (lost > 0) {
            ++rstats_.rollbacks;
            rstats_.dropped_records += lost;
        }
    }
}

void
System::restoreMaster()
{
    if (!master_down_)
        return;
    master_down_ = false;
    master_engine_->onMasterRestart();
    if (master_crash_span_ != 0) {
        trace_.closeSpan(master_crash_span_, sim_->now());
        master_crash_span_ = 0;
    }

    if (config_.control_mode == engine::ControlMode::MasterSP &&
        progress_log_) {
        // Rebuild every live invocation from the durable log, then let
        // the engine re-drive whatever is not done. Iterate over a
        // snapshot of ids: a fully-done invocation finishes (and
        // retires) from inside its own replay.
        std::vector<uint64_t> live;
        for (const auto& [id, inv] : invocations_) {
            if (!inv->finished)
                live.push_back(id);
        }
        for (const uint64_t id : live) {
            const auto it = invocations_.find(id);
            if (it == invocations_.end() || it->second->finished)
                continue;
            replayInvocation(*it->second);
        }
    }
    master_snapshots_.clear();

    // Flush work that queued up during the outage. Starting an already
    // replay-restored invocation again is safe: triggering is
    // idempotent under node_triggered.
    std::vector<uint64_t> starts;
    std::vector<uint64_t> sinks;
    starts.swap(deferred_starts_);
    sinks.swap(deferred_sinks_);
    for (const uint64_t id : starts) {
        const auto it = invocations_.find(id);
        if (it != invocations_.end() && !it->second->finished)
            startInvocation(*it->second);
    }
    for (const uint64_t id : sinks) {
        const auto it = invocations_.find(id);
        if (it != invocations_.end() && !it->second->finished)
            onSinkComplete(*it->second);
    }
}

void
System::replayInvocation(engine::Invocation& inv)
{
    const auto& dag = inv.wf->dag;
    const size_t n = dag.nodeCount();
    const storage::ReplayState rs = progress_log_->replay(inv.id, n);
    ++rstats_.master_replays;
    ++inv.record.master_recoveries;
    if (trace_.enabled() && inv.inv_span != 0) {
        trace_.instant("recovery", "replay",
                       static_cast<int>(obs::TraceTrack::Master),
                       sim_->now(), inv.inv_span);
    }

    // Replay-equality invariant over the durable prefix: commit-at-issue
    // (Sync) means the log can never lag the master's in-memory facts,
    // so the replayed state must cover the pre-crash snapshot exactly.
    // Batched modes run memory ahead of the log by the speculation
    // frontier; a frontier fact the crash lost is the *expected*
    // rollback case, so only non-frontier divergence is a mismatch. A
    // frontier fact the replay does lack is counted as a rolled-back
    // node — the wasted re-execution speculation paid.
    const auto snap_it = master_snapshots_.find(inv.id);
    if (snap_it != master_snapshots_.end()) {
        const InvocationSnapshot& snap = snap_it->second;
        for (size_t i = 0; i < n && i < snap.node_done.size(); ++i) {
            if (!snap.node_done[i] || rs.node_done[i])
                continue;
            const bool frontier = i < snap.node_speculative.size() &&
                                  snap.node_speculative[i] != 0;
            if (frontier) {
                ++rstats_.rolled_back_nodes;
                ++inv.record.rolled_back_nodes;
            } else {
                ++rstats_.replay_mismatches;
            }
        }
        for (const auto& [sw, branch] : snap.switch_choice) {
            const auto rit = rs.switch_choice.find(sw);
            if (rit != rs.switch_choice.end() && rit->second == branch)
                continue;
            if (!snap.switch_speculative.count(sw))
                ++rstats_.replay_mismatches;
        }
        master_snapshots_.erase(snap_it);
    }

    size_t redriven = 0;
    for (size_t i = 0; i < n; ++i) {
        if (rs.node_done[i]) {
            inv.node_done[i] = 1;
            inv.node_triggered[i] = 1;
            inv.node_exec[i] = rs.node_exec[i];
            inv.node_skipped[i] = rs.node_skipped[i] != 0;
            inv.node_output_worker[i] = rs.node_output_worker[i];
        } else {
            inv.node_done[i] = 0;
            inv.node_triggered[i] = 0;
            // A pre-crash in-flight execution of this node may still
            // land; the epoch bump turns its completion into a stale
            // no-op and the re-drive below runs it afresh.
            ++inv.node_drive_epoch[i];
            if (inv.node_ran[i])
                ++redriven;  // work was genuinely lost, not just pending
        }
    }
    inv.record.redriven_nodes += redriven;
    inv.switch_choice = rs.switch_choice;
    ++inv.recovery_epoch;

    const auto sinks = workflow::sinkNodes(dag);
    inv.sinks_remaining = sinks.size();
    size_t done_sinks = 0;
    for (const workflow::NodeId s : sinks) {
        if (inv.node_done[static_cast<size_t>(s)])
            ++done_sinks;
    }
    master_engine_->restoreInvocation(inv);
    for (size_t k = 0; k < done_sinks && !inv.finished; ++k)
        onSinkComplete(inv);
}

// --- Per-tenant admission control -----------------------------------------

namespace {
/** FP guard: token accrual computed from a scheduled instant can land an
 *  ulp short of a whole token. */
constexpr double kTokenEpsilon = 1e-9;
}  // namespace

void
System::setTenantPolicy(const TenantPolicy& policy)
{
    if (policy.tenant.empty())
        fatal("setTenantPolicy: policy needs a tenant name");
    TenantState& state = tenants_[policy.tenant];
    state.policy = policy;
    if (state.policy.burst < 1.0)
        state.policy.burst = 1.0;
    state.tokens = state.policy.burst;
    state.last_refill = sim_->now();
    if (!state.gauges_registered) {
        state.gauges_registered = true;
        registerTenantGauges(policy.tenant, state);
    }
}

System::TenantState&
System::tenantState(const std::string& tenant)
{
    const auto it = tenants_.find(tenant);
    if (it != tenants_.end())
        return it->second;
    // Implicit open policy: both gates disabled, everything admitted.
    // No telemetry gauges — the sampler may already be running and its
    // gauge set must stay fixed; registered tenants get gauges in
    // setTenantPolicy.
    TenantState& state = tenants_[tenant];
    state.policy.tenant = tenant;
    state.last_refill = sim_->now();
    return state;
}

void
System::registerTenantGauges(const std::string& tenant, TenantState& state)
{
    const std::string labels = strFormat("tenant=\"%s\"", tenant.c_str());
    TenantState* sp = &state;  // std::map nodes are address-stable
    telemetry_.registerGauge("faasflow_tenant_in_flight", labels, [sp] {
        return static_cast<double>(sp->in_flight);
    });
    telemetry_.registerGauge("faasflow_tenant_tokens", labels,
                             [sp] { return sp->tokens; });
    telemetry_.registerGauge("faasflow_tenant_deferred", labels, [sp] {
        return static_cast<double>(sp->deferred.size());
    });
    telemetry_.registerGauge("faasflow_tenant_shed_total", labels, [sp] {
        return static_cast<double>(sp->stats.shed);
    });
}

void
System::refillTokens(TenantState& state)
{
    const SimTime now = sim_->now();
    if (state.policy.rate_per_s > 0.0) {
        const double dt = (now - state.last_refill).secondsF();
        if (dt > 0.0) {
            state.tokens = std::min(state.policy.burst,
                                    state.tokens +
                                        dt * state.policy.rate_per_s);
        }
    }
    state.last_refill = now;
}

System::SubmitOutcome
System::submit(const std::string& workflow, const std::string& tenant,
               std::function<void(const engine::InvocationRecord&)> on_result)
{
    TenantState& state = tenantState(tenant);
    ++state.stats.offered;
    profile_.recordTenantArrival(tenant);
    refillTokens(state);

    const bool rate_limited = state.policy.rate_per_s > 0.0;
    const bool depth_ok =
        state.policy.max_in_flight <= 0 ||
        state.in_flight <
            static_cast<uint64_t>(state.policy.max_in_flight);
    const bool tokens_ok =
        !rate_limited || state.tokens + kTokenEpsilon >= 1.0;

    // FIFO fairness: while older arrivals sit in the defer queue a new
    // one must not jump past them even if the gates happen to be open.
    if (depth_ok && tokens_ok && state.deferred.empty()) {
        if (rate_limited)
            state.tokens = std::max(0.0, state.tokens - 1.0);
        ++state.stats.admitted;
        ++state.in_flight;
        const uint64_t id =
            invokeInternal(workflow, std::string(), tenant, sim_->now(),
                           std::move(on_result));
        return SubmitOutcome{SubmitOutcome::Status::Admitted, id};
    }

    const bool queue_full =
        state.deferred.size() >=
        static_cast<size_t>(std::max(0, state.policy.max_deferred));
    if (!state.policy.defer || queue_full) {
        ++state.stats.shed;
        if (queue_full && state.policy.defer)
            ++state.stats.shed_queue_full;
        else if (!depth_ok)
            ++state.stats.shed_depth;
        else
            ++state.stats.shed_rate;
        return SubmitOutcome{SubmitOutcome::Status::Shed, 0};
    }

    ++state.stats.deferred;
    state.deferred.push_back(
        TenantState::Pending{workflow, sim_->now(), std::move(on_result)});
    armPump(tenant, state);
    return SubmitOutcome{SubmitOutcome::Status::Deferred, 0};
}

void
System::armPump(const std::string& tenant, TenantState& state)
{
    if (state.pump_scheduled || state.deferred.empty())
        return;
    if (state.policy.max_in_flight > 0 &&
        state.in_flight >=
            static_cast<uint64_t>(state.policy.max_in_flight)) {
        return;  // blocked on depth: the next finalize re-arms
    }
    SimTime delay = SimTime::zero();
    if (state.policy.rate_per_s > 0.0 &&
        state.tokens + kTokenEpsilon < 1.0) {
        // Wake exactly when the missing fraction of a token accrues.
        delay = SimTime::seconds((1.0 - state.tokens) /
                                 state.policy.rate_per_s) +
                SimTime::micros(1);
    }
    state.pump_scheduled = true;
    sim_->schedule(delay, [this, tenant] { pumpTenant(tenant); });
}

void
System::pumpTenant(const std::string& tenant)
{
    const auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        return;
    TenantState& state = it->second;
    state.pump_scheduled = false;
    refillTokens(state);
    while (!state.deferred.empty()) {
        if (state.policy.max_in_flight > 0 &&
            state.in_flight >=
                static_cast<uint64_t>(state.policy.max_in_flight)) {
            return;  // the next finalize pumps again
        }
        const bool rate_limited = state.policy.rate_per_s > 0.0;
        if (rate_limited && state.tokens + kTokenEpsilon < 1.0) {
            armPump(tenant, state);
            return;
        }
        TenantState::Pending pending = std::move(state.deferred.front());
        state.deferred.pop_front();
        if (rate_limited)
            state.tokens = std::max(0.0, state.tokens - 1.0);
        ++state.stats.admitted;
        ++state.in_flight;
        state.stats.defer_wait_ms.add(
            (sim_->now() - pending.offered).millisF());
        // The offered time rides along as record.submit, so the e2e the
        // metrics see includes the admission wait.
        invokeInternal(pending.workflow, std::string(), tenant,
                       pending.offered, std::move(pending.on_result));
    }
}

const TenantAdmissionStats&
System::admissionStats(const std::string& tenant) const
{
    static const TenantAdmissionStats empty;
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? empty : it->second.stats;
}

std::vector<std::string>
System::admissionTenants() const
{
    std::vector<std::string> out;
    for (const auto& [name, state] : tenants_)
        out.push_back(name);
    return out;
}

size_t
System::tenantInFlight(const std::string& tenant) const
{
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0
                                : static_cast<size_t>(it->second.in_flight);
}

size_t
System::tenantDeferred(const std::string& tenant) const
{
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second.deferred.size();
}

double
System::workerEngineUtilisation(size_t worker) const
{
    return worker_engines_[worker]->cpuUsage();
}

int64_t
System::workerEngineMemory(size_t worker) const
{
    return worker_engines_[worker]->memoryFootprint();
}

}  // namespace faasflow
