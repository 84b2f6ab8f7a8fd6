#ifndef FAASFLOW_FAASFLOW_SYSTEM_H_
#define FAASFLOW_FAASFLOW_SYSTEM_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/master_engine.h"
#include "engine/metrics.h"
#include "engine/types.h"
#include "engine/worker_engine.h"
#include "faasflow/admission.h"
#include "faasflow/config.h"
#include "obs/profile.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/fault_schedule.h"
#include "workflow/wdl.h"

namespace faasflow {

/**
 * The top-level facade: one simulated serverless-workflow deployment.
 *
 * Owns the simulator, network, cluster, stores, engines and the Graph
 * Scheduler; exposes workflow deployment, invocation, feedback-driven
 * repartitioning (with red-black container recycling), and metrics.
 *
 * Typical use:
 *
 *   System system(SystemConfig::faasflowFaastore());
 *   system.registerFunctions(wdl.functions);
 *   system.deploy(std::move(wdl.dag));
 *   system.invoke("my-flow", [](const engine::InvocationRecord& r) { ... });
 *   system.run();
 */
class System
{
  public:
    explicit System(SystemConfig config);
    ~System();

    System(const System&) = delete;
    System& operator=(const System&) = delete;

    /** Registers function specs (usually from a parsed WDL document). */
    void registerFunctions(const std::vector<cluster::FunctionSpec>& specs);

    /**
     * Deploys a workflow with the first-iteration hash placement
     * (§4.1.2). Returns the workflow name.
     */
    std::string deploy(workflow::Dag dag);

    /** Deploys with an explicit placement (tests/ablations). */
    std::string deploy(workflow::Dag dag, scheduler::Placement placement);

    /**
     * Runs one partition iteration for a deployed workflow: Algorithm 1
     * over the collected runtime feedback, followed by a red-black
     * switch (stale containers recycled, FaaStore pools resized).
     */
    void repartition(const std::string& workflow);

    /**
     * Submits an invocation. `on_result` fires exactly once: at
     * completion, or at the execution timeout with a clamped record.
     */
    uint64_t invoke(const std::string& workflow,
                    std::function<void(const engine::InvocationRecord&)>
                        on_result = nullptr);

    /**
     * Submits with a client idempotency key. With a durable progress
     * log, a retried submit under a key that was already logged returns
     * the original invocation id without starting a second run — the
     * exactly-once submission contract a client retry loop relies on.
     */
    uint64_t invoke(const std::string& workflow,
                    const std::string& idempotency_key,
                    std::function<void(const engine::InvocationRecord&)>
                        on_result = nullptr);

    /**
     * Registers (or replaces) a tenant's admission policy. Must be
     * called before the tenant's first submit(); per-tenant telemetry
     * gauges are registered here, so call before startTelemetry() too.
     */
    void setTenantPolicy(const TenantPolicy& policy);

    /** Outcome of one admission decision. */
    struct SubmitOutcome
    {
        enum class Status { Admitted, Deferred, Shed };
        Status status = Status::Admitted;
        /** Invocation id when admitted immediately; 0 otherwise (a
         *  deferred arrival gets its id when admission lets it start). */
        uint64_t invocation_id = 0;
    };

    /**
     * Submits through the per-tenant admission path: the token bucket
     * and the in-flight gate of the tenant's policy decide, and a
     * rejected arrival is shed or deferred per the policy. A deferred
     * arrival keeps its offered time as record.submit, so its eventual
     * e2e latency includes the admission wait. An unknown tenant is
     * admitted unconditionally under an implicit open policy.
     */
    SubmitOutcome submit(const std::string& workflow,
                         const std::string& tenant,
                         std::function<void(const engine::InvocationRecord&)>
                             on_result = nullptr);

    /** Admission counters for one tenant (zeros for unknown tenants). */
    const TenantAdmissionStats& admissionStats(
        const std::string& tenant) const;

    /** Registered + implicitly-seen tenants, sorted by name. */
    std::vector<std::string> admissionTenants() const;

    /** Admitted-but-unfinished invocations of one tenant. */
    size_t tenantInFlight(const std::string& tenant) const;

    /** Deferred arrivals currently queued for one tenant. */
    size_t tenantDeferred(const std::string& tenant) const;

    /** Drives the simulation until no events remain. */
    void run();

    /** Drives the simulation for a fixed span of simulated time. */
    void runFor(SimTime span);

    /**
     * Schedules every event of a fault schedule on the simulator: worker
     * crashes (with heartbeat-delay failure detection and sub-graph
     * re-dispatch), link outages, and storage brown-outs. Call before
     * run(); two Systems built with the same config/seed and the same
     * schedule replay identically.
     */
    void installFaults(const sim::FaultSchedule& schedule);

    /**
     * Fault primitive: kills a worker now. Containers, queued core
     * grants and the node-local FaaStore memory are lost and the node's
     * link drops. Recovery starts when the failure is *detected* — after
     * the heartbeat timeout, or at reboot, whichever comes first —
     * which installFaults schedules; direct callers drive detection via
     * onWorkerFailureDetected or simply restoreWorker.
     */
    void crashWorker(size_t worker);

    /** Fault primitive: boots a crashed worker back up (cold pools). */
    void restoreWorker(size_t worker);

    /**
     * Fault primitive: the master engine process dies. In MasterSP mode
     * every live invocation's volatile state (completion facts, trigger
     * counters, switch choices) is lost with it; with a durable
     * progress log the state is rebuilt by replay at restoreMaster,
     * without one the invocations hang until their timeout. WorkerSP
     * loses only undelivered sink notifications, which are deferred and
     * flushed at restart — the paper's decentralization argument.
     */
    void crashMaster();

    /** Fault primitive: restarts the master engine; replays the log
     *  (MasterSP + durable log) and flushes deferred work. */
    void restoreMaster();

    bool masterAlive() const { return !master_down_; }

    /**
     * The master noticed a dead worker: remaps every live invocation's
     * lost sub-graph onto a surviving worker and re-drives it. Safe to
     * call when nothing was lost (no-op per unaffected invocation).
     */
    void onWorkerFailureDetected(size_t worker);

    bool workerAlive(size_t worker) const;

    /** Recovery/durability observability (faasflow_run --stats and the
     *  chaos campaign's invariants). */
    struct RecoveryStats
    {
        /** Worker-failure recovery passes that touched an invocation. */
        uint64_t recoveries = 0;
        uint64_t master_crashes = 0;
        /** Per-invocation log replays performed at master restarts. */
        uint64_t master_replays = 0;
        /** Replayed-log state diverging from the pre-crash in-memory
         *  state (invariant: 0 — commit-at-issue makes the durable
         *  prefix exact, and batched modes exclude the speculation
         *  frontier, whose loss is a rollback, not a mismatch). */
        uint64_t replay_mismatches = 0;
        /** Crashes that actually lost buffered (uncommitted) log
         *  records — each one triggered a speculation rollback. */
        uint64_t rollbacks = 0;
        /** Buffered records lost across those crashes. */
        uint64_t dropped_records = 0;
        /** Speculated nodes unwound and re-driven from the last durable
         *  prefix (the wasted re-executions speculation paid). */
        uint64_t rolled_back_nodes = 0;
        /** Worker-crash detection-to-recovery latency (ms). */
        Summary detection_ms;
    };

    const RecoveryStats& recoveryStats() const { return rstats_; }

    /** The durable progress log; null unless config.durable_log. */
    storage::ProgressLog* progressLog() { return progress_log_.get(); }

    /** Invocation-recovery passes performed since construction. */
    uint64_t recoveriesPerformed() const { return rstats_.recoveries; }

    /** Live State entries an invocation still holds across all engines
     *  (leak checks: must be 0 once the invocation finished). */
    size_t engineStateEntries(uint64_t invocation_id) const;

    sim::Simulator& simulator() { return *sim_; }
    net::Network& network() { return *network_; }
    cluster::Cluster& cluster() { return *cluster_; }
    cluster::FunctionRegistry& registry() { return registry_; }
    storage::RemoteStore& remoteStore() { return *remote_; }
    storage::FaaStore& store(size_t worker) { return *stores_[worker]; }
    engine::MetricsCollector& metrics() { return metrics_; }
    scheduler::GraphScheduler& graphScheduler() { return *graph_scheduler_; }
    const SystemConfig& config() const { return config_; }

    const engine::DeployedWorkflow& deployed(const std::string& name) const;
    scheduler::RuntimeFeedback& feedback(const std::string& name);

    /** Activity recorder; call trace().enable() before invoking to
     *  collect Chrome-trace timelines of every span. */
    obs::TraceRecorder& trace() { return trace_; }

    /** Resource-telemetry sampler: per-worker core/memory/container and
     *  NIC gauges plus storage-node depth, on the configured cadence.
     *  Gauges are registered at construction; nothing samples until
     *  startTelemetry(). */
    obs::TelemetrySampler& telemetry() { return telemetry_; }

    /** Arms the sampler (first sample now, then every
     *  config.telemetry_interval while events remain). */
    void startTelemetry();

    /**
     * Online profile store (DESIGN.md §10.5): per-node exec/queue/
     * coldstart/sched and per-edge bytes/latency cost histograms,
     * streamed from the engines while a run is in flight. Owned and
     * wired at construction; records nothing until enabled (via
     * config.profile_enabled or profile().enable()).
     */
    obs::ProfileStore& profile() { return profile_; }
    const obs::ProfileStore& profile() const { return profile_; }

    /** Multi-window SLO burn-rate monitor; tenants registered via
     *  setTenantSlo. Alerts are spans on the Client trace track. */
    obs::SloMonitor& sloMonitor() { return slo_; }
    const obs::SloMonitor& sloMonitor() const { return slo_; }

    /** Registers a tenant's SLO (deadline, miss budget, burn windows).
     *  Completions of that tenant — and of the implicit "default"
     *  tenant for plain invoke() — then feed the burn-rate monitor. */
    void setTenantSlo(const std::string& tenant, const obs::SloSpec& spec);

    /** Per-worker engine utilisation/footprint (§5.7), in both control
     *  modes: under MasterSP the worker's engine serves the dispatches
     *  the master assigns to it. */
    double workerEngineUtilisation(size_t worker) const;
    int64_t workerEngineMemory(size_t worker) const;

    /** Live invocations (for load-shedding checks in tests). */
    size_t inFlight() const { return invocations_.size(); }

  private:
    struct WorkflowState
    {
        engine::DeployedWorkflow wf;
        scheduler::RuntimeFeedback feedback;
    };

    SystemConfig config_;
    cluster::FunctionRegistry registry_;
    std::unique_ptr<sim::Simulator> sim_;
    std::unique_ptr<net::Network> network_;
    std::unique_ptr<cluster::Cluster> cluster_;
    std::unique_ptr<storage::RemoteStore> remote_;
    std::vector<std::unique_ptr<storage::FaaStore>> stores_;
    std::unique_ptr<storage::ProgressLog> progress_log_;
    std::unique_ptr<engine::RuntimeContext> ctx_;

    // One engine per worker, for both control patterns, and the
    // MasterSP central engine.
    std::vector<std::unique_ptr<engine::WorkerEngine>> worker_engines_;
    std::unique_ptr<engine::MasterEngine> master_engine_;

    std::unique_ptr<scheduler::GraphScheduler> graph_scheduler_;
    std::map<std::string, std::unique_ptr<WorkflowState>> workflows_;
    std::map<uint64_t, std::unique_ptr<engine::Invocation>> invocations_;
    engine::MetricsCollector metrics_;
    obs::TraceRecorder trace_;
    obs::TelemetrySampler telemetry_;
    obs::ProfileStore profile_;
    obs::SloMonitor slo_;
    Rng rng_;
    uint64_t next_invocation_id_ = 1;

    /** Set once faults are possible; finished invocations then retire to
     *  `retired_` instead of being freed, so control messages that were
     *  backed off across an outage still find their Invocation alive. */
    bool faults_installed_ = false;
    std::vector<std::unique_ptr<engine::Invocation>> retired_;
    RecoveryStats rstats_;
    /** Workers the master currently believes dead (set at detection,
     *  cleared at reboot); new invocations are routed around them. */
    std::vector<uint8_t> detected_down_;

    /** Open "fault" crash-window spans, one slot per worker (0 = none);
     *  opened at crashWorker, closed at restoreWorker. */
    std::vector<obs::SpanId> worker_crash_span_;
    /** Open master crash-window span (0 = none). */
    obs::SpanId master_crash_span_ = 0;

    /** Master-failover state. */
    bool master_down_ = false;
    /** Crash instants + pending-detection flags per worker (feeds the
     *  detection-to-recovery latency summary). */
    std::vector<SimTime> crash_time_;
    std::vector<uint8_t> detect_pending_;
    /** Work that arrived while the master was down, flushed at
     *  restoreMaster: submissions to start and sink completions to
     *  acknowledge (WorkerSP keeps executing through the outage). */
    std::vector<uint64_t> deferred_starts_;
    std::vector<uint64_t> deferred_sinks_;
    /** Pre-crash in-memory facts, kept only to verify the replayed-log
     *  state equals them (the chaos campaign's replay invariant). */
    struct InvocationSnapshot
    {
        std::vector<uint8_t> node_done;
        std::map<int, int> switch_choice;
        /** Frontier at crash time: facts issued to the log but not yet
         *  acked durable. Replay equality must not require them — their
         *  loss is the speculation rollback, not a mismatch. */
        std::vector<uint8_t> node_speculative;
        std::map<int, uint8_t> switch_speculative;
    };
    std::map<uint64_t, InvocationSnapshot> master_snapshots_;

    /** Admission-control state for one tenant (stable address: the
     *  telemetry gauges registered in setTenantPolicy point into it). */
    struct TenantState
    {
        TenantPolicy policy;
        double tokens = 0.0;
        SimTime last_refill;
        uint64_t in_flight = 0;
        struct Pending
        {
            std::string workflow;
            SimTime offered;
            std::function<void(const engine::InvocationRecord&)> on_result;
        };
        std::deque<Pending> deferred;
        bool pump_scheduled = false;
        bool gauges_registered = false;
        TenantAdmissionStats stats;
    };

    std::map<std::string, TenantState> tenants_;

    TenantState& tenantState(const std::string& tenant);
    void refillTokens(TenantState& state);
    /** Admits deferred arrivals while the gates allow; re-arms itself
     *  at the exact token-accrual instant when rate-limited. */
    void pumpTenant(const std::string& tenant);
    /** Schedules a pump when deferred work could be admitted soon. */
    void armPump(const std::string& tenant, TenantState& state);
    void registerTenantGauges(const std::string& tenant,
                              TenantState& state);
    uint64_t invokeInternal(
        const std::string& workflow, const std::string& idempotency_key,
        const std::string& tenant, SimTime offered_at,
        std::function<void(const engine::InvocationRecord&)> on_result);

    int pickReplacement(size_t crashed) const;
    void recoverInvocation(engine::Invocation& inv, size_t crashed,
                           int replacement);
    /** GroupCommit worker crash: unwinds each live node whose NodeDone
     *  fact died unflushed, so detection re-drives it. */
    void rollBackDroppedFacts(const std::vector<storage::LogRecord>& dropped);
    void allocateStorePools(WorkflowState& state);
    void onSinkComplete(engine::Invocation& inv);
    void finalize(engine::Invocation& inv);
    void deliverRecord(engine::Invocation& inv, bool timed_out);
    void startInvocation(engine::Invocation& inv);
    void replayInvocation(engine::Invocation& inv);
    std::vector<int> workerCapacities() const;
    WorkflowState& stateOf(const std::string& workflow);
    void registerTelemetryGauges();
};

}  // namespace faasflow

#endif  // FAASFLOW_FAASFLOW_SYSTEM_H_
