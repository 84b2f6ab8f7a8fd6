#ifndef FAASFLOW_ENGINE_METRICS_H_
#define FAASFLOW_ENGINE_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "engine/types.h"

namespace faasflow::engine {

/**
 * Computes an invocation's critical-path execution time from the actual
 * sampled durations: the longest path through the DAG where each node
 * costs what it really executed for (0 for virtual/skipped nodes) and
 * edges cost nothing. This is the §2.3 baseline that is subtracted from
 * end-to-end latency to obtain scheduling overhead.
 */
SimTime actualCriticalExec(const workflow::Dag& dag,
                           const std::vector<SimTime>& node_exec);

/**
 * Order-independent FNV-1a digest over an invocation's observable
 * outputs: per-node done/skip flags, the size of each done node's saved
 * object (DagIndex::output_bytes), and the switch choices. Objects are modelled by size alone, so
 * there are no payload bodies to fold.
 * Timing (exec durations, latencies) and at-least-once artifacts
 * (functions_executed, retries) are deliberately excluded, so a run
 * that absorbed faults digests equal to its fault-free golden twin iff
 * it produced byte-identical final outputs.
 */
uint64_t invocationOutputDigest(const Invocation& inv);

/**
 * Aggregates InvocationRecords per workflow for the evaluation harness:
 * e2e/overhead/data-latency distributions and byte counters. Records
 * that carry a tenant (the admission path) additionally feed that
 * tenant's e2e distribution; its shed and timeout counts live in the
 * admission stats (TenantAdmissionStats), not here.
 */
class MetricsCollector
{
  public:
    void add(const InvocationRecord& record);

    size_t count(const std::string& workflow) const;

    /** End-to-end latency distribution (ms). */
    const Percentiles& e2e(const std::string& workflow) const;

    /** Scheduling overhead distribution (ms). */
    const Percentiles& schedOverhead(const std::string& workflow) const;

    /** Data movement latency distribution (s, Table 4). */
    const Percentiles& dataLatency(const std::string& workflow) const;

    double meanBytesMoved(const std::string& workflow) const;

    /** Mean per-invocation execution-time sum / container-wait sum (ms). */
    double meanExecTotal(const std::string& workflow) const;
    double meanContainerWait(const std::string& workflow) const;

    double meanBytesRemote(const std::string& workflow) const;
    double meanBytesLocal(const std::string& workflow) const;
    uint64_t timeouts(const std::string& workflow) const;
    uint64_t coldStarts(const std::string& workflow) const;

    /** Fault-recovery passes absorbed by this workflow's invocations. */
    uint64_t recoveries(const std::string& workflow) const;

    /** Transparent execution retries across all invocations. */
    uint64_t retries(const std::string& workflow) const;

    /** Nodes re-driven by recovery or master-failover replay. */
    uint64_t redrivenNodes(const std::string& workflow) const;

    /** Same-drive-epoch double executions (invariant: 0). */
    uint64_t duplicateExecutions(const std::string& workflow) const;

    /** Speculated nodes rolled back (unwound + re-driven) after a crash
     *  lost their uncommitted completion facts. */
    uint64_t rolledBackNodes(const std::string& workflow) const;

    std::vector<std::string> workflows() const;

    /** Admitted completions recorded for `tenant`. */
    size_t tenantCount(const std::string& tenant) const;

    /** Admitted-work end-to-end latency distribution for `tenant` (ms);
     *  includes deferred-admission wait (submit is the offered time). */
    const Percentiles& tenantE2e(const std::string& tenant) const;

    /** Forgets every aggregate (measured-window start). */
    void clear();

  private:
    struct PerWorkflow
    {
        Percentiles e2e_ms;
        Percentiles overhead_ms;
        Percentiles data_latency_s;
        Summary bytes_moved;
        Summary bytes_remote;
        Summary bytes_local;
        Summary exec_total_ms;
        Summary container_wait_ms;
        uint64_t timeouts = 0;
        uint64_t cold_starts = 0;
        uint64_t recoveries = 0;
        uint64_t retries = 0;
        uint64_t redriven_nodes = 0;
        uint64_t duplicate_executions = 0;
        uint64_t rolled_back_nodes = 0;
    };

    std::map<std::string, PerWorkflow> per_workflow_;
    /** Per-tenant e2e distribution (ms). */
    std::map<std::string, Percentiles> per_tenant_;
    PerWorkflow empty_;
    Percentiles empty_tenant_;

    const PerWorkflow& get(const std::string& workflow) const;
};

}  // namespace faasflow::engine

#endif  // FAASFLOW_ENGINE_METRICS_H_
