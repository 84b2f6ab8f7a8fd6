#include "engine/metrics.h"

#include "common/string_util.h"
#include "workflow/analysis.h"

namespace faasflow::engine {

SimTime
actualCriticalExec(const workflow::Dag& dag,
                   const std::vector<SimTime>& node_exec)
{
    const auto order = workflow::topoOrder(dag);
    std::vector<SimTime> dist(dag.nodeCount(), SimTime::zero());
    SimTime best;
    for (const workflow::NodeId id : order) {
        const size_t i = static_cast<size_t>(id);
        dist[i] += node_exec[i];
        best = std::max(best, dist[i]);
        for (size_t e : dag.outEdges(id)) {
            const size_t j = static_cast<size_t>(dag.edge(e).to);
            dist[j] = std::max(dist[j], dist[i]);
        }
    }
    return best;
}

void
MetricsCollector::add(const InvocationRecord& record)
{
    PerWorkflow& pw = per_workflow_[record.workflow];
    pw.e2e_ms.add(record.e2e().millisF());
    pw.overhead_ms.add(record.schedOverhead().millisF());
    pw.data_latency_s.add(record.data_latency.secondsF());
    pw.bytes_moved.add(static_cast<double>(record.bytesMoved()));
    pw.bytes_remote.add(static_cast<double>(record.bytes_via_remote));
    pw.bytes_local.add(static_cast<double>(record.bytes_via_local));
    pw.exec_total_ms.add(record.exec_total.millisF());
    pw.container_wait_ms.add(record.container_wait.millisF());
    if (record.timed_out)
        ++pw.timeouts;
    pw.cold_starts += record.cold_starts;
    pw.recoveries += record.recoveries;
    pw.retries += record.retries;
    pw.redriven_nodes += record.redriven_nodes;
    pw.duplicate_executions += record.duplicate_executions;
    pw.rolled_back_nodes += record.rolled_back_nodes;
    if (!record.tenant.empty())
        per_tenant_[record.tenant].add(record.e2e().millisF());
}

uint64_t
invocationOutputDigest(const Invocation& inv)
{
    uint64_t h = kFnv1aBasis;
    const auto byte = [&h](uint8_t b) { h = fnv1aStep(h, b); };
    const auto word = [&h](uint64_t v) { h = fnv1aFoldWord(h, v); };

    const auto& output_bytes = inv.wf->index.output_bytes;
    for (size_t i = 0; i < output_bytes.size(); ++i) {
        word(static_cast<uint64_t>(i));
        byte(inv.node_done[i] ? 1 : 0);
        byte(inv.node_skipped[i] ? 1 : 0);
        word(inv.node_done[i] && !inv.node_skipped[i]
                 ? static_cast<uint64_t>(output_bytes[i])
                 : 0);
    }
    for (const auto& [sw, branch] : inv.switch_choice) {
        word(static_cast<uint64_t>(static_cast<uint32_t>(sw)));
        word(static_cast<uint64_t>(static_cast<uint32_t>(branch)));
    }
    return h;
}

const MetricsCollector::PerWorkflow&
MetricsCollector::get(const std::string& workflow) const
{
    const auto it = per_workflow_.find(workflow);
    return it == per_workflow_.end() ? empty_ : it->second;
}

size_t
MetricsCollector::count(const std::string& workflow) const
{
    return get(workflow).e2e_ms.count();
}

const Percentiles&
MetricsCollector::e2e(const std::string& workflow) const
{
    return get(workflow).e2e_ms;
}

const Percentiles&
MetricsCollector::schedOverhead(const std::string& workflow) const
{
    return get(workflow).overhead_ms;
}

const Percentiles&
MetricsCollector::dataLatency(const std::string& workflow) const
{
    return get(workflow).data_latency_s;
}

double
MetricsCollector::meanBytesMoved(const std::string& workflow) const
{
    return get(workflow).bytes_moved.mean();
}

double
MetricsCollector::meanBytesRemote(const std::string& workflow) const
{
    return get(workflow).bytes_remote.mean();
}

double
MetricsCollector::meanBytesLocal(const std::string& workflow) const
{
    return get(workflow).bytes_local.mean();
}

double
MetricsCollector::meanExecTotal(const std::string& workflow) const
{
    return get(workflow).exec_total_ms.mean();
}

double
MetricsCollector::meanContainerWait(const std::string& workflow) const
{
    return get(workflow).container_wait_ms.mean();
}

uint64_t
MetricsCollector::timeouts(const std::string& workflow) const
{
    return get(workflow).timeouts;
}

uint64_t
MetricsCollector::coldStarts(const std::string& workflow) const
{
    return get(workflow).cold_starts;
}

uint64_t
MetricsCollector::recoveries(const std::string& workflow) const
{
    return get(workflow).recoveries;
}

uint64_t
MetricsCollector::retries(const std::string& workflow) const
{
    return get(workflow).retries;
}

uint64_t
MetricsCollector::redrivenNodes(const std::string& workflow) const
{
    return get(workflow).redriven_nodes;
}

uint64_t
MetricsCollector::duplicateExecutions(const std::string& workflow) const
{
    return get(workflow).duplicate_executions;
}

uint64_t
MetricsCollector::rolledBackNodes(const std::string& workflow) const
{
    return get(workflow).rolled_back_nodes;
}

std::vector<std::string>
MetricsCollector::workflows() const
{
    std::vector<std::string> out;
    for (const auto& [name, pw] : per_workflow_)
        out.push_back(name);
    return out;
}

size_t
MetricsCollector::tenantCount(const std::string& tenant) const
{
    return tenantE2e(tenant).count();
}

const Percentiles&
MetricsCollector::tenantE2e(const std::string& tenant) const
{
    const auto it = per_tenant_.find(tenant);
    return it == per_tenant_.end() ? empty_tenant_ : it->second;
}

void
MetricsCollector::clear()
{
    per_workflow_.clear();
    per_tenant_.clear();
}

}  // namespace faasflow::engine
