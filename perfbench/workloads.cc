#include "workloads.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "benchmarks/specs.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "faasflow/client.h"
#include "faasflow/system.h"
#include "load/arrival.h"
#include "load/autoscaler.h"
#include "load/spec.h"
#include "obs/attribution.h"
#include "obs/trace_model.h"
#include "replay.h"
#include "workflow/dagen.h"
#include "workflow/wdl.h"
#include "yamllite/yaml.h"

namespace perfbench {

using namespace faasflow;

namespace {

using Clock = std::chrono::steady_clock;

// Input sizes. A full window is a fixed input whose simulation takes
// 0.3 to 1.5 s of host time on an Intel Xeon 4-vCPU host, so a run holds
// many windows and reports their median.
constexpr int kMontageNodes = 2000;
constexpr size_t kMontageWarmup = 1;
constexpr size_t kMontageInvocations = 4;
constexpr size_t kSweepWarmup = 2;
constexpr size_t kSweepInvocationsPerCell = 256;
constexpr double kSweepRatePerMin = 6.0;

/**
 * At 6/min, HyperFlow's Gen cell at 25 MB/s is overloaded: its backlog,
 * and with it the cell's host time, swings +-40% with the arrival draw
 * while every other cell stays within 3%. So the sweep's arrival trains
 * are fixed and the workload seed drives the Systems.
 */
constexpr uint64_t kSweepArrivalSeed = 1;
constexpr int64_t kTenantsHorizonMs = 7200000;

/**
 * The Montage DAG is examples/montage_2k.yaml's (generator seed 7) at
 * every workload seed, which drives the System instead (execution-time
 * jitter, control-flow seeds). The generator draws only four cost
 * classes, so the DAG seed alone moves simulated latency by +-25% and
 * host time by +-20%: a per-seed DAG would bury any change under input
 * variance.
 */
constexpr uint64_t kMontageDagSeed = 7;

/** Simulated time per drive slice; the wall-clock budget is checked
 *  between slices. */
constexpr SimTime kSlice = SimTime::seconds(10);

/**
 * The three tenants of examples/load_scenario.yaml (same workflow, same
 * arrival and admission blocks) over a horizon the benchmark sets.
 */
std::string
tenantsYaml(int64_t horizon_ms)
{
    return R"(name: thumbnail-pipeline
functions:
  - name: fetch
    exec_ms: 80
    mem_mb: 256
  - name: resize
    exec_ms: 200
    mem_mb: 512
  - name: watermark
    exec_ms: 120
    mem_mb: 256
  - name: store
    exec_ms: 60
    mem_mb: 256
steps:
  - task: fetch
    output_mb: 4
  - parallel:
      branches:
        - steps:
            - task: resize
              output_mb: 2
        - steps:
            - task: watermark
              output_mb: 2
  - task: store
load:
  horizon_ms: )" + std::to_string(horizon_ms) + R"(
  autoscale: true
  tenants:
    - name: interactive
      arrival: {process: poisson, rate_per_min: 90}
      admission: {policy: shed, rate_per_s: 1.5, burst: 5}
    - name: batch
      arrival: {process: bursty, rate_per_min: 300, on_ms: 4000, off_ms: 12000}
      admission: {policy: defer, rate_per_s: 1.0, burst: 2, max_deferred: 64}
    - name: background
      arrival: {process: ramp, rate_per_min: 60, base_rate_per_min: 6, period_ms: 30000}
)";
}

/**
 * Drives the simulation until no events remain, in slices of simulated
 * time, so a run that never drains (an event source that keeps re-arming)
 * overruns the budget instead of hanging the benchmark. Returns false on
 * overrun. The final System::run() only closes the run (SLO alert spans).
 */
bool
drive(System& system, Clock::time_point deadline)
{
    while (system.simulator().pendingEvents() > 0) {
        system.runFor(kSlice);
        if (Clock::now() > deadline)
            return false;
    }
    system.run();
    return true;
}

/** The measured submissions of one System and the records they returned. */
struct Recorder
{
    std::vector<engine::InvocationRecord> records;
    uint64_t offered = 0;
    uint64_t shed = 0;

    std::function<void(const engine::InvocationRecord&)>
    sink()
    {
        return [this](const engine::InvocationRecord& record) {
            records.push_back(record);
        };
    }
};

/** What a workload builds before any System exists. */
struct Built
{
    workflow::Dag dag;
    std::vector<cluster::FunctionSpec> functions;
    load::LoadSpec load;
};

/** The measured load of one System. */
class Load
{
  public:
    virtual ~Load() = default;
    /** Schedules (or submits) the measured arrivals. */
    virtual void start(System& system, const std::string& workflow,
                       const Built& built, Recorder& recorder) = 0;
    /** Adds the load generator's own counters to the window. */
    virtual void collect(Window&) const {}
};

/** One invocation in flight: the next is submitted when one returns. */
class ClosedLoop : public Load
{
  public:
    explicit ClosedLoop(size_t invocations) : target_(invocations) {}

    void
    start(System& system, const std::string& workflow, const Built&,
          Recorder& recorder) override
    {
        system_ = &system;
        workflow_ = workflow;
        recorder_ = &recorder;
        next();
    }

  private:
    size_t target_;
    System* system_ = nullptr;
    std::string workflow_;
    Recorder* recorder_ = nullptr;

    void
    next()
    {
        ++recorder_->offered;
        system_->invoke(workflow_,
                        [this](const engine::InvocationRecord& record) {
                            recorder_->records.push_back(record);
                            if (recorder_->records.size() < target_)
                                next();
                        });
    }
};

/** Open-loop Poisson arrivals of a fixed count. */
class PoissonLoop : public Load
{
  public:
    PoissonLoop(double rate_per_min, size_t invocations, Rng rng)
        : mean_gap_s_(60.0 / rate_per_min), target_(invocations), rng_(rng)
    {
    }

    void
    start(System& system, const std::string& workflow, const Built&,
          Recorder& recorder) override
    {
        system_ = &system;
        workflow_ = workflow;
        recorder_ = &recorder;
        scheduleNext();
    }

  private:
    double mean_gap_s_;
    size_t target_;
    Rng rng_;
    System* system_ = nullptr;
    std::string workflow_;
    Recorder* recorder_ = nullptr;

    void
    scheduleNext()
    {
        sim::Simulator& sim = system_->simulator();
        sim.scheduleAt(sim.now() + SimTime::seconds(
                                       rng_.exponential(mean_gap_s_)),
                       [this] {
                           ++recorder_->offered;
                           system_->invoke(workflow_, recorder_->sink());
                           if (recorder_->offered < target_)
                               scheduleNext();
                       });
    }
};

/**
 * The multi-tenant open loop of a `load:` block, with the autoscaler, a
 * per-tenant SLO monitor and (via the config) the profiler on. Arrivals
 * follow load::LoadDriver exactly (one Rng split per tenant, in order,
 * silent past the horizon); it is re-done here because LoadDriver submits
 * without a result callback, and the output checks need every record.
 */
class Tenants : public Load
{
  public:
    explicit Tenants(uint64_t seed) : seed_(seed) {}

    void
    start(System& system, const std::string& workflow, const Built& built,
          Recorder& recorder) override
    {
        system_ = &system;
        workflow_ = workflow;
        recorder_ = &recorder;
        horizon_ = built.load.horizon;
        started_ = system.simulator().now();
        Rng base(seed_);
        for (const load::TenantSpec& tenant : built.load.tenants) {
            if (tenant.admission.enabled) {
                TenantPolicy policy;
                policy.tenant = tenant.name;
                policy.rate_per_s = tenant.admission.rate_per_s;
                policy.burst = tenant.admission.burst;
                policy.max_in_flight = tenant.admission.max_in_flight;
                policy.defer = tenant.admission.defer;
                policy.max_deferred = tenant.admission.max_deferred;
                system.setTenantPolicy(policy);
            }
            system.setTenantSlo(tenant.name, obs::SloSpec{});
            tenants_.push_back(TenantRuntime{
                tenant.name, load::ArrivalProcess(tenant.arrival),
                base.split(), started_});
        }
        for (size_t i = 0; i < tenants_.size(); ++i)
            scheduleNext(i);
        if (built.load.autoscale) {
            autoscaler_ = std::make_unique<load::Autoscaler>(system);
            autoscaler_->start();
        }
    }

    void
    collect(Window& window) const override
    {
        if (!autoscaler_)
            return;
        const load::Autoscaler::Stats& s = autoscaler_->stats();
        window.layer["load.autoscaler_ticks"] += static_cast<double>(s.ticks);
        window.layer["load.prewarms"] +=
            static_cast<double>(s.scale_up_total);
        window.layer["load.trims"] += static_cast<double>(s.scale_down_total);
    }

  private:
    struct TenantRuntime
    {
        std::string name;
        load::ArrivalProcess process;
        Rng rng;
        SimTime last_arrival;
    };

    uint64_t seed_;
    System* system_ = nullptr;
    std::string workflow_;
    Recorder* recorder_ = nullptr;
    SimTime horizon_;
    SimTime started_;
    std::vector<TenantRuntime> tenants_;
    std::unique_ptr<load::Autoscaler> autoscaler_;

    void
    scheduleNext(size_t index)
    {
        TenantRuntime& t = tenants_[index];
        const SimTime next = t.process.next(t.last_arrival, t.rng);
        if (next - started_ > horizon_)
            return;
        t.last_arrival = next;
        system_->simulator().scheduleAt(next, [this, index] {
            ++recorder_->offered;
            const System::SubmitOutcome outcome = system_->submit(
                workflow_, tenants_[index].name, recorder_->sink());
            if (outcome.status == System::SubmitOutcome::Status::Shed)
                ++recorder_->shed;
            scheduleNext(index);
        });
    }
};

/** One System of a window. */
struct Cell
{
    std::string label;
    std::function<Built()> build;
    SystemConfig config;
    /** Closed-loop warm-up invocations, followed by one repartition;
     *  0 = neither. */
    size_t warmup = 0;
    std::unique_ptr<Load> load;
};

/** Layer counters that live for a System's lifetime; the window takes
 *  the difference across the measured run. */
struct Counters
{
    sim::EventQueue::Stats queue;
    net::NicStats nic;
    storage::StoreStats remote;
    uint64_t local_saves = 0;
    uint64_t remote_saves = 0;
    uint64_t quota_rejections = 0;

    explicit Counters(System& system)
        : queue(system.simulator().queueStats()),
          remote(system.remoteStore().stats())
    {
        net::Network& net = system.network();
        for (size_t i = 0; i < net.nodeCount(); ++i) {
            const net::NicStats& s = net.stats(static_cast<net::NodeId>(i));
            nic.bytes_sent += s.bytes_sent;
            nic.messages_sent += s.messages_sent;
            nic.flows_started += s.flows_started;
        }
        for (size_t w = 0; w < system.cluster().workerCount(); ++w) {
            local_saves += system.store(w).localSaves();
            remote_saves += system.store(w).remoteSaves();
            quota_rejections += system.store(w).quotaRejections();
        }
    }
};

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t
fnv(uint64_t h, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Accumulators that become per-layer means and shares once every cell
 *  of the window has run. */
struct Totals
{
    Percentiles sched_overhead_ms;
    double container_wait_ms = 0.0;
    double bytes_local = 0.0;
    double bytes_remote = 0.0;
    uint64_t attributed = 0;
    int64_t attr_us[6] = {0, 0, 0, 0, 0, 0};
};

void
fail(Window& window, const std::string& cell, const std::string& what)
{
    window.failed_checks.push_back(cell + ": " + what);
}

void
runCell(Cell& cell, const WindowSpec& spec, SpanLog& spans, Window& window,
        Totals& totals)
{
    const int run = spec.run;
    std::map<std::string, double>& layer = window.layer;
    SpanScope cell_span(spans, "cell " + cell.label, run);

    Built built;
    std::unique_ptr<System> system;
    std::string name;
    {
        SpanScope setup(spans, "setup", run);
        {
            SpanScope span(spans, "workflow.build", run);
            built = cell.build();
        }
        layer["workflow.nodes"] += static_cast<double>(built.dag.nodeCount());
        layer["workflow.edges"] += static_cast<double>(built.dag.edgeCount());
        {
            SpanScope span(spans, "system.construct", run);
            system = std::make_unique<System>(cell.config);
        }
        {
            SpanScope span(spans, "scheduler.deploy", run);
            system->registerFunctions(built.functions);
            name = system->deploy(std::move(built.dag));
        }
        if (cell.warmup > 0) {
            {
                SpanScope span(spans, "system.warmup", run);
                ClosedLoopClient warmup(*system, name, cell.warmup);
                warmup.start();
                if (!drive(*system, spec.deadline)) {
                    window.overrun = true;
                    return;
                }
            }
            SpanScope span(spans, "scheduler.repartition", run);
            system->repartition(name);
        }
        system->metrics().clear();
        if (spec.traced)
            system->trace().enable();
        window.setup_s += setup.close();
    }

    const scheduler::Placement& placement = *system->deployed(name).placement;
    const workflow::Dag& dag = system->deployed(name).dag;
    layer["scheduler.groups"] += static_cast<double>(placement.groups.size());
    double cross = 0.0;
    for (const workflow::DagEdge& edge : dag.edges())
        cross += placement.workerOf(edge.from) != placement.workerOf(edge.to);
    layer["scheduler.cross_worker_edges"] += cross;

    const Counters before(*system);
    Recorder rec;
    cell.load->start(*system, name, built, rec);
    {
        SpanScope span(spans, "system.run", run);
        const bool drained = drive(*system, spec.deadline);
        window.run_s += span.close();
        if (!drained) {
            window.overrun = true;
            return;
        }
    }
    const Counters after(*system);

    // Output checks and the digest, over the records in id order.
    std::sort(rec.records.begin(), rec.records.end(),
              [](const engine::InvocationRecord& a,
                 const engine::InvocationRecord& b) {
                  return a.invocation_id < b.invocation_id;
              });
    uint64_t completed = 0, timed_out = 0, duplicates = 0, leaked = 0;
    Percentiles cell_e2e_ms;
    for (const engine::InvocationRecord& r : rec.records) {
        (r.timed_out ? timed_out : completed) += 1;
        duplicates += r.duplicate_executions;
        leaked += system->engineStateEntries(r.invocation_id) > 0;
        window.digest = fnv(window.digest,
                            static_cast<uint64_t>(r.submit.micros()));
        window.digest = fnv(window.digest,
                            static_cast<uint64_t>(r.finish.micros()));
        window.digest = fnv(window.digest, r.timed_out ? 1 : 0);
        window.digest = fnv(window.digest, r.output_digest);

        if (!r.timed_out)
            cell_e2e_ms.add(r.e2e().millisF());
        totals.sched_overhead_ms.add(r.schedOverhead().millisF());
        totals.container_wait_ms += r.container_wait.millisF();
        totals.bytes_local += static_cast<double>(r.bytes_via_local);
        totals.bytes_remote += static_cast<double>(r.bytes_via_remote);
        layer["engine.functions_executed"] +=
            static_cast<double>(r.functions_executed);
        layer["cluster.cold_starts"] += static_cast<double>(r.cold_starts);
    }
    layer["engine.duplicate_executions"] += static_cast<double>(duplicates);
    if (rec.offered != completed + timed_out + rec.shed) {
        fail(window, cell.label,
             strFormat("offered %llu != completed %llu + timed out %llu + "
                       "shed %llu",
                       static_cast<unsigned long long>(rec.offered),
                       static_cast<unsigned long long>(completed),
                       static_cast<unsigned long long>(timed_out),
                       static_cast<unsigned long long>(rec.shed)));
    }
    if (duplicates > 0) {
        fail(window, cell.label,
             strFormat("%llu duplicate executions",
                       static_cast<unsigned long long>(duplicates)));
    }
    if (leaked > 0) {
        fail(window, cell.label,
             strFormat("%llu finished invocations left engine state",
                       static_cast<unsigned long long>(leaked)));
    }
    window.cells.push_back(strFormat(
        "%s: offered %llu, completed %llu, timed out %llu, shed %llu, e2e "
        "p50 %.1f ms",
        cell.label.c_str(), static_cast<unsigned long long>(rec.offered),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(timed_out),
        static_cast<unsigned long long>(rec.shed), cell_e2e_ms.p50()));
    window.e2e_samples += cell_e2e_ms.count();
    // A System that completed nothing missed every deadline: it counts
    // at the invocation timeout.
    const double timeout_ms = cell.config.invocation_timeout.millisF();
    window.cell_p50_ms.push_back(cell_e2e_ms.empty() ? timeout_ms
                                                     : cell_e2e_ms.p50());
    window.cell_p99_ms.push_back(cell_e2e_ms.empty() ? timeout_ms
                                                     : cell_e2e_ms.p99());
    window.offered += rec.offered;
    window.completed += completed;
    window.timed_out += timed_out;
    window.shed += rec.shed;

    const auto delta = [&](const char* key, uint64_t a, uint64_t b) {
        layer[key] += static_cast<double>(b - a);
    };
    delta("sim.events_fired", before.queue.fired, after.queue.fired);
    delta("sim.events_scheduled", before.queue.scheduled,
          after.queue.scheduled);
    delta("sim.events_cancelled", before.queue.cancelled,
          after.queue.cancelled);
    delta("sim.heap_compactions", before.queue.compactions,
          after.queue.compactions);
    layer["sim.peak_heap"] = std::max(
        layer["sim.peak_heap"], static_cast<double>(after.queue.max_heap));
    delta("net.flows", before.nic.flows_started, after.nic.flows_started);
    delta("net.messages", before.nic.messages_sent, after.nic.messages_sent);
    layer["net.bytes"] +=
        static_cast<double>(after.nic.bytes_sent - before.nic.bytes_sent);
    delta("storage.remote_puts", before.remote.puts, after.remote.puts);
    delta("storage.remote_gets", before.remote.gets, after.remote.gets);
    delta("storage.local_saves", before.local_saves, after.local_saves);
    delta("storage.remote_saves", before.remote_saves, after.remote_saves);
    delta("storage.quota_rejections", before.quota_rejections,
          after.quota_rejections);
    for (const std::string& tenant : system->admissionTenants()) {
        const TenantAdmissionStats& s = system->admissionStats(tenant);
        layer["admission.offered"] += static_cast<double>(s.offered);
        layer["admission.admitted"] += static_cast<double>(s.admitted);
        layer["admission.deferred"] += static_cast<double>(s.deferred);
        layer["admission.shed"] += static_cast<double>(s.shed);
    }
    layer["obs.profile_samples"] +=
        static_cast<double>(system->profile().nodeSampleCount() +
                            system->profile().edgeSampleCount());
    cell.load->collect(window);

    if (!spec.traced)
        return;
    const obs::TraceRecorder& trace = system->trace();
    layer["obs.spans"] += static_cast<double>(trace.eventCount());
    std::vector<obs::Attribution> attrs;
    {
        SpanScope span(spans, "obs.attribution", run);
        const obs::TraceModel model = obs::modelFromRecorder(trace);
        attrs = obs::attributeInvocations(model);
    }
    uint64_t inexact = 0;
    for (const obs::Attribution& a : attrs) {
        inexact += a.sum() != a.e2eUs();
        const int64_t parts[6] = {a.coldstart_us, a.queue_us, a.fetch_us,
                                  a.exec_us,      a.save_us,  a.sched_us};
        for (int i = 0; i < 6; ++i)
            totals.attr_us[i] += parts[i];
    }
    totals.attributed += attrs.size();
    if (inexact > 0) {
        fail(window, cell.label,
             strFormat("%llu invocations' attribution does not sum to e2e",
                       static_cast<unsigned long long>(inexact)));
    }
    {
        SpanScope span(spans, "obs.export", run);
        const std::string text = trace.toChromeTraceText();
        if (text.empty())
            fail(window, cell.label, "empty Chrome trace export");
    }
    const ReplayResult replay =
        replayFlows(system->network(), trace, spans, run);
    layer["net.replay_mismatches"] += static_cast<double>(replay.mismatches);
    layer["net.peak_active_flows"] =
        std::max(layer["net.peak_active_flows"],
                 static_cast<double>(replay.peak_active_flows));
    if (replay.mismatches > 0) {
        fail(window, cell.label,
             strFormat("net replay: %llu of %llu flows finished at another "
                       "microsecond",
                       static_cast<unsigned long long>(replay.mismatches),
                       static_cast<unsigned long long>(replay.flows)));
    }
    if (replay.flows != after.nic.flows_started - before.nic.flows_started) {
        fail(window, cell.label,
             strFormat("net replay saw %llu xfer spans for %llu flows",
                       static_cast<unsigned long long>(replay.flows),
                       static_cast<unsigned long long>(
                           after.nic.flows_started -
                           before.nic.flows_started)));
    }
}

std::vector<Cell>
montageCells(const WindowSpec& spec)
{
    std::vector<Cell> cells(1);
    Cell& cell = cells[0];
    cell.label = "montage";
    const int nodes = spec.half ? kMontageNodes / 2 : kMontageNodes;
    cell.build = [nodes] {
        workflow::GenSpec gen;
        gen.regime = workflow::Regime::Montage;
        gen.seed = kMontageDagSeed;
        gen.nodes = nodes;
        workflow::GeneratedWorkflow generated = workflow::generate(gen);
        if (!generated.ok())
            fatal("montage: %s", generated.error.c_str());
        return Built{std::move(generated.dag),
                     std::move(generated.functions), {}};
    };
    cell.config = SystemConfig::faasflowFaastore();
    cell.config.seed = spec.seed;
    cell.warmup = kMontageWarmup;
    cell.load = std::make_unique<ClosedLoop>(kMontageInvocations);
    return cells;
}

std::vector<Cell>
paperSweepCells(const WindowSpec& spec)
{
    // Fig. 12: Gen and Vid x {HyperFlow-serverless, FaaSFlow-FaaStore} x
    // storage NIC {25, 50, 75, 100} MB/s, open loop at 6 invocations/min.
    std::vector<Cell> cells;
    Rng arrivals(kSweepArrivalSeed);
    const size_t invocations = spec.half ? kSweepInvocationsPerCell / 2
                                         : kSweepInvocationsPerCell;
    for (const bool gen : {true, false}) {
        for (const bool faastore : {false, true}) {
            for (const int mbps : {25, 50, 75, 100}) {
                Cell cell;
                cell.label = strFormat("%s/%s/%dMBps", gen ? "Gen" : "Vid",
                                       faastore ? "faastore" : "hyperflow",
                                       mbps);
                cell.build = [gen] {
                    benchmarks::Benchmark b = gen ? benchmarks::genome()
                                                  : benchmarks::videoFfmpeg();
                    return Built{std::move(b.dag), std::move(b.functions),
                                 {}};
                };
                cell.config = faastore ? SystemConfig::faasflowFaastore()
                                       : SystemConfig::hyperflowServerless();
                cell.config.cluster.storage_bandwidth = mbps * 1e6;
                cell.config.seed = spec.seed;
                cell.warmup = kSweepWarmup;
                cell.load = std::make_unique<PoissonLoop>(
                    kSweepRatePerMin, invocations, arrivals.split());
                cells.push_back(std::move(cell));
            }
        }
    }
    return cells;
}

std::vector<Cell>
tenantsCells(const WindowSpec& spec)
{
    std::vector<Cell> cells(1);
    Cell& cell = cells[0];
    cell.label = "tenants";
    const int64_t horizon_ms =
        spec.half ? kTenantsHorizonMs / 2 : kTenantsHorizonMs;
    cell.build = [horizon_ms] {
        const std::string text = tenantsYaml(horizon_ms);
        workflow::WdlResult wdl = workflow::parseWdlYaml(text);
        if (!wdl.ok())
            fatal("tenants: %s", wdl.error.c_str());
        const json::ParseResult doc = yaml::parse(text);
        if (!doc.ok())
            fatal("tenants: %s", doc.error.c_str());
        load::LoadSpec spec = load::parseLoadSpec(*doc.value);
        if (!spec.ok())
            fatal("tenants: %s", spec.error.c_str());
        return Built{std::move(wdl.dag), std::move(wdl.functions),
                     std::move(spec)};
    };
    cell.config = SystemConfig::faasflowFaastore();
    cell.config.seed = spec.seed;
    cell.config.profile_enabled = true;
    // The arrival streams get their own seed, as faasflow_run --load
    // gives the LoadDriver seed + 1.
    cell.load = std::make_unique<Tenants>(spec.seed + 1);
    return cells;
}

}  // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {"montage", "paper_sweep",
                                                   "tenants"};
    return names;
}

Window
runWindow(const WindowSpec& spec, SpanLog& spans)
{
    std::vector<Cell> cells;
    if (spec.workload == "montage")
        cells = montageCells(spec);
    else if (spec.workload == "paper_sweep")
        cells = paperSweepCells(spec);
    else if (spec.workload == "tenants")
        cells = tenantsCells(spec);
    else
        fatal("unknown workload '%s'", spec.workload.c_str());

    Window window;
    window.digest = kFnvOffset;
    Totals totals;
    {
        SpanScope span(spans, "window " + spec.workload, spec.run);
        for (Cell& cell : cells) {
            runCell(cell, spec, spans, window, totals);
            if (window.overrun)
                return window;
        }
    }

    std::map<std::string, double>& layer = window.layer;
    const double records =
        static_cast<double>(window.completed + window.timed_out);
    layer["engine.sched_overhead_p50_ms"] = totals.sched_overhead_ms.p50();
    layer["cluster.container_wait_ms"] =
        records > 0 ? totals.container_wait_ms / records : 0.0;
    const double bytes = totals.bytes_local + totals.bytes_remote;
    layer["storage.local_byte_share"] =
        bytes > 0 ? totals.bytes_local / bytes : 0.0;
    layer["sim_failed"] =
        static_cast<double>(window.offered - window.completed);
    if (spec.traced) {
        static const char* const kParts[6] = {
            "attr.coldstart_ms", "attr.queue_ms", "attr.fetch_ms",
            "attr.exec_ms",      "attr.save_ms",  "attr.sched_ms"};
        const double n = static_cast<double>(totals.attributed);
        for (int i = 0; i < 6; ++i) {
            layer[kParts[i]] =
                n > 0 ? static_cast<double>(totals.attr_us[i]) / 1e3 / n
                      : 0.0;
        }
    }
    return window;
}

}  // namespace perfbench
