/**
 * @file
 * `faasflow_run`: load a workflow.yaml from disk and execute it on the
 * simulated cluster — the artifact's run.py equivalent.
 *
 *   faasflow_run my-workflow.yaml
 *   faasflow_run --control master --data db --invocations 100 wf.yaml
 *   faasflow_run --trace out.trace.json wf.yaml   # chrome://tracing
 *
 * Flags select CONTROL_MODE/DATA_MODE, load pattern (closed or open
 * loop), storage bandwidth, and whether to run a feedback partition
 * iteration before measuring.
 */
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "cluster/fleet.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/units.h"
#include "faasflow/client.h"
#include "faasflow/system.h"
#include "load/autoscaler.h"
#include "load/driver.h"
#include "load/spec.h"
#include "obs/attribution.h"
#include "obs/trace_model.h"
#include "scheduler/visualize.h"
#include "workflow/wdl.h"
#include "yamllite/yaml.h"

namespace {

std::string
readFile(const std::string& path, std::string& error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open '" + path + "'";
        return {};
    }
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace faasflow;

    FlagParser flags;
    flags.addString("control", "worker",
                    "scheduling pattern: worker (FaaSFlow) or master "
                    "(HyperFlow-serverless)");
    flags.addString("data", "faastore",
                    "data path: faastore (hybrid) or db (remote only)");
    flags.addInt("invocations", 50, "measured invocations");
    flags.addInt("warmup", 10, "warm-up invocations before repartition");
    flags.addDouble("rate", 0.0,
                    "open-loop arrivals per minute (0 = closed loop)");
    flags.addDouble("bandwidth-mbps", 50.0, "storage-node NIC, MB/s");
    flags.addInt("workers", 7, "worker node count");
    flags.addInt("cluster-nodes", 0,
                 "override the document's cluster: node count "
                 "(0 = use the block's value)");
    flags.addInt("seed", 1, "simulation seed");
    flags.addBool("repartition", true,
                  "run one Algorithm-1 iteration after warm-up");
    flags.addBool("durable", false,
                  "enable the durable progress log (master failover)");
    flags.addString("durability", "",
                    "durability mode: sync, group_commit or speculative "
                    "(implies --durable; overrides the document's "
                    "durability: block)");
    flags.addBool("stats", false,
                  "print the recovery/durability counter table");
    flags.addString("trace", "", "write a Chrome trace to this file");
    flags.addString("profile", "",
                    "enable the online profiler and write the JSON "
                    "profile dump (faasflow.profile.v1, for faasflow_top) "
                    "to this file");
    flags.addString("telemetry", "",
                    "write resource telemetry to <prefix>.prom and "
                    "<prefix>.csv");
    flags.addDouble("sample-ms", 10.0, "telemetry sampling cadence, ms");
    flags.addString("dot", "",
                    "write the placed workflow as Graphviz DOT here");
    flags.addBool("load", false,
                  "drive the document's `load:` block (multi-tenant "
                  "open-loop arrivals with admission control) instead of "
                  "--invocations/--rate");

    if (!flags.parse(argc, argv)) {
        std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                     flags.usage("faasflow_run").c_str());
        return 2;
    }
    if (flags.helpRequested() || flags.positional().size() != 1) {
        std::fprintf(stderr, "%s", flags.usage("faasflow_run").c_str());
        return flags.helpRequested() ? 0 : 2;
    }

    std::string error;
    const std::string yaml = readFile(flags.positional()[0], error);
    if (!error.empty()) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    workflow::WdlResult wdl = workflow::parseWdlYaml(yaml);
    if (!wdl.ok()) {
        std::fprintf(stderr, "workflow error: %s\n", wdl.error.c_str());
        return 1;
    }

    SystemConfig config;
    if (flags.getString("control") == "master") {
        config.control_mode = engine::ControlMode::MasterSP;
    } else if (flags.getString("control") != "worker") {
        std::fprintf(stderr, "error: --control must be worker|master\n");
        return 2;
    }
    if (flags.getString("data") == "db") {
        config.data_mode = engine::DataMode::RemoteOnly;
    } else if (flags.getString("data") != "faastore") {
        std::fprintf(stderr, "error: --data must be faastore|db\n");
        return 2;
    }
    config.cluster.worker_count = static_cast<int>(flags.getInt("workers"));
    config.cluster.storage_bandwidth =
        flags.getDouble("bandwidth-mbps") * 1e6;
    if (wdl.has_cluster) {
        // The document's cluster: block generates the fleet: node count,
        // baseline machine, and heterogeneity, all from one seed.
        if (flags.getInt("cluster-nodes") > 0)
            wdl.fleet.nodes =
                static_cast<uint32_t>(flags.getInt("cluster-nodes"));
        const auto profiles = cluster::generateFleet(wdl.fleet);
        cluster::applyFleet(profiles, config.cluster);
        config.cluster.worker_bandwidth = wdl.fleet.base_bandwidth;
        config.network.hop_latency = wdl.fleet.hop_latency;
        const cluster::FleetSummary fleet = cluster::summarizeFleet(profiles);
        std::printf("cluster: %u nodes, %llu cores (%u big, %u slow-nic), "
                    "seed %llu\n",
                    fleet.nodes,
                    static_cast<unsigned long long>(fleet.total_cores),
                    fleet.big_nodes, fleet.slow_nics,
                    static_cast<unsigned long long>(wdl.fleet.seed));
    }
    config.seed = static_cast<uint64_t>(flags.getInt("seed"));
    config.durable_log = flags.getBool("durable");
    if (wdl.has_durability) {
        // The document's durability: block opts the run into the log at
        // a chosen latency-vs-durability point; --durability overrides.
        config.durable_log = true;
        config.progress_log.append_latency =
            SimTime::micros(wdl.durability.append_latency_us);
        config.progress_log.batch_window =
            SimTime::micros(wdl.durability.batch_window_us);
        config.progress_log.batch_max_records =
            static_cast<size_t>(wdl.durability.batch_max_records);
        if (wdl.durability.mode == "group_commit")
            config.durability_mode = engine::DurabilityMode::GroupCommit;
        else if (wdl.durability.mode == "speculative")
            config.durability_mode = engine::DurabilityMode::Speculative;
    }
    if (!flags.getString("durability").empty()) {
        const std::string mode = flags.getString("durability");
        config.durable_log = true;
        if (mode == "sync") {
            config.durability_mode = engine::DurabilityMode::Sync;
        } else if (mode == "group_commit") {
            config.durability_mode = engine::DurabilityMode::GroupCommit;
        } else if (mode == "speculative") {
            config.durability_mode = engine::DurabilityMode::Speculative;
        } else {
            std::fprintf(stderr, "error: --durability must be "
                                 "sync|group_commit|speculative\n");
            return 2;
        }
    }
    config.telemetry_interval = SimTime::millis(flags.getDouble("sample-ms"));
    if (!flags.getString("profile").empty())
        config.profile_enabled = true;

    System system(config);
    // The attribution table under --stats needs the span tree too.
    if (!flags.getString("trace").empty() || flags.getBool("stats"))
        system.trace().enable();
    system.registerFunctions(wdl.functions);
    const size_t tasks = wdl.dag.taskCount();
    const std::string name = system.deploy(std::move(wdl.dag));
    if (wdl.has_faults) {
        // Fault times are absolute simulated time from the first warm-up
        // invocation. The measured phase starts the moment the warm-up
        // client finishes, not after the warm-up's keep-alive tail, so a
        // fault timed past the warm-up lands on measured traffic.
        std::printf("fault schedule:\n%s", wdl.faults.summary().c_str());
        system.installFaults(wdl.faults);
    }

    obs::SloSpec slo_spec;
    if (wdl.has_slo) {
        // The document's slo: block arms the burn-rate monitor; plain
        // invoke() traffic reports under the implicit "default" tenant,
        // load-block tenants are registered below once parsed.
        slo_spec.deadline = SimTime::millis(wdl.slo.deadline_ms);
        slo_spec.target_p99 = SimTime::millis(wdl.slo.target_p99_ms);
        slo_spec.miss_budget = wdl.slo.miss_budget;
        slo_spec.short_window = SimTime::millis(wdl.slo.short_window_ms);
        slo_spec.long_window = SimTime::millis(wdl.slo.long_window_ms);
        slo_spec.fire_burn = wdl.slo.fire_burn;
        slo_spec.clear_burn = wdl.slo.clear_burn;
        system.setTenantSlo("default", slo_spec);
    }

    const auto warmup = static_cast<size_t>(flags.getInt("warmup"));
    if (warmup > 0) {
        ClosedLoopClient client(system, name, warmup);
        client.start();
        // Run only until the warm-up traffic is done: draining the queue
        // would also run every 600 s keep-alive check and start the
        // measured phase on a cold cluster.
        while (!client.done() && system.simulator().pendingEvents() > 0)
            system.runFor(SimTime::millis(1));
        // Close any alert span before the warm-up trace is dropped.
        system.sloMonitor().finish(system.simulator().now());
        if (flags.getBool("repartition"))
            system.repartition(name);
        system.metrics().clear();
        system.trace().clear();
    }

    const auto n = static_cast<size_t>(flags.getInt("invocations"));
    const double rate = flags.getDouble("rate");
    std::unique_ptr<ClosedLoopClient> closed;
    std::unique_ptr<OpenLoopClient> open;
    std::unique_ptr<load::LoadDriver> driver;
    std::unique_ptr<load::Autoscaler> scaler;
    if (flags.getBool("load")) {
        json::ParseResult doc = yaml::parse(yaml);
        if (!doc.ok()) {
            std::fprintf(stderr, "yaml error: %s\n", doc.error.c_str());
            return 1;
        }
        load::LoadSpec lspec = load::parseLoadSpec(*doc.value);
        if (!lspec.ok()) {
            std::fprintf(stderr, "load error: %s\n", lspec.error.c_str());
            return 1;
        }
        if (!lspec.present) {
            std::fprintf(stderr,
                         "error: --load given but the document has no "
                         "load: block\n");
            return 1;
        }
        const bool autoscale = lspec.autoscale;
        if (wdl.has_slo) {
            for (const auto& tenant : lspec.tenants)
                system.setTenantSlo(tenant.name, slo_spec);
        }
        driver = std::make_unique<load::LoadDriver>(
            system, std::move(lspec), config.seed + 1, name);
        driver->start();
        if (autoscale) {
            scaler = std::make_unique<load::Autoscaler>(system);
            scaler->start();
        }
    } else if (rate > 0.0) {
        open = std::make_unique<OpenLoopClient>(system, name, rate, n,
                                                Rng(config.seed + 1));
        open->start();
    } else {
        closed = std::make_unique<ClosedLoopClient>(system, name, n);
        closed->start();
    }
    if (!flags.getString("telemetry").empty())
        system.startTelemetry();
    system.run();

    const auto& m = system.metrics();
    TextTable table;
    table.setHeader({"metric", "value"});
    table.addRow({"workflow", name});
    table.addRow({"function nodes", strFormat("%zu", tasks)});
    table.addRow({"invocations", strFormat("%zu", m.count(name))});
    table.addRow({"mean e2e", strFormat("%.1f ms", m.e2e(name).mean())});
    table.addRow({"p99 e2e", strFormat("%.1f ms", m.e2e(name).p99())});
    table.addRow({"mean sched overhead",
                  strFormat("%.1f ms", m.schedOverhead(name).mean())});
    table.addRow({"mean data latency",
                  strFormat("%.3f s", m.dataLatency(name).mean())});
    table.addRow({"bytes local /inv",
                  formatBytes(static_cast<int64_t>(m.meanBytesLocal(name)))});
    table.addRow(
        {"bytes remote /inv",
         formatBytes(static_cast<int64_t>(m.meanBytesRemote(name)))});
    table.addRow({"mean exec total",
                  strFormat("%.1f ms", m.meanExecTotal(name))});
    table.addRow({"mean container wait",
                  strFormat("%.1f ms", m.meanContainerWait(name))});
    table.addRow({"timeouts", strFormat("%llu",
                                        static_cast<unsigned long long>(
                                            m.timeouts(name)))});
    if (wdl.has_faults) {
        table.addRow({"recoveries",
                      strFormat("%llu", static_cast<unsigned long long>(
                                            m.recoveries(name)))});
    }
    std::printf("%s", table.str().c_str());

    if (driver) {
        const auto u64 = [](uint64_t v) {
            return strFormat("%llu", static_cast<unsigned long long>(v));
        };
        TextTable tenants;
        tenants.setHeader({"tenant", "offered", "admitted", "deferred",
                           "shed", "completed", "timeouts", "p50 e2e",
                           "p99 e2e"});
        for (const std::string& t : system.admissionTenants()) {
            const auto& st = system.admissionStats(t);
            const auto& e2e = m.tenantE2e(t);
            tenants.addRow(
                {t, u64(st.offered), u64(st.admitted), u64(st.deferred),
                 u64(st.shed), u64(st.completed), u64(st.timeouts),
                 e2e.count() ? strFormat("%.1f ms", e2e.p50())
                             : std::string("n/a"),
                 e2e.count() ? strFormat("%.1f ms", e2e.p99())
                             : std::string("n/a")});
        }
        std::printf("\n%s", tenants.str().c_str());
        if (scaler) {
            std::printf("autoscaler: %llu ticks, %llu prewarms, %llu "
                        "trims\n",
                        static_cast<unsigned long long>(
                            scaler->stats().ticks),
                        static_cast<unsigned long long>(
                            scaler->stats().scale_up_total),
                        static_cast<unsigned long long>(
                            scaler->stats().scale_down_total));
        }
    }

    if (system.sloMonitor().tenantCount() > 0) {
        TextTable slo_table;
        slo_table.setHeader({"tenant", "deadline", "completed", "missed",
                             "short burn", "long burn", "alerts",
                             "alerting"});
        for (const auto& s :
             system.sloMonitor().snapshot(system.simulator().now())) {
            slo_table.addRow(
                {s.tenant,
                 strFormat("%.0f ms", s.spec.deadline.millisF()),
                 strFormat("%llu", static_cast<unsigned long long>(s.total)),
                 strFormat("%llu",
                           static_cast<unsigned long long>(s.missed)),
                 strFormat("%.2f", s.short_burn),
                 strFormat("%.2f", s.long_burn),
                 strFormat("%llu",
                           static_cast<unsigned long long>(s.alerts_fired)),
                 s.alerting ? "YES" : "no"});
        }
        std::printf("\n%s", slo_table.str().c_str());
    }

    if (flags.getBool("stats")) {
        const auto u64 = [](uint64_t v) {
            return strFormat("%llu", static_cast<unsigned long long>(v));
        };
        const auto& rs = system.recoveryStats();
        TextTable stats;
        stats.setHeader({"recovery/durability", "value"});
        stats.addRow({"worker recoveries", u64(m.recoveries(name))});
        stats.addRow({"execution retries", u64(m.retries(name))});
        stats.addRow({"re-driven nodes", u64(m.redrivenNodes(name))});
        stats.addRow(
            {"duplicate executions", u64(m.duplicateExecutions(name))});
        stats.addRow({"master crashes", u64(rs.master_crashes)});
        stats.addRow({"master log replays", u64(rs.master_replays)});
        stats.addRow({"replay mismatches", u64(rs.replay_mismatches)});
        stats.addRow({"mean detection latency",
                      rs.detection_ms.count() > 0
                          ? strFormat("%.1f ms", rs.detection_ms.mean())
                          : std::string("n/a")});
        if (system.progressLog()) {
            const auto& ls = system.progressLog()->stats();
            stats.addRow({"log appends", u64(ls.appends)});
            stats.addRow({"log committed bytes",
                          formatBytes(static_cast<int64_t>(
                              ls.committed_bytes))});
            stats.addRow({"log compactions", u64(ls.compactions)});
            stats.addRow({"log replays", u64(ls.replays)});
            if (ls.batches > 0) {
                stats.addRow({"log batches", u64(ls.batches)});
                stats.addRow({"log batch records (mean)",
                              strFormat("%.1f", ls.batch_records.mean())});
                stats.addRow(
                    {"log batch size 1/2-4/5-8/9-16/17+",
                     strFormat("%llu/%llu/%llu/%llu/%llu",
                               static_cast<unsigned long long>(
                                   ls.batch_size_hist[0]),
                               static_cast<unsigned long long>(
                                   ls.batch_size_hist[1]),
                               static_cast<unsigned long long>(
                                   ls.batch_size_hist[2]),
                               static_cast<unsigned long long>(
                                   ls.batch_size_hist[3]),
                               static_cast<unsigned long long>(
                                   ls.batch_size_hist[4]))});
                stats.addRow({"log flushes size/window",
                              strFormat("%llu/%llu",
                                        static_cast<unsigned long long>(
                                            ls.flushes_by_size),
                                        static_cast<unsigned long long>(
                                            ls.flushes_by_window))});
                stats.addRow({"log peak speculative window",
                              strFormat("%zu", ls.max_pending)});
            }
            stats.addRow({"log dropped records", u64(ls.dropped_records)});
            stats.addRow({"speculation rollbacks", u64(rs.rollbacks)});
            stats.addRow(
                {"rolled-back nodes", u64(m.rolledBackNodes(name))});
        }
        std::printf("\n%s", stats.str().c_str());

        // Event-queue health: scheduling volume, cancel churn, and how
        // often the heap had to be compacted to shed stale keys.
        const sim::EventQueue::Stats& qs = system.simulator().queueStats();
        TextTable sim_health;
        sim_health.setHeader({"sim queue", "value"});
        sim_health.addRow({"events scheduled", u64(qs.scheduled)});
        sim_health.addRow({"events fired", u64(qs.fired)});
        sim_health.addRow({"events cancelled", u64(qs.cancelled)});
        sim_health.addRow({"stale keys dropped", u64(qs.stale_dropped)});
        sim_health.addRow({"heap compactions", u64(qs.compactions)});
        sim_health.addRow({"peak heap size",
                           strFormat("%zu", qs.max_heap)});
        std::printf("\n%s", sim_health.str().c_str());

        // Exact per-component latency attribution (Fig. 5): the span
        // tree of every invocation partitioned into cold-start / queue /
        // fetch / exec / save / scheduling-hop, summing to e2e exactly.
        obs::TraceModel model = obs::modelFromRecorder(system.trace());
        const auto attrs = obs::attributeInvocations(model);
        if (!attrs.empty()) {
            const auto pct = [](int64_t part, int64_t whole) {
                return whole > 0 ? strFormat("%5.1f%%", 100.0 * part / whole)
                                 : std::string("n/a");
            };
            int64_t e2e = 0, cold = 0, queue = 0, fetch = 0, exec = 0,
                    save = 0, sched = 0;
            size_t exact = 0;
            for (const auto& a : attrs) {
                e2e += a.e2eUs();
                cold += a.coldstart_us;
                queue += a.queue_us;
                fetch += a.fetch_us;
                exec += a.exec_us;
                save += a.save_us;
                sched += a.sched_us;
                if (a.sum() == a.e2eUs())
                    ++exact;
            }
            const auto num = static_cast<int64_t>(attrs.size());
            TextTable attr;
            attr.setHeader({"latency component", "mean /inv", "share"});
            attr.addRow({"cold start",
                         strFormat("%.1f ms", cold / 1000.0 / num),
                         pct(cold, e2e)});
            attr.addRow({"container queue",
                         strFormat("%.1f ms", queue / 1000.0 / num),
                         pct(queue, e2e)});
            attr.addRow({"data fetch",
                         strFormat("%.1f ms", fetch / 1000.0 / num),
                         pct(fetch, e2e)});
            attr.addRow({"execution",
                         strFormat("%.1f ms", exec / 1000.0 / num),
                         pct(exec, e2e)});
            attr.addRow({"data save",
                         strFormat("%.1f ms", save / 1000.0 / num),
                         pct(save, e2e)});
            attr.addRow({"scheduling hops",
                         strFormat("%.1f ms", sched / 1000.0 / num),
                         pct(sched, e2e)});
            attr.addRow({"end-to-end",
                         strFormat("%.1f ms", e2e / 1000.0 / num),
                         strFormat("exact %zu/%zu", exact, attrs.size())});
            std::printf("\n%s", attr.str().c_str());
        }
    }

    if (!flags.getString("trace").empty()) {
        std::ofstream out(flags.getString("trace"));
        if (system.progressLog()) {
            // Embed the progress-log batch stats as an extra top-level
            // key; Chrome and trace_model ignore unknown keys, while
            // faasflow_trace surfaces them as a table.
            json::Value doc = system.trace().toChromeTrace();
            const auto& ls = system.progressLog()->stats();
            json::Value log_stats = json::Value::object();
            log_stats.set("appends",
                          json::Value(static_cast<int64_t>(ls.appends)));
            log_stats.set("batches",
                          json::Value(static_cast<int64_t>(ls.batches)));
            log_stats.set("max_pending",
                          json::Value(static_cast<int64_t>(ls.max_pending)));
            log_stats.set("dropped_records",
                          json::Value(static_cast<int64_t>(
                              ls.dropped_records)));
            log_stats.set("flushes_by_size",
                          json::Value(static_cast<int64_t>(
                              ls.flushes_by_size)));
            log_stats.set("flushes_by_window",
                          json::Value(static_cast<int64_t>(
                              ls.flushes_by_window)));
            json::Value hist = json::Value::array();
            for (const uint64_t c : ls.batch_size_hist) {
                hist.asArray().push_back(
                    json::Value(static_cast<int64_t>(c)));
            }
            log_stats.set("batch_size_hist", std::move(hist));
            doc.set("faasflowLogStats", std::move(log_stats));
            out << doc.dump();
        } else {
            out << system.trace().toChromeTraceText();
        }
        std::printf("\ntrace written to %s (open in chrome://tracing)\n",
                    flags.getString("trace").c_str());
    }
    if (!flags.getString("profile").empty()) {
        json::Value dump = system.profile().toJson(system.simulator().now());
        dump.set("slo",
                 system.sloMonitor().toJson(system.simulator().now()));
        std::ofstream out(flags.getString("profile"));
        out << dump.dump(2);
        std::printf("profile written to %s (inspect with faasflow_top)\n",
                    flags.getString("profile").c_str());
    }
    if (!flags.getString("telemetry").empty()) {
        const std::string prefix = flags.getString("telemetry");
        std::ofstream prom(prefix + ".prom");
        prom << system.telemetry().toPrometheusText();
        std::ofstream csv(prefix + ".csv");
        csv << system.telemetry().toCsv();
        std::printf("telemetry written to %s.prom / %s.csv (%zu samples, "
                    "%zu gauges)\n",
                    prefix.c_str(), prefix.c_str(),
                    system.telemetry().ticks(),
                    system.telemetry().gaugeCount());
    }
    if (!flags.getString("dot").empty()) {
        std::ofstream out(flags.getString("dot"));
        out << scheduler::toDot(system.deployed(name).dag,
                                *system.deployed(name).placement);
        std::printf("placement graph written to %s (render with "
                    "`dot -Tsvg`)\n",
                    flags.getString("dot").c_str());
    }
    return 0;
}
