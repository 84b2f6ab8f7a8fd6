/**
 * @file
 * Latency-vs-durability frontier (DESIGN.md §8.5): the same MasterSP
 * deployment swept over the three progress-log commit disciplines —
 * sync (commit per record, dispatch on ack), group_commit (batched
 * commits, dispatch still on ack) and speculative (batched commits,
 * dispatch at issue) — crossed with three fault presets (none, light,
 * storage-hostile).
 *
 * The WAL is deliberately slow (20 ms commit latency, a cloud-blob
 * figure) so the discipline dominates the measurement: sync pays one
 * commit round per DAG level, group_commit adds the linger window on
 * top, and speculative hides the whole commit path behind execution.
 *
 * Faulted cells run golden-vs-chaos twins exactly like
 * faasflow_campaign --chaos: the chaos pass must complete every
 * invocation with output digests byte-identical to its fault-free twin,
 * zero same-epoch duplicate executions and zero replay mismatches —
 * speculation may roll nodes back, never change observable outputs.
 * Those invariants are pinned, so a violation fails the section's
 * golden check, not just a printed row.
 */
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/campaign.h"
#include "harness.h"
#include "sections.h"
#include "sim/fault_schedule.h"

namespace {

using namespace faasflow;

constexpr double kRatePerMinute = 6.0;
constexpr uint64_t kSeed = 4242;

struct CellResult
{
    size_t expected = 0;
    size_t completed = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    uint64_t fault_events = 0;
    uint64_t rollbacks = 0;
    uint64_t rolled_back_nodes = 0;
    uint64_t batches = 0;
    uint64_t replay_mismatches = 0;
    uint64_t duplicate_executions = 0;
    uint64_t digest_misses = 0;
    uint64_t timeouts = 0;
};

SystemConfig
frontierConfig(const std::string& mode)
{
    SystemConfig config = SystemConfig::hyperflowServerless();
    config.durable_log = true;
    if (mode == "group_commit")
        config.durability_mode = engine::DurabilityMode::GroupCommit;
    else if (mode == "spec")
        config.durability_mode = engine::DurabilityMode::Speculative;
    // A deliberately slow WAL (a cloud-blob commit figure) so the commit
    // discipline, not the storage substrate, sets the latency floor:
    // sync pays one 20 ms commit per DAG level, group_commit adds the
    // linger on top, speculative hides the whole path behind execution.
    config.progress_log.append_latency = SimTime::millis(20);
    config.progress_log.batch_window = SimTime::millis(20);
    config.progress_log.batch_max_records = 16;
    // Recovery stretches latencies; a timeout would break completeness.
    config.invocation_timeout = SimTime::seconds(600);
    return config;
}

/** Poisson arrival train with per-invocation output-digest capture. */
std::map<uint64_t, uint64_t>
runMeasuredPass(System& system, const std::string& name, size_t n,
                uint64_t* timeouts)
{
    std::map<uint64_t, uint64_t> digests;
    Rng rng(kSeed);
    SimTime t = system.simulator().now();
    for (size_t i = 0; i < n; ++i) {
        t += SimTime::seconds(rng.exponential(60.0 / kRatePerMinute));
        system.simulator().scheduleAt(t, [&system, &digests, timeouts,
                                          name] {
            system.invoke(name,
                          [&digests, timeouts](
                              const engine::InvocationRecord& r) {
                              if (r.timed_out)
                                  ++*timeouts;
                              digests[r.invocation_id] = r.output_digest;
                          });
        });
    }
    system.run();
    return digests;
}

/** The preset's random schedule shifted past warm-up, plus forced
 *  master crashes pinned to in-flight work (a stronger variant of
 *  faasflow_campaign --chaos's single mid-horizon crash). */
sim::FaultSchedule
buildSchedule(const std::string& preset, System& system, size_t n)
{
    sim::RandomFaultParams params;
    sim::RandomFaultParams::preset(preset, params);
    const SimTime horizon =
        SimTime::seconds(static_cast<double>(n) * 60.0 / kRatePerMinute);
    const sim::FaultSchedule drawn = sim::FaultSchedule::random(
        kSeed ^ 0xd17ab1ull,
        static_cast<int>(system.cluster().workerCount()), horizon, params);
    const SimTime base = system.simulator().now();
    sim::FaultSchedule shifted;
    for (const auto& e : drawn.events()) {
        switch (e.kind) {
        case sim::FaultKind::WorkerCrash:
            shifted.addWorkerCrash(e.worker, base + e.at, e.duration);
            break;
        case sim::FaultKind::LinkDown:
            shifted.addLinkDown(e.worker, base + e.at, e.duration);
            break;
        case sim::FaultKind::StorageBrownout:
            shifted.addStorageBrownout(base + e.at, e.duration, e.severity);
            break;
        case sim::FaultKind::MasterCrash:
            shifted.addMasterCrash(base + e.at, e.duration);
            break;
        }
    }
    // Forced master crashes pinned shortly after the quartile arrivals
    // (replaying the measured pass's Rng draws), so every cell
    // exercises failover against in-flight work even when the drawn
    // schedule is sparse or the quartile instant falls in an idle gap.
    Rng arrivals(kSeed);
    SimTime t = base;
    std::vector<SimTime> arrival_times;
    for (size_t i = 0; i < n; ++i) {
        t += SimTime::seconds(arrivals.exponential(60.0 / kRatePerMinute));
        arrival_times.push_back(t);
    }
    for (const size_t q : {n / 4, n / 2, (3 * n) / 4}) {
        shifted.addMasterCrash(arrival_times[q] + SimTime::millis(600),
                               SimTime::millis(800));
    }
    return shifted;
}

CellResult
runCell(const std::string& mode, const std::string& preset,
        const benchmarks::Benchmark& bench, size_t invocations)
{
    CellResult cell;
    cell.expected = invocations;

    // Fault-free twin: the digest golden, and the measurement itself
    // for the `none` preset.
    std::map<uint64_t, uint64_t> golden;
    {
        System system(frontierConfig(mode));
        const std::string name = bench::deployBenchmark(system, bench);
        golden = runMeasuredPass(system, name, invocations, &cell.timeouts);
        if (preset.empty()) {  // the fault-free "none" cell
            const Percentiles& e2e = system.metrics().e2e(name);
            cell.completed = golden.size();
            cell.p50_ms = e2e.p50();
            cell.p99_ms = e2e.p99();
            if (system.progressLog())
                cell.batches = system.progressLog()->stats().batches;
            return cell;
        }
    }

    System system(frontierConfig(mode));
    const std::string name = bench::deployBenchmark(system, bench);
    const sim::FaultSchedule schedule =
        buildSchedule(preset, system, invocations);
    cell.fault_events = schedule.size();
    system.installFaults(schedule);
    const std::map<uint64_t, uint64_t> chaos =
        runMeasuredPass(system, name, invocations, &cell.timeouts);

    cell.completed = chaos.size();
    const Percentiles& e2e = system.metrics().e2e(name);
    cell.p50_ms = e2e.p50();
    cell.p99_ms = e2e.p99();
    for (const auto& [id, digest] : chaos) {
        const auto g = golden.find(id);
        if (g == golden.end() || g->second != digest)
            ++cell.digest_misses;
    }
    const auto& rs = system.recoveryStats();
    cell.rollbacks = rs.rollbacks;
    cell.rolled_back_nodes = rs.rolled_back_nodes;
    cell.replay_mismatches = rs.replay_mismatches;
    cell.duplicate_executions =
        system.metrics().duplicateExecutions(name);
    if (system.progressLog())
        cell.batches = system.progressLog()->stats().batches;
    return cell;
}

}  // namespace

namespace faasflow::bench {

void
runDurabilityFrontier(const RunOptions& opts, Report& report)
{
    const size_t invocations = opts.scaled(60, 10);
    const benchmarks::Benchmark bench = [] {
        for (const auto& b : benchmarks::allBenchmarks()) {
            if (b.name == "Vid")
                return b;
        }
        return benchmarks::allBenchmarks().front();
    }();

    const std::vector<std::string> modes = {"sync", "group_commit",
                                            "spec"};
    // Label -> RandomFaultParams preset name.
    const std::vector<std::pair<std::string, std::string>> presets =
        {{"none", ""},
         {"light", "light"},
         {"hostile", "storage-hostile"}};

    std::printf("durability frontier — %s, MasterSP durable log "
                "(20 ms WAL, 20 ms linger, 16-record batches), "
                "%.0f inv/min x %zu arrivals\n\n",
                bench.name.c_str(), kRatePerMinute, invocations);

    // Every (mode, preset) cell is an independent simulation —
    // fan them out through the campaign pool.
    std::vector<std::function<CellResult()>> jobs;
    for (const auto& mode : modes) {
        for (const auto& [label, preset] : presets) {
            jobs.push_back([mode, preset, bench, invocations] {
                return runCell(mode, preset, bench, invocations);
            });
        }
    }
    const std::vector<CellResult> cells =
        runCampaign(jobs, opts.campaignWidth());

    TextTable table;
    table.setHeader({"mode", "faults", "done", "p50 (ms)",
                     "p99 (ms)", "batches", "rollbacks",
                     "rolledback", "mismatch"});
    std::map<std::string, const CellResult*> by_key;
    size_t job = 0;
    for (const auto& mode : modes) {
        for (const auto& [label, preset] : presets) {
            const CellResult& cell = cells[job++];
            by_key[mode + "_" + label] = &cell;
            table.addRow(
                {mode, label,
                 strFormat("%zu/%zu", cell.completed, cell.expected),
                 ms(cell.p50_ms), ms(cell.p99_ms),
                 strFormat("%llu", static_cast<unsigned long long>(
                                       cell.batches)),
                 strFormat("%llu", static_cast<unsigned long long>(
                                       cell.rollbacks)),
                 strFormat("%llu",
                           static_cast<unsigned long long>(
                               cell.rolled_back_nodes)),
                 strFormat("%llu",
                           static_cast<unsigned long long>(
                               cell.digest_misses +
                               cell.replay_mismatches))});

            const std::string prefix = mode + "_" + label + "_";
            report.pin(prefix + "p50_ms", cell.p50_ms);
            report.pin(prefix + "p99_ms", cell.p99_ms);
            report.pin(prefix + "rollbacks",
                       static_cast<double>(cell.rollbacks));
            report.pin(prefix + "rolled_back_nodes",
                       static_cast<double>(
                           cell.rolled_back_nodes));
            // Pinned correctness invariants: any drift from zero
            // (or from full completion) fails the golden check,
            // not just this printout.
            report.pin(prefix + "incomplete",
                       static_cast<double>(cell.expected -
                                           cell.completed));
            report.pin(prefix + "digest_misses",
                       static_cast<double>(cell.digest_misses));
            report.pin(prefix + "replay_mismatches",
                       static_cast<double>(
                           cell.replay_mismatches));
            report.pin(prefix + "duplicate_executions",
                       static_cast<double>(
                           cell.duplicate_executions));
            report.pin(prefix + "timeouts",
                       static_cast<double>(cell.timeouts));
        }
    }
    std::printf("%s\n", table.str().c_str());

    // The headline frontier claim: with no faults injected,
    // speculation buys back the latency sync spends waiting on
    // WAL acks (the pinned ratio stays above 1).
    const double sync_p99 = by_key["sync_none"]->p99_ms;
    const double spec_p99 = by_key["spec_none"]->p99_ms;
    report.pin("fault_free_sync_over_spec_p99", sync_p99 / spec_p99);
    std::printf("fault-free p99: sync %.1f ms vs speculative "
                "%.1f ms (%.2fx)\n",
                sync_p99, spec_p99, sync_p99 / spec_p99);
}

}  // namespace faasflow::bench
