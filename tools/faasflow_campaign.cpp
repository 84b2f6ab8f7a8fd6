/**
 * @file
 * Parallel campaign driver: runs N independent replicas of one paper
 * benchmark (each with its own System instance and arrival seed) across
 * a worker-thread pool, then reports per-run and aggregate latency.
 *
 * A replica is a complete single-threaded simulation; replicas share
 * nothing, so the campaign parallelises embarrassingly and every run's
 * result is bit-identical no matter the thread count or interleaving.
 * To make that property checkable rather than asserted, the tool re-runs
 * the first seed a second time and compares a digest over the raw e2e
 * sample bits; `--selftest` additionally replays the whole campaign
 * sequentially and requires every digest to match.
 *
 * `--chaos` switches the campaign into fault-injection verification
 * mode: every seed first runs fault-free (the *golden* run), then again
 * under a randomized fault schedule drawn from a scenario profile
 * (light/heavy/storage-hostile) with a forced master crash mid-horizon,
 * on a durable-progress-log configuration. Each chaos run must (1)
 * complete every invocation without timeouts, (2) produce per-invocation
 * output digests byte-identical to its golden twin, (3) execute no node
 * twice within one drive epoch, and (4) replay log state equal to the
 * master's pre-crash in-memory state. Any violation fails the campaign.
 *
 * Usage:
 *   faasflow_campaign [--bench Gen] [--runs 8] [--threads N]
 *                     [--config faastore|hyperflow] [--rate 6]
 *                     [--invocations 200] [--seed 1000] [--selftest]
 *                     [--chaos] [--profile heavy] [--smoke]
 *                     [--durability sync|group_commit|speculative]
 *
 * `--durability` picks the progress-log commit discipline of the chaos
 * configuration (DESIGN.md §8.5). Speculative mode dispatches downstream
 * work before records are durable, so crashes roll speculated nodes
 * back; the campaign invariants (golden-digest match, zero duplicate
 * executions, zero replay mismatches) must hold in every mode.
 */
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/campaign.h"
#include "common/string_util.h"
#include "harness.h"

namespace {

using namespace faasflow;

struct Options
{
    std::string bench = "Gen";
    size_t runs = 8;
    unsigned threads = 0;  // 0 -> campaignThreads()
    bool faastore = true;
    double rate_per_minute = 6.0;
    size_t invocations = 200;
    uint64_t seed = 1000;
    bool selftest = false;
    bool chaos = false;
    bool smoke = false;
    std::string profile = "heavy";
    /** Progress-log durability mode of the chaos configuration:
     *  sync, group_commit or speculative. */
    std::string durability = "sync";
    /** When set, one extra sequential replica of the first seed runs
     *  with the activity recorder on and its Chrome trace lands here
     *  (the chaos twin of that seed when --chaos is on). */
    std::string trace_path;
};

struct RunResult
{
    uint64_t seed = 0;
    size_t count = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double mean_ms = 0.0;
    uint64_t cold_starts = 0;
    uint64_t digest = 0;  ///< FNV-1a over the raw e2e sample bits
};

uint64_t
digestSamples(const std::vector<double>& samples)
{
    uint64_t h = kFnv1aBasis;
    for (const double s : samples) {
        uint64_t bits;
        std::memcpy(&bits, &s, sizeof(bits));
        h = fnv1aFoldWord(h, bits);
    }
    return h;
}

RunResult
runReplica(const Options& opt, const benchmarks::Benchmark& bench,
           uint64_t seed)
{
    const SystemConfig config = opt.faastore
                                    ? SystemConfig::faasflowFaastore()
                                    : SystemConfig::hyperflowServerless();
    System system(config);
    const std::string name = bench::deployBenchmark(system, bench);
    bench::runOpenLoop(system, name, opt.rate_per_minute, opt.invocations,
                       seed);
    const Percentiles& e2e = system.metrics().e2e(name);
    RunResult r;
    r.seed = seed;
    r.count = e2e.count();
    r.p50_ms = e2e.p50();
    r.p99_ms = e2e.p99();
    r.mean_ms = e2e.mean();
    r.cold_starts = system.metrics().coldStarts(name);
    r.digest = digestSamples(e2e.samples());
    return r;
}

/** One golden-vs-chaos verification pass for a single seed. */
struct ChaosResult
{
    uint64_t seed = 0;
    size_t expected = 0;    ///< invocations submitted per pass
    size_t completed = 0;   ///< chaos-pass invocations that finished
    uint64_t timeouts = 0;
    uint64_t fault_events = 0;
    uint64_t recoveries = 0;
    uint64_t master_crashes = 0;
    uint64_t master_replays = 0;
    uint64_t replay_mismatches = 0;
    uint64_t duplicate_executions = 0;
    uint64_t redriven_nodes = 0;
    uint64_t rollbacks = 0;          ///< crashes that lost buffered records
    uint64_t rolled_back_nodes = 0;  ///< speculated nodes unwound + redriven
    size_t in_flight = 0;      ///< invocations stuck live after drain
    size_t digest_misses = 0;  ///< chaos digests != golden digests
    uint64_t digest = 0;       ///< fold of (id, output digest) pairs
    bool ok = false;
    std::string failure;  ///< first violated invariant, empty when ok
};

/** Output digests of one measured pass, keyed by invocation id. */
struct PassOutput
{
    std::map<uint64_t, uint64_t> digests;
    uint64_t timeouts = 0;
};

/**
 * Schedules `n` Poisson arrivals on `system` and drains them; each
 * completed invocation records its output digest. The arrival train
 * depends only on (seed, rate, n), so the golden and chaos passes of
 * one replica submit identical invocation sequences.
 */
PassOutput
runMeasuredPass(System& system, const std::string& name,
                double rate_per_minute, size_t n, uint64_t seed)
{
    PassOutput out;
    Rng rng(seed);
    SimTime t = system.simulator().now();
    for (size_t i = 0; i < n; ++i) {
        t += SimTime::seconds(rng.exponential(60.0 / rate_per_minute));
        system.simulator().scheduleAt(t, [&system, &out, name] {
            system.invoke(
                name, [&out](const engine::InvocationRecord& r) {
                    if (r.timed_out)
                        ++out.timeouts;
                    out.digests[r.invocation_id] = r.output_digest;
                });
        });
    }
    system.run();
    return out;
}

SystemConfig
chaosConfig(const Options& opt)
{
    SystemConfig config = opt.faastore ? SystemConfig::faasflowFaastore()
                                       : SystemConfig::hyperflowServerless();
    config.durable_log = true;
    if (opt.durability == "group_commit")
        config.durability_mode = engine::DurabilityMode::GroupCommit;
    else if (opt.durability == "speculative")
        config.durability_mode = engine::DurabilityMode::Speculative;
    if (config.durability_mode != engine::DurabilityMode::Sync) {
        // Stretch the linger window to the chaos timescale so crashes
        // actually land inside open speculation windows and the rollback
        // path gets exercised, not just the happy batched path.
        config.progress_log.batch_window = SimTime::millis(200);
        config.progress_log.batch_max_records = 64;
    }
    // Recovery stretches latencies; only a stuck invocation should ever
    // hit the watchdog (a timeout fails the run's completeness check).
    config.invocation_timeout = SimTime::seconds(600);
    return config;
}

/** The randomized fault schedule of one chaos replica, shifted past the
 *  deployment's current time, with the forced mid-horizon master crash. */
sim::FaultSchedule
buildChaosSchedule(const Options& opt, System& system, uint64_t seed)
{
    sim::RandomFaultParams params;
    if (!sim::RandomFaultParams::preset(opt.profile, params))
        params = sim::RandomFaultParams::heavy();
    const SimTime horizon = SimTime::seconds(
        static_cast<double>(opt.invocations) * 60.0 / opt.rate_per_minute);
    const sim::FaultSchedule drawn = sim::FaultSchedule::random(
        seed ^ 0xc4a0a51ull,
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
    shifted.addMasterCrash(base + horizon * 0.5, SimTime::millis(800));
    return shifted;
}

ChaosResult
runChaosReplica(const Options& opt, const benchmarks::Benchmark& bench,
                uint64_t seed)
{
    ChaosResult r;
    r.seed = seed;
    r.expected = opt.invocations;

    // Golden pass: identical deployment and arrivals, zero faults.
    PassOutput golden;
    {
        System system(chaosConfig(opt));
        const std::string name = bench::deployBenchmark(system, bench);
        golden = runMeasuredPass(system, name, opt.rate_per_minute,
                                 opt.invocations, seed);
    }

    // Chaos pass: same seed, plus a randomized fault schedule offset to
    // start after warm-up, with a forced master crash mid-horizon so
    // every run exercises failover even at low drawn rates.
    System system(chaosConfig(opt));
    const std::string name = bench::deployBenchmark(system, bench);

    const sim::FaultSchedule shifted =
        buildChaosSchedule(opt, system, seed);
    r.fault_events = shifted.size();
    if (std::getenv("FAASFLOW_CHAOS_DEBUG"))
        std::fprintf(stderr, "seed %llu schedule (base %.3fs):\n%s",
                     static_cast<unsigned long long>(seed),
                     system.simulator().now().secondsF(),
                     shifted.summary().c_str());
    system.installFaults(shifted);

    const PassOutput chaos = runMeasuredPass(
        system, name, opt.rate_per_minute, opt.invocations, seed);

    r.completed = chaos.digests.size();
    r.timeouts = chaos.timeouts + golden.timeouts;
    r.in_flight = system.inFlight();
    const auto& rs = system.recoveryStats();
    r.recoveries = rs.recoveries;
    r.master_crashes = rs.master_crashes;
    r.master_replays = rs.master_replays;
    r.replay_mismatches = rs.replay_mismatches;
    r.rollbacks = rs.rollbacks;
    r.rolled_back_nodes = rs.rolled_back_nodes;
    const auto& m = system.metrics();
    r.duplicate_executions = m.duplicateExecutions(name);
    r.redriven_nodes = m.redrivenNodes(name);

    // Byte-match against the golden twin, and fold the run digest.
    uint64_t h = kFnv1aBasis;
    for (const auto& [id, digest] : chaos.digests) {
        const auto g = golden.digests.find(id);
        if (g == golden.digests.end() || g->second != digest)
            ++r.digest_misses;
        h = fnv1aFoldWord(fnv1aFoldWord(h, id), digest);
    }
    r.digest = h;

    if (r.completed != r.expected) {
        r.failure = strFormat("%zu/%zu invocations completed", r.completed,
                              r.expected);
    } else if (r.timeouts > 0) {
        r.failure = strFormat(
            "%llu timeouts", static_cast<unsigned long long>(r.timeouts));
    } else if (r.in_flight > 0) {
        r.failure = strFormat("%zu invocations stuck live", r.in_flight);
    } else if (r.digest_misses > 0) {
        r.failure = strFormat("%zu outputs diverged from golden run",
                              r.digest_misses);
    } else if (r.duplicate_executions > 0) {
        r.failure = strFormat("%llu same-epoch double executions",
                              static_cast<unsigned long long>(
                                  r.duplicate_executions));
    } else if (r.replay_mismatches > 0) {
        r.failure = strFormat("%llu replay/state mismatches",
                              static_cast<unsigned long long>(
                                  r.replay_mismatches));
    } else {
        r.ok = true;
    }
    return r;
}

/**
 * One extra sequential replica of the first seed with the activity
 * recorder on, written as a Chrome trace. Tracing costs no simulated
 * time, so the traced twin reproduces the measured replica exactly —
 * in chaos mode it carries the injected fault/recovery spans too.
 */
void
writeExemplarTrace(const Options& opt, const benchmarks::Benchmark& bench)
{
    SystemConfig config;
    if (opt.chaos) {
        config = chaosConfig(opt);
    } else {
        config = opt.faastore ? SystemConfig::faasflowFaastore()
                              : SystemConfig::hyperflowServerless();
    }
    System system(config);
    system.trace().enable();
    const std::string name = bench::deployBenchmark(system, bench);
    if (opt.chaos)
        system.installFaults(buildChaosSchedule(opt, system, opt.seed));
    runMeasuredPass(system, name, opt.rate_per_minute, opt.invocations,
                    opt.seed);
    std::ofstream out(opt.trace_path);
    out << system.trace().toChromeTraceText();
    std::printf("traced %sreplica of seed %llu written to %s "
                "(%zu spans, %zu flows)\n",
                opt.chaos ? "chaos " : "",
                static_cast<unsigned long long>(opt.seed),
                opt.trace_path.c_str(), system.trace().eventCount(),
                system.trace().flowCount());
}

const benchmarks::Benchmark*
findBenchmark(const std::vector<benchmarks::Benchmark>& all,
              const std::string& name)
{
    for (const auto& b : all) {
        if (b.name == name)
            return &b;
    }
    return nullptr;
}

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--bench NAME] [--runs N] [--threads T]\n"
        "          [--config faastore|hyperflow] [--rate R/min]\n"
        "          [--invocations N] [--seed S] [--selftest]\n"
        "          [--chaos] [--profile light|heavy|storage-hostile]\n"
        "          [--durability sync|group_commit|speculative]\n"
        "          [--smoke] [--trace FILE]\n"
        "benchmarks: Cyc Epi Gen Soy Vid IR FP WC\n",
        argv0);
}

int
runChaosCampaign(const Options& opt, const benchmarks::Benchmark& bench,
                 unsigned threads)
{
    std::printf("chaos campaign: %s / %s, profile %s, durability %s, "
                "%zu seeds x %zu invocations @ %.1f inv/min, %u threads\n",
                bench.name.c_str(),
                opt.faastore ? "FaaSFlow-FaaStore" : "HyperFlow-serverless",
                opt.profile.c_str(), opt.durability.c_str(), opt.runs,
                opt.invocations, opt.rate_per_minute, threads);

    // One job per seed, plus a repeat of the first seed as the
    // determinism probe (the run digest must be bit-identical whatever
    // thread executed either copy).
    std::vector<std::function<ChaosResult()>> jobs;
    jobs.reserve(opt.runs + 1);
    for (size_t r = 0; r < opt.runs; ++r) {
        const uint64_t seed = opt.seed + r;
        jobs.push_back([&opt, &bench, seed] {
            return runChaosReplica(opt, bench, seed);
        });
    }
    jobs.push_back(
        [&opt, &bench] { return runChaosReplica(opt, bench, opt.seed); });

    const std::vector<ChaosResult> results =
        bench::runCampaign(jobs, threads);

    const auto u64 = [](uint64_t v) {
        return strFormat("%llu", static_cast<unsigned long long>(v));
    };
    TextTable table;
    table.setHeader({"seed", "done", "faults", "recov", "crash", "replay",
                     "redriven", "rolledback", "digest", "verdict"});
    size_t failures = 0;
    for (size_t r = 0; r < opt.runs; ++r) {
        const ChaosResult& run = results[r];
        if (!run.ok)
            ++failures;
        table.addRow({u64(run.seed),
                      strFormat("%zu/%zu", run.completed, run.expected),
                      u64(run.fault_events), u64(run.recoveries),
                      u64(run.master_crashes), u64(run.master_replays),
                      u64(run.redriven_nodes), u64(run.rolled_back_nodes),
                      strFormat("%016llx", static_cast<unsigned long long>(
                                               run.digest)),
                      run.ok ? "ok" : run.failure});
    }
    std::printf("%s\n", table.str().c_str());

    const ChaosResult& first = results[0];
    const ChaosResult& repeat = results[opt.runs];
    const bool deterministic = first.digest == repeat.digest &&
                               first.completed == repeat.completed;
    std::printf("determinism (seed %llu run twice): %s\n",
                static_cast<unsigned long long>(opt.seed),
                deterministic ? "bit-identical" : "MISMATCH");

    if (opt.selftest) {
        const std::vector<ChaosResult> sequential =
            bench::runCampaign(jobs, 1);
        for (size_t r = 0; r < results.size(); ++r) {
            if (results[r].digest != sequential[r].digest) {
                std::printf("selftest: run %zu diverged between %u-thread "
                            "and sequential execution\n",
                            r, threads);
                return 1;
            }
        }
        std::printf("selftest: %zu runs bit-identical between %u-thread "
                    "and sequential execution\n",
                    results.size(), threads);
    }

    if (failures > 0) {
        std::printf("chaos: %zu/%zu runs violated invariants\n", failures,
                    opt.runs);
        return 1;
    }
    if (!deterministic)
        return 1;
    std::printf("chaos: all %zu runs completed, matched their golden "
                "outputs, and held every invariant\n",
                opt.runs);
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--bench") {
            opt.bench = next();
        } else if (arg == "--runs") {
            opt.runs = static_cast<size_t>(std::strtoull(next(), nullptr, 10));
        } else if (arg == "--threads") {
            opt.threads =
                static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        } else if (arg == "--config") {
            const std::string mode = next();
            if (mode == "faastore") {
                opt.faastore = true;
            } else if (mode == "hyperflow") {
                opt.faastore = false;
            } else {
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--rate") {
            opt.rate_per_minute = std::strtod(next(), nullptr);
        } else if (arg == "--invocations") {
            opt.invocations =
                static_cast<size_t>(std::strtoull(next(), nullptr, 10));
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--selftest") {
            opt.selftest = true;
        } else if (arg == "--chaos") {
            opt.chaos = true;
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--profile") {
            opt.profile = next();
        } else if (arg == "--durability") {
            opt.durability = next();
            if (opt.durability != "sync" &&
                opt.durability != "group_commit" &&
                opt.durability != "speculative") {
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--trace") {
            opt.trace_path = next();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (opt.runs == 0) {
        usage(argv[0]);
        return 2;
    }

    const auto all = benchmarks::allBenchmarks();
    const benchmarks::Benchmark* bench = findBenchmark(all, opt.bench);
    if (!bench) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", opt.bench.c_str());
        usage(argv[0]);
        return 2;
    }

    const unsigned threads =
        opt.threads ? opt.threads : bench::campaignThreads();

    if (opt.smoke) {
        // CI-sized chaos runs: short arrival trains, dense enough
        // arrivals that fault windows overlap in-flight work.
        opt.invocations = 10;
        opt.rate_per_minute = 30.0;
    }
    if (opt.chaos) {
        const int rc = runChaosCampaign(opt, *bench, threads);
        if (!opt.trace_path.empty())
            writeExemplarTrace(opt, *bench);
        return rc;
    }

    std::printf("campaign: %s / %s, %zu runs x %zu invocations @ %.1f "
                "inv/min, seeds %llu.., %u threads\n",
                bench->name.c_str(),
                opt.faastore ? "FaaSFlow-FaaStore" : "HyperFlow-serverless",
                opt.runs, opt.invocations, opt.rate_per_minute,
                static_cast<unsigned long long>(opt.seed), threads);

    // Job list: one replica per seed, plus a repeat of the first seed
    // appended at the end as the determinism probe.
    std::vector<std::function<RunResult()>> jobs;
    jobs.reserve(opt.runs + 1);
    for (size_t r = 0; r < opt.runs; ++r) {
        const uint64_t seed = opt.seed + r;
        jobs.push_back([&opt, bench, seed] {
            return runReplica(opt, *bench, seed);
        });
    }
    jobs.push_back([&opt, bench] {
        return runReplica(opt, *bench, opt.seed);
    });

    const std::vector<RunResult> results = bench::runCampaign(jobs, threads);

    TextTable table;
    table.setHeader({"seed", "done", "p50 (ms)", "p99 (ms)", "mean (ms)",
                     "cold", "digest"});
    Percentiles p99s;
    for (size_t r = 0; r < opt.runs; ++r) {
        const RunResult& run = results[r];
        p99s.add(run.p99_ms);
        table.addRow({strFormat("%llu",
                                static_cast<unsigned long long>(run.seed)),
                      strFormat("%zu", run.count),
                      strFormat("%.1f", run.p50_ms),
                      strFormat("%.1f", run.p99_ms),
                      strFormat("%.1f", run.mean_ms),
                      strFormat("%llu",
                                static_cast<unsigned long long>(
                                    run.cold_starts)),
                      strFormat("%016llx",
                                static_cast<unsigned long long>(
                                    run.digest))});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("across seeds: p99 min %.1f / median %.1f / max %.1f ms\n",
                p99s.min(), p99s.p50(), p99s.max());

    // Determinism probe: the appended duplicate of seed[0] must match the
    // original bit for bit, whatever thread ran either of them.
    const RunResult& first = results[0];
    const RunResult& repeat = results[opt.runs];
    const bool deterministic = first.digest == repeat.digest &&
                               first.count == repeat.count;
    std::printf("determinism (seed %llu run twice): %s\n",
                static_cast<unsigned long long>(opt.seed),
                deterministic ? "bit-identical" : "MISMATCH");
    if (!deterministic)
        return 1;

    if (opt.selftest) {
        // Replay the whole campaign sequentially and require identical
        // digests — proves thread count cannot leak into results.
        const std::vector<RunResult> sequential =
            bench::runCampaign(jobs, 1);
        for (size_t r = 0; r < results.size(); ++r) {
            if (results[r].digest != sequential[r].digest) {
                std::printf("selftest: run %zu diverged between %u-thread "
                            "and sequential execution\n",
                            r, threads);
                return 1;
            }
        }
        std::printf("selftest: %zu runs bit-identical between %u-thread "
                    "and sequential execution\n",
                    results.size(), threads);
    }
    if (!opt.trace_path.empty())
        writeExemplarTrace(opt, *bench);
    return 0;
}
