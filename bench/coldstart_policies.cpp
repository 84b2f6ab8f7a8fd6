/**
 * @file
 * Extension bench: idle-container keep-alive policies under memory
 * pressure (the cold-start mitigation space of the paper's related
 * work — fixed lifetimes, FaasCache's Greedy-Dual caching, and the two
 * extremes). Workers are shrunk so warm containers genuinely compete
 * for memory, and four workflows co-run to create reuse skew.
 */
#include <cstdio>

#include "harness.h"
#include "sections.h"

namespace {

using namespace faasflow;

struct PolicyResult
{
    uint64_t cold_starts = 0;
    uint64_t warm_hits = 0;
    uint64_t evictions = 0;
    double p99_ms = 0;
    double mean_ms = 0;
};

PolicyResult
runPolicy(cluster::KeepAlivePolicy policy, size_t arrivals)
{
    SystemConfig config = SystemConfig::faasflowFaastore();
    // Small nodes: only ~14 containers fit, so retention matters.
    config.cluster.node.memory = 5 * kGiB;
    config.cluster.node.reserved_memory = 1 * kGiB;
    config.cluster.node.pool.keep_alive = policy;
    config.cluster.worker_count = 3;

    System system(config);
    std::vector<std::string> names;
    for (auto& bench : benchmarks::realWorldBenchmarks())
        names.push_back(bench::deployBenchmark(system, bench, false, 6));
    system.metrics().clear();

    std::vector<std::unique_ptr<OpenLoopClient>> clients;
    uint64_t seed = 11;
    for (const auto& name : names) {
        clients.push_back(std::make_unique<OpenLoopClient>(
            system, name, 30.0, arrivals, Rng(seed++)));
        clients.back()->start();
    }
    system.run();

    PolicyResult result;
    for (size_t w = 0; w < system.cluster().workerCount(); ++w) {
        const auto& pool = system.cluster().worker(w).pool();
        result.cold_starts += pool.coldStarts();
        result.warm_hits += pool.warmHits();
        result.evictions += pool.pressureEvictions();
    }
    Percentiles e2e;
    for (const auto& name : names)
        e2e.merge(system.metrics().e2e(name));
    result.p99_ms = e2e.p99();
    result.mean_ms = e2e.mean();
    return result;
}

}  // namespace

namespace faasflow::bench {

void
runColdstartPolicies(const RunOptions& opts, Report& report)
{
    const size_t arrivals = opts.scaled(150, 40);

    std::printf(
        "Keep-alive policy comparison: 4 real-world workflows, "
        "open loop 30 inv/min each,\nsmall (5 GB) workers so warm "
        "containers contend for memory\n\n");

    TextTable table;
    table.setHeader({"policy", "cold starts", "warm hits",
                     "pressure evictions", "mean e2e (ms)",
                     "p99 e2e (ms)"});
    struct Named
    {
        const char* label;
        const char* key;
        cluster::KeepAlivePolicy policy;
    };
    for (const Named named :
         {Named{"AlwaysCold (no reuse)", "alwayscold",
                cluster::KeepAlivePolicy::AlwaysCold},
          Named{"FixedLifetime 600s (paper)", "fixedlifetime",
                cluster::KeepAlivePolicy::FixedLifetime},
          Named{"GreedyDual (FaasCache)", "greedydual",
                cluster::KeepAlivePolicy::GreedyDual},
          Named{"NeverEvict (upper bound)", "neverevict",
                cluster::KeepAlivePolicy::NeverEvict}}) {
        const PolicyResult r = runPolicy(named.policy, arrivals);
        report.pin(strFormat("%s_cold_starts", named.key),
                   static_cast<double>(r.cold_starts));
        report.pin(strFormat("%s_warm_hits", named.key),
                   static_cast<double>(r.warm_hits));
        report.pin(strFormat("%s_evictions", named.key),
                   static_cast<double>(r.evictions));
        report.pin(strFormat("%s_mean_ms", named.key), r.mean_ms);
        report.pin(strFormat("%s_p99_ms", named.key), r.p99_ms);
        table.addRow(
            {named.label,
             strFormat("%llu", static_cast<unsigned long long>(
                                   r.cold_starts)),
             strFormat("%llu", static_cast<unsigned long long>(
                                   r.warm_hits)),
             strFormat("%llu", static_cast<unsigned long long>(
                                   r.evictions)),
             ms(r.mean_ms), ms(r.p99_ms)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf(
        "-> AlwaysCold pays a cold start on every invocation. "
        "FixedLifetime avoids cold starts but\n   idle containers "
        "pin memory until the 600 s timer, starving other "
        "functions' creations\n   under pressure (queueing drives "
        "the tail into the 60 s timeout). Greedy-Dual reclaims "
        "the\n   least valuable idle container on demand and "
        "approaches the NeverEvict upper bound while\n   still "
        "bounding memory.\n");
}

}  // namespace faasflow::bench
