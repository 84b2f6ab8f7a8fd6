/**
 * @file
 * Simulator hot-path checks. Unlike the figure benches (which reproduce
 * paper results), this one looks at the *simulator itself*:
 *
 *   1. p99 of a reduced Fig. 12-style end-to-end sweep
 *   2. campaign bit-identity: the same job set at 1 thread vs 4 threads
 *   3. span and sample counts of one traced, profiled run
 *
 * All of it is simulated output and is pinned. Host time of the
 * production System, the event queue's included, is perfbench's job.
 */
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/campaign.h"
#include "harness.h"
#include "sections.h"

namespace {

using namespace faasflow;

// ---------------------------------------------------------------------
// 1 + 2. End-to-end sweep and campaign bit-identity.

double
sweepPointP99(double bandwidth, size_t invocations)
{
    SystemConfig config = SystemConfig::faasflowFaastore();
    config.cluster.storage_bandwidth = bandwidth;
    System system(config);
    const std::string name =
        bench::deployBenchmark(system, benchmarks::videoFfmpeg());
    bench::runOpenLoop(system, name, 6.0, invocations);
    return system.metrics().e2e(name).p99();
}

// ---------------------------------------------------------------------
// 3. One run with the activity recorder and the online profile store
// both on. Both are sim-inert, so their counts are simulated output.

struct ObservedCounts
{
    size_t spans = 0;
    size_t samples = 0;
};

ObservedCounts
tracedProfiledRun(size_t invocations)
{
    System system(SystemConfig::faasflowFaastore());
    system.trace().enable();
    system.profile().enable();
    const std::string name =
        bench::deployBenchmark(system, benchmarks::videoFfmpeg());
    bench::runOpenLoop(system, name, 6.0, invocations);
    return {system.trace().eventCount(),
            system.profile().nodeSampleCount() +
                system.profile().edgeSampleCount()};
}

}  // namespace

namespace faasflow::bench {

void
runPerfHotpaths(const RunOptions& opts, Report& report)
{
    const size_t sweep_invocations = opts.scaled(200, 40);
    const size_t campaign_jobs = opts.scaled(4, 2);

    std::printf("perf_hotpaths%s\n", opts.smoke ? " (smoke)" : "");

    for (const double bw : {25e6, 100e6}) {
        const double p99 = sweepPointP99(bw, sweep_invocations);
        report.pin(strFormat("sweep_p99_ms_bw%d", (int)(bw / 1e6)), p99);
    }

    // Campaign bit-identity: same jobs, 1 thread vs a fixed 4, so the
    // pin means the same at every harness width. Meaningful on any
    // host, single-core included.
    std::vector<std::function<double()>> jobs;
    for (size_t j = 0; j < campaign_jobs; ++j) {
        jobs.push_back([sweep_invocations] {
            return sweepPointP99(50e6, sweep_invocations);
        });
    }
    const std::vector<double> seq = runCampaign(jobs, 1);
    constexpr unsigned threads = 4;
    const std::vector<double> par = runCampaign(jobs, threads);
    bool identical = true;
    for (size_t j = 0; j < jobs.size(); ++j)
        identical = identical && std::memcmp(&seq[j], &par[j],
                                             sizeof(double)) == 0;
    report.pin("campaign_jobs", static_cast<double>(campaign_jobs));
    report.pin("campaign_bit_identical", identical ? 1.0 : 0.0);
    std::printf("campaign (%zu jobs) @ 1 vs %u threads: results "
                "%s\n",
                campaign_jobs, threads,
                identical ? "bit-identical" : "MISMATCH");

    const ObservedCounts observed =
        tracedProfiledRun(sweep_invocations);
    report.pin("trace_spans", static_cast<double>(observed.spans));
    report.pin("profile_samples", static_cast<double>(observed.samples));
    std::printf("traced + profiled run (%zu invocations): %zu "
                "spans, %zu samples\n",
                sweep_invocations, observed.spans,
                observed.samples);
}

}  // namespace faasflow::bench
