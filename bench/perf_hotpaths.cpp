/**
 * @file
 * Simulator hot-path checks. Unlike the figure benches (which reproduce
 * paper results), this one looks at the *simulator itself*:
 *
 *   1. event-queue throughput on a deep (backlogged) schedule/cancel mix
 *   2. p99 of a reduced Fig. 12-style end-to-end sweep
 *   3. campaign bit-identity: the same job set at 1 thread vs N threads
 *   4. span and sample counts of one traced, profiled run
 *
 * All workload randomness is precomputed from fixed seeds, so the work
 * done is identical run to run and machine to machine. The event-queue
 * rate is host time, so it is printed but not pinned; host time of the
 * production System is perfbench's job. Everything else is simulated
 * output and is pinned.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "common/campaign.h"
#include "harness.h"
#include "sections.h"
#include "sim/event_queue.h"

namespace {

using namespace faasflow;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

// ---------------------------------------------------------------------
// 1. Event queue: schedule/cancel/pop churn.

struct EvqMix
{
    std::vector<int64_t> offsets;  ///< per-schedule time offset, µs
    std::vector<uint8_t> cancels;  ///< 1 = cancel this scheduled event
};

EvqMix
makeEvqMix(size_t events, uint64_t seed)
{
    EvqMix mix;
    mix.offsets.resize(events);
    mix.cancels.resize(events);
    std::mt19937_64 rng(seed);
    for (size_t i = 0; i < events; ++i) {
        // 1-in-8 schedules land on a nearly-shared timestamp (fan-out
        // bursts); the rest spread over a 1 ms sliding window. 1-in-4
        // events are cancelled, like retimed timeouts and ETA updates.
        const uint64_t r = rng();
        mix.offsets[i] = (r % 8 == 0) ? static_cast<int64_t>((r >> 8) % 16)
                                      : static_cast<int64_t>((r >> 8) % 1000);
        mix.cancels[i] = (r % 4 == 1) ? 1 : 0;
    }
    return mix;
}

/**
 * Runs the churn loop against a queue pre-filled with `backlog` events:
 * the steady state of a busy simulation where thousands of timers and
 * flow ETAs are in flight.
 */
double
evqEventsPerSec(size_t events, size_t backlog)
{
    const EvqMix mix = makeEvqMix(events + backlog, 42);
    sim::EventQueue q;
    std::vector<sim::EventId> cancel_batch;
    cancel_batch.reserve(64);
    size_t fired = 0;
    int64_t now = 0;
    size_t i = 0;
    for (; i < backlog; ++i) {
        q.schedule(SimTime::micros(now + 100 * mix.offsets[i]),
                   [&fired] { ++fired; });
    }
    const auto t0 = std::chrono::steady_clock::now();
    size_t scheduled = 0;
    while (scheduled < events) {
        for (int b = 0; b < 8 && scheduled < events; ++b, ++i) {
            const sim::EventId id =
                q.schedule(SimTime::micros(now + 100 * mix.offsets[i]),
                           [&fired] { ++fired; });
            ++scheduled;
            if (mix.cancels[i])
                cancel_batch.push_back(id);
        }
        for (const sim::EventId id : cancel_batch)
            q.cancel(id);
        cancel_batch.clear();
        SimTime when;
        sim::EventQueue::Callback fn;
        for (int b = 0; b < 6 && q.pop(when, fn); ++b) {
            now = when.micros();
            fn();
        }
    }
    SimTime when;
    sim::EventQueue::Callback fn;
    while (q.pop(when, fn))
        fn();
    return static_cast<double>(scheduled) / secondsSince(t0);
}

// ---------------------------------------------------------------------
// 2 + 3. End-to-end sweep and campaign bit-identity.

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
// 4. One run with the activity recorder and the online profile store
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
    const size_t evq_events = opts.scaled(2'000'000, 200'000);
    const size_t evq_backlog = opts.scaled(20'000, 5'000);
    const size_t sweep_invocations = opts.scaled(200, 40);
    const size_t campaign_jobs = opts.scaled(4, 2);

    std::printf("perf_hotpaths%s\n", opts.smoke ? " (smoke)" : "");

    const double evq_deep =
        evqEventsPerSec(evq_events, evq_backlog);
    std::printf("event queue, deep mix (%zu backlog): %.0f "
                "events/sec\n",
                evq_backlog, evq_deep);

    for (const double bw : {25e6, 100e6}) {
        const double p99 = sweepPointP99(bw, sweep_invocations);
        report.pin(strFormat("sweep_p99_ms_bw%d", (int)(bw / 1e6)), p99);
    }

    // Campaign bit-identity: same jobs, 1 thread vs the harness
    // width. Meaningful on any host, single-core included.
    std::vector<std::function<double()>> jobs;
    for (size_t j = 0; j < campaign_jobs; ++j) {
        jobs.push_back([sweep_invocations] {
            return sweepPointP99(50e6, sweep_invocations);
        });
    }
    const std::vector<double> seq = runCampaign(jobs, 1);
    const unsigned threads = opts.campaignWidth();
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
