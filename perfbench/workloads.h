#ifndef FAASFLOW_PERFBENCH_WORKLOADS_H_
#define FAASFLOW_PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/** montage, paper_sweep and tenants, in that order. */
const std::vector<std::string>& workloadNames();

/** One window: the workload's fixed input, simulated to completion on
 *  fresh Systems (one per paper_sweep cell, one otherwise). */
struct WindowSpec
{
    std::string workload;
    uint64_t seed = 1;
    /**
     * Half-size input, for the complexity probe: montage builds a
     * 1k-node DAG instead of a 2k-node one; paper_sweep offers half the
     * invocations per cell; tenants stops arrivals at half the horizon.
     */
    bool half = false;
    /** Enables System::trace() after set-up, then attributes, exports
     *  and replays what it recorded. */
    bool traced = false;
    /** Run id stamped on the window's spans. */
    int run = 0;
    /** Wall-clock budget: a window still simulating past it overruns. */
    std::chrono::steady_clock::time_point deadline;
};

/** What one window measured. Counts are summed over its Systems. */
struct Window
{
    /** Host time from the window's start to its first measured submit,
     *  and host time spent driving the measured runs (seconds). */
    double setup_s = 0.0;
    double run_s = 0.0;

    /** The window ran past its wall-clock budget; nothing else in it is
     *  complete. */
    bool overrun = false;
    /** Output checks that failed, each naming the check. */
    std::vector<std::string> failed_checks;

    /** FNV-1a over the records in id order (submit, finish, timed_out,
     *  output_digest), folded over the Systems in order. */
    uint64_t digest = 0;

    /**
     * Median and p99 end-to-end latency (ms, from the offered instant) of
     * each System's completed invocations, in System order, and the
     * number of samples behind them. Timed-out and shed invocations are
     * failures: they count against completed / offered instead, so a
     * tail clamped at the invocation timeout never stands in for a
     * latency.
     */
    std::vector<double> cell_p50_ms;
    std::vector<double> cell_p99_ms;
    size_t e2e_samples = 0;
    uint64_t offered = 0;
    uint64_t completed = 0;
    uint64_t timed_out = 0;
    uint64_t shed = 0;

    /** One summary line per System, for the report. */
    std::vector<std::string> cells;

    /** Per-layer metrics by name (see BENCHMARK.json). Host times are
     *  not here; they are read from the window's spans. */
    std::map<std::string, double> layer;
};

/** Runs one window; spans are recorded into `spans` under spec.run. */
Window runWindow(const WindowSpec& spec, SpanLog& spans);

}  // namespace perfbench

#endif  // FAASFLOW_PERFBENCH_WORKLOADS_H_
