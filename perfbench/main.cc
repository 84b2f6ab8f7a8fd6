/**
 * @file
 * `faasflow_perfbench`: times the production faasflow::System end to end
 * and per layer on one workload, checks its outputs, and prints every
 * metric by name with its unit. The last line of standard output is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   faasflow_perfbench --workload montage --seed 1 --seconds 10 --trace 0
 *
 * --trace 0 measures the end-to-end metrics over repeated untraced
 * windows (each one the workload's fixed input on fresh Systems) and
 * reports their medians, host times scaled to a reference host speed by a
 * probe timed between windows (see kProbeReferenceS; the measured seconds
 * are printed too). --trace 1 alternates half- and full-size
 * untraced windows, then runs one traced window whose spans, attribution
 * and network replay give the per-layer metrics. Everything runs in this
 * process, on one thread; `attempted` and `failed` count windows.
 */
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/**
 * About the host probe's time on an idle Intel Xeon 4-vCPU host. The
 * end-to-end host times are reported at that host speed: measured seconds
 * scaled by this over the run's median probe time. On a shared host the
 * measured seconds of one input swing by half between minutes; the
 * scaled ones swing about half as much.
 */
constexpr double kProbeReferenceS = 0.085;
/** Measured time between host probes. */
constexpr std::chrono::seconds kProbeEvery(1);

/** A healthy window takes a few seconds; one past this has overrun. */
constexpr std::chrono::seconds kWindowBudget(60);
/** No window starts or keeps running past this, so the process ends well
 *  inside three minutes whatever the program under test does. */
constexpr std::chrono::seconds kProcessBudget(150);

struct MetricDef
{
    const char* name;
    const char* unit;
};

// The names and units BENCHMARK.json lists, in its order.
const MetricDef kEndToEnd[] = {
    {"run_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_e2e_p50_ms", "ms"},
    {"sim_e2e_p99_ms", "ms"},
    {"sim_invocations", "count"},
    {"sim_completed_share", "ratio"},
};

const MetricDef kPerLayer[] = {
    {"workflow.build_s", "s"},
    {"workflow.nodes", "count"},
    {"workflow.edges", "count"},
    {"scheduler.deploy_s", "s"},
    {"scheduler.repartition_s", "s"},
    {"scheduler.groups", "count"},
    {"scheduler.cross_worker_edges", "count"},
    {"sim.events_fired", "count"},
    {"sim.events_scheduled", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.heap_compactions", "count"},
    {"sim.peak_heap", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"net.flows", "count"},
    {"net.messages", "count"},
    {"net.bytes", "B"},
    {"net.peak_active_flows", "count"},
    {"net.replay_s", "s"},
    {"net.replay_share", "ratio"},
    {"net.replay_mismatches", "count"},
    {"residual.non_net_s", "s"},
    {"engine.functions_executed", "count"},
    {"engine.sched_overhead_p50_ms", "ms"},
    {"engine.duplicate_executions", "count"},
    {"storage.remote_puts", "count"},
    {"storage.remote_gets", "count"},
    {"storage.local_saves", "count"},
    {"storage.remote_saves", "count"},
    {"storage.quota_rejections", "count"},
    {"storage.local_byte_share", "ratio"},
    {"cluster.cold_starts", "count"},
    {"cluster.container_wait_ms", "ms"},
    {"admission.offered", "count"},
    {"admission.admitted", "count"},
    {"admission.deferred", "count"},
    {"admission.shed", "count"},
    {"load.autoscaler_ticks", "count"},
    {"load.prewarms", "count"},
    {"load.trims", "count"},
    {"obs.traced_run_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"obs.spans", "count"},
    {"obs.attribution_s", "s"},
    {"obs.export_s", "s"},
    {"obs.profile_samples", "count"},
    {"attr.coldstart_ms", "ms"},
    {"attr.queue_ms", "ms"},
    {"attr.fetch_ms", "ms"},
    {"attr.exec_ms", "ms"},
    {"attr.save_ms", "ms"},
    {"attr.sched_ms", "ms"},
    {"sim_failed", "count"},
    {"system.doubling_ratio", "ratio"},
};

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string spans_path;
    std::string commit = "unknown";
    std::string source_digest = "unknown";
};

bool
parseArgs(int argc, char** argv, Args& args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value.c_str());
        } else if (flag == "--trace") {
            args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
        } else if (flag == "--spans") {
            args.spans_path = value;
        } else if (flag == "--commit") {
            args.commit = value;
        } else if (flag == "--source-digest") {
            args.source_digest = value;
        } else {
            return false;
        }
    }
    const auto& names = workloadNames();
    return argc % 2 == 1 && args.trace >= 0 && args.seconds > 0.0 &&
           std::find(names.begin(), names.end(), args.workload) !=
               names.end();
}

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += faasflow::strFormat("\\u%04x", c);
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Shortest text that reads back as the same double. */
std::string
number(double value)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

/** This process's peak resident set (VmHWM), in MB. getrusage's
 *  ru_maxrss would also count the parent's peak from before exec. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

/**
 * Host-speed probe: a fixed workload that shares no code with the
 * simulator but mixes the same kinds of work as its event loop, a pointer
 * chase over a 16 MB ring, a 64k-key binary heap, hash-map churn and
 * heap-allocated callbacks, so it slows with the simulator when other
 * tenants of a shared host take cores, caches or memory bandwidth.
 * Returns seconds.
 */
double
probeHost()
{
    // Sattolo's shuffle: one random cycle through every slot.
    static const std::vector<uint32_t> ring = [] {
        std::vector<uint32_t> next(1u << 22);
        for (uint32_t i = 0; i < next.size(); ++i)
            next[i] = i;
        uint64_t x = 88172645463325252ull;
        for (uint32_t i = static_cast<uint32_t>(next.size()) - 1; i > 0;
             --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(next[i], next[x % i]);
        }
        return next;
    }();
    const Clock::time_point start = Clock::now();
    uint32_t at = 0;
    uint64_t x = 1442695040888963407ull, sum = 0;
    std::vector<uint64_t> heap;
    std::unordered_map<uint64_t, std::function<uint64_t()>> live;
    live.reserve(8192);
    for (int i = 0; i < 300000; ++i) {
        at = ring[at];
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push_back((x >> 16) ^ at);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
        const uint64_t key = x & 8191;
        const auto it = live.find(key);
        if (it != live.end()) {
            sum += it->second();
            live.erase(it);
        } else {
            live.emplace(key, [x, at, pad = std::string(24, 'p')] {
                return x ^ at ^ pad.size();
            });
        }
        if (heap.size() > 65536) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<>());
            sum += heap.back();
            heap.pop_back();
        }
    }
    volatile uint64_t sink = sum + at;
    (void)sink;
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Geometric mean: one figure for a grid of Systems whose latencies
 *  differ by an order of magnitude, each cell weighing the same. */
double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return std::string(faasflow::trim(
                    std::string_view(line).substr(colon + 1)));
        }
    }
    return "unknown";
}

/** Host fingerprint plus the workload seed: absolute host times are only
 *  comparable between results whose fingerprints match. */
std::string
fingerprint(const Args& args)
{
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return faasflow::strFormat(
        "{\"cpu\": %s, \"nproc\": %ld, \"compiler\": %s, \"build_type\": %s, "
        "\"commit\": %s, \"source_digest\": %s, \"workload\": %s, "
        "\"seed\": %llu, \"trace\": %d}",
        jsonString(cpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
        jsonString(compiler).c_str(), jsonString(PERFBENCH_BUILD_TYPE).c_str(),
        jsonString(args.commit).c_str(),
        jsonString(args.source_digest).c_str(),
        jsonString(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed), args.trace);
}

void
writeSpans(const std::string& path, const std::string& print,
           const SpanLog& spans)
{
    std::ofstream out(path);
    out << "{\"fingerprint\": " << print << ",\n \"spans\": [";
    const auto& all = spans.spans();
    for (size_t i = 0; i < all.size(); ++i) {
        const SpanLog::Span& s = all[i];
        out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i + 1
            << ", \"name\": " << jsonString(s.name) << ", \"run\": " << s.run
            << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
            << ", \"end_ns\": " << s.end_ns << "}";
    }
    out << "\n]}\n";
    if (!out)
        std::fprintf(stderr, "warning: could not write spans to %s\n",
                     path.c_str());
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: faasflow_perfbench --workload "
                     "montage|paper_sweep|tenants --seed N --seconds S "
                     "--trace 0|1 [--spans FILE] [--commit C] "
                     "[--source-digest D]\n");
        return 2;
    }
    const std::string print = fingerprint(args);
    std::printf("fingerprint %s\n", print.c_str());

    SpanLog spans;
    const Clock::time_point start = Clock::now();
    const Clock::time_point hard_stop = start + kProcessBudget;
    int run = 0;
    std::vector<double> probes;
    Clock::time_point last_probe = start;
    double peak_rss_mb = 0.0;
    std::deque<Window> windows;
    std::vector<const Window*> full, half;
    const Window* traced = nullptr;
    int traced_run = 0;

    const auto runOne = [&](bool is_half, bool is_traced) -> const Window& {
        WindowSpec spec;
        spec.workload = args.workload;
        spec.seed = args.seed;
        spec.half = is_half;
        spec.traced = is_traced;
        spec.run = ++run;
        spec.deadline = std::min(hard_stop, Clock::now() + kWindowBudget);
        windows.push_back(runWindow(spec, spans));
        if (args.trace == 0) {
            // The probe's memory must not count: the peak is read before
            // the first probe runs.
            if (windows.size() == 1)
                peak_rss_mb = peakRssMb();
            if (Clock::now() - last_probe >= kProbeEvery) {
                probes.push_back(probeHost());
                last_probe = Clock::now();
            }
        }
        return windows.back();
    };
    const auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };

    bool overrun = false;
    if (args.trace == 0) {
        do {
            full.push_back(&runOne(false, false));
            overrun = full.back()->overrun;
        } while (!overrun &&
                 (elapsed() < args.seconds || full.size() < 3));
    } else {
        // The complexity probe alternates half- and full-size windows so
        // drift on the host hits both sizes alike.
        do {
            half.push_back(&runOne(true, false));
            overrun = half.back()->overrun;
            if (!overrun) {
                full.push_back(&runOne(false, false));
                overrun = full.back()->overrun;
            }
        } while (!overrun &&
                 (elapsed() < args.seconds || full.size() < 2));
        if (!overrun) {
            traced = &runOne(false, true);
            traced_run = run;
        }
    }

    // Output checks, per window and across windows.
    std::vector<std::string> failures;
    uint64_t failed_windows = 0;
    const auto checkWindow = [&](const Window& w, const Window* reference,
                                 const char* kind, size_t index) {
        std::vector<std::string> found = w.failed_checks;
        if (w.overrun)
            found.push_back("ran past its wall-clock budget");
        if (reference && !w.overrun && !reference->overrun &&
            w.digest != reference->digest) {
            found.push_back(faasflow::strFormat(
                "digest %016llx differs from %016llx, its reference window's",
                static_cast<unsigned long long>(w.digest),
                static_cast<unsigned long long>(reference->digest)));
        }
        for (const std::string& f : found)
            failures.push_back(faasflow::strFormat("%s window %zu: %s", kind,
                                                   index, f.c_str()));
        failed_windows += !found.empty();
    };
    for (size_t i = 0; i < full.size(); ++i)
        checkWindow(*full[i], i ? full[0] : nullptr, "full", i);
    for (size_t i = 0; i < half.size(); ++i)
        checkWindow(*half[i], i ? half[0] : nullptr, "half", i);
    if (traced)
        checkWindow(*traced, full.front(), "traced", 0);
    const bool correct = failures.empty() && (traced || args.trace == 0);

    std::vector<double> run_s, setup_s, half_run_s;
    for (const Window* w : full) {
        run_s.push_back(w->run_s);
        setup_s.push_back(w->setup_s);
    }
    for (const Window* w : half)
        half_run_s.push_back(w->run_s);
    const double run_median = median(run_s);
    const Window none;
    const Window& first = full.empty() ? none : *full.front();

    std::map<std::string, double> values;
    if (args.trace == 0) {
        if (probes.empty())
            probes.push_back(probeHost());
        const double host_speed = kProbeReferenceS / median(probes);
        values["run_s"] = run_median * host_speed;
        values["setup_s"] = median(setup_s) * host_speed;
        values["peak_rss_mb"] = peak_rss_mb;
        values["sim_e2e_p50_ms"] = geomean(first.cell_p50_ms);
        values["sim_e2e_p99_ms"] = geomean(first.cell_p99_ms);
        values["sim_invocations"] = static_cast<double>(first.offered);
        values["sim_completed_share"] =
            first.offered ? static_cast<double>(first.completed) /
                                static_cast<double>(first.offered)
                          : 0.0;
    } else {
        const Window& w = traced ? *traced : first;
        values = w.layer;
        const auto span_s = [&](const char* name) {
            return spans.seconds(traced_run, name);
        };
        const double replay_s = span_s("net.replay");
        values["workflow.build_s"] = span_s("workflow.build");
        values["scheduler.deploy_s"] = span_s("scheduler.deploy");
        values["scheduler.repartition_s"] = span_s("scheduler.repartition");
        values["net.replay_s"] = replay_s;
        values["net.replay_share"] = run_median > 0 ? replay_s / run_median : 0;
        values["residual.non_net_s"] = run_median - replay_s;
        values["obs.traced_run_s"] = span_s("system.run");
        values["obs.trace_overhead"] =
            run_median > 0 ? span_s("system.run") / run_median : 0.0;
        values["obs.attribution_s"] = span_s("obs.attribution");
        values["obs.export_s"] = span_s("obs.export");
        const double events = w.layer.count("sim.events_fired")
                                  ? w.layer.at("sim.events_fired")
                                  : 0.0;
        values["sim.host_ns_per_event"] =
            events > 0 ? run_median * 1e9 / events : 0.0;
        // Host time per invocation, full size over half size.
        const Window& h = half.empty() ? none : *half.front();
        const double per_full =
            run_median / static_cast<double>(std::max<uint64_t>(first.offered, 1));
        const double per_half =
            median(half_run_s) /
            static_cast<double>(std::max<uint64_t>(h.offered, 1));
        values["system.doubling_ratio"] = per_half > 0 ? per_full / per_half : 0;
    }

    // Human-readable report, then the result line.
    std::printf("workload %s seed %llu: %zu window(s), %.1f s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), windows.size(),
                elapsed());
    std::printf("digest full %016llx",
                static_cast<unsigned long long>(first.digest));
    if (!half.empty())
        std::printf(" half %016llx",
                    static_cast<unsigned long long>(half.front()->digest));
    if (traced)
        std::printf(" traced %016llx",
                    static_cast<unsigned long long>(traced->digest));
    std::printf("\n");
    std::printf("sim_e2e samples %zu (offered %llu, completed %llu, timed out "
                "%llu, shed %llu)\n",
                first.e2e_samples,
                static_cast<unsigned long long>(first.offered),
                static_cast<unsigned long long>(first.completed),
                static_cast<unsigned long long>(first.timed_out),
                static_cast<unsigned long long>(first.shed));
    for (const std::string& line : first.cells)
        std::printf("  %s\n", line.c_str());
    std::printf("host run_s per window:");
    for (const double v : run_s)
        std::printf(" %.4f", v);
    std::printf("\n");
    if (!probes.empty()) {
        std::printf("host probe median %.4f s over %zu probes (reference "
                    "%.4f s); measured run_s %.4f s, setup_s %.6f s\n",
                    median(probes), probes.size(), kProbeReferenceS,
                    run_median, median(setup_s));
    }
    for (const std::string& f : failures)
        std::printf("check FAILED: %s\n", f.c_str());
    if (failures.empty())
        std::printf("checks: all passed\n");

    std::string metrics;
    const auto emit = [&](const MetricDef& def) {
        const auto it = values.find(def.name);
        const double value = it == values.end() ? 0.0 : it->second;
        std::printf("  %-30s %16.6g %s\n", def.name, value, def.unit);
        metrics += faasflow::strFormat(
            "%s%s: {\"value\": %s, \"unit\": %s}", metrics.empty() ? "" : ", ",
            jsonString(def.name).c_str(), number(value).c_str(),
            jsonString(def.unit).c_str());
    };
    if (args.trace == 0) {
        for (const MetricDef& def : kEndToEnd)
            emit(def);
    } else {
        for (const MetricDef& def : kPerLayer)
            emit(def);
    }
    if (!args.spans_path.empty())
        writeSpans(args.spans_path, print, spans);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", windows.size(),
                static_cast<unsigned long long>(failed_windows),
                metrics.c_str());
    return 0;
}
