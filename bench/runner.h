#ifndef FAASFLOW_BENCH_RUNNER_H_
#define FAASFLOW_BENCH_RUNNER_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "json/json.h"
#include "registry.h"

namespace faasflow::bench {

constexpr int kBenchSchemaVersion = 1;

/** What to run and how: the CLI flags, decoded. */
struct RunnerOptions
{
    std::vector<std::string> filters;  ///< name globs; empty = all
    std::string suite;                 ///< restrict to one suite; empty = all
    bool smoke = false;
    int reps = 1;           ///< interleaved repetitions (A/B/A/B, not AABB)
    int64_t budget_ms = 0;  ///< per-section wall budget; 0 = unlimited
    unsigned threads = 0;   ///< campaign width; 0 = env/hardware default
    bool verbose = true;    ///< print section headers/progress to stdout
};

/** Aggregate of one metric across the interleaved repetitions. */
struct MetricResult
{
    std::string name;
    Direction dir = Direction::Info;
    bool deterministic = false;
    double value = 0.0;   ///< median across reps
    double min = 0.0;
    double stddev = 0.0;  ///< sample stddev across reps (0 for 1 rep)
    bool stable = true;   ///< deterministic metric identical across reps
};

/** One section's outcome across all repetitions. */
struct SectionResult
{
    std::string name;
    std::string suite;
    double wall_ms = 0.0;  ///< median section wall time across reps
    bool over_budget = false;
    bool truncated = false;
    std::string determinism_digest;  ///< digest of rep 0
    bool digest_stable = true;       ///< digests identical across reps
    std::vector<MetricResult> metrics;
};

struct RunReport
{
    bool smoke = false;
    int reps = 1;
    std::vector<SectionResult> sections;

    /** True when every deterministic quantity repeated bit-identically. */
    bool
    deterministic() const
    {
        for (const SectionResult& s : sections) {
            if (!s.digest_stable)
                return false;
            for (const MetricResult& m : s.metrics)
                if (!m.stable)
                    return false;
        }
        return true;
    }
};

/** Sections selected by the filter/suite flags, in registration order. */
inline std::vector<const SectionSpec*>
selectSections(const Registry& registry, const RunnerOptions& options)
{
    std::vector<const SectionSpec*> out;
    for (const SectionSpec& s : registry.sections()) {
        if (!options.suite.empty() && s.suite != options.suite)
            continue;
        if (!options.filters.empty()) {
            bool hit = false;
            for (const std::string& pattern : options.filters)
                hit = hit || globMatch(pattern, s.name);
            if (!hit)
                continue;
        }
        out.push_back(&s);
    }
    return out;
}

namespace detail {

inline double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    if (n == 0)
        return 0.0;
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

inline double
sampleStddev(const std::vector<double>& xs)
{
    if (xs.size() < 2)
        return 0.0;
    double mean = 0.0;
    for (const double x : xs)
        mean += x;
    mean /= static_cast<double>(xs.size());
    double m2 = 0.0;
    for (const double x : xs)
        m2 += (x - mean) * (x - mean);
    return std::sqrt(m2 / static_cast<double>(xs.size() - 1));
}

}  // namespace detail

/**
 * Runs the selected sections `reps` times with interleaved ordering
 * (round 0 runs every section, then round 1, ...), so slow drift of the
 * host (thermal, noisy neighbours) spreads evenly across sections
 * instead of biasing whichever ran last. Timing metrics report
 * median/min/stddev across rounds; deterministic metrics and the
 * section digest must repeat bit-identically and are flagged if not.
 */
inline RunReport
runSections(const Registry& registry, const RunnerOptions& options)
{
    const std::vector<const SectionSpec*> selected =
        selectSections(registry, options);
    const int reps = options.reps < 1 ? 1 : options.reps;

    struct Round
    {
        std::vector<Metric> metrics;
        std::string digest;
        bool truncated = false;
        double wall_ms = 0.0;
    };
    std::vector<std::vector<Round>> rounds(selected.size());

    for (int rep = 0; rep < reps; ++rep) {
        for (size_t i = 0; i < selected.size(); ++i) {
            const SectionSpec& spec = *selected[i];
            if (options.verbose) {
                std::printf("== [%s] %s%s%s\n", spec.suite.c_str(),
                            spec.name.c_str(),
                            options.smoke ? " (smoke)" : "",
                            reps > 1
                                ? strFormat(" rep %d/%d", rep + 1, reps)
                                      .c_str()
                                : "");
                std::fflush(stdout);
            }
            RunOptions run;
            run.smoke = options.smoke;
            run.threads = options.threads;
            run.budget_ms = options.budget_ms;
            run.section_start = std::chrono::steady_clock::now();
            Report report;
            spec.run(run, report);
            Round round;
            round.wall_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - run.section_start)
                    .count();
            round.metrics = report.metrics();
            round.digest = report.digestHex();
            round.truncated = report.isTruncated();
            rounds[i].push_back(std::move(round));
        }
    }

    RunReport out;
    out.smoke = options.smoke;
    out.reps = reps;
    for (size_t i = 0; i < selected.size(); ++i) {
        SectionResult section;
        section.name = selected[i]->name;
        section.suite = selected[i]->suite;
        std::vector<double> walls;
        for (const Round& r : rounds[i]) {
            walls.push_back(r.wall_ms);
            section.truncated = section.truncated || r.truncated;
            section.digest_stable =
                section.digest_stable && r.digest == rounds[i][0].digest;
        }
        section.wall_ms = detail::median(walls);
        section.over_budget = options.budget_ms > 0 &&
                              section.wall_ms >
                                  static_cast<double>(options.budget_ms);
        section.determinism_digest = rounds[i][0].digest;

        // Aggregate metric-by-metric over rounds; a section whose metric
        // *set* varies across rounds (it should not) degrades to the
        // round-0 set, with missing samples simply absent.
        const std::vector<Metric>& first = rounds[i][0].metrics;
        for (const Metric& m : first) {
            MetricResult agg;
            agg.name = m.name;
            agg.dir = m.dir;
            agg.deterministic = m.deterministic;
            std::vector<double> samples;
            for (const Round& r : rounds[i]) {
                for (const Metric& cand : r.metrics) {
                    if (cand.name == m.name) {
                        samples.push_back(cand.value);
                        break;
                    }
                }
            }
            agg.value = detail::median(samples);
            agg.min = *std::min_element(samples.begin(), samples.end());
            agg.stddev = detail::sampleStddev(samples);
            if (m.deterministic) {
                for (const double s : samples)
                    agg.stable = agg.stable && s == samples[0];
            }
            section.metrics.push_back(std::move(agg));
        }
        out.sections.push_back(std::move(section));
    }
    return out;
}

/** Build/host provenance recorded alongside the numbers. */
inline json::Value
hostFingerprint()
{
    json::Value fp = json::Value::object();
#if defined(__VERSION__)
    fp.set("compiler", std::string(__VERSION__));
#else
    fp.set("compiler", std::string("unknown"));
#endif
#if defined(__x86_64__)
    fp.set("arch", std::string("x86_64"));
#elif defined(__aarch64__)
    fp.set("arch", std::string("aarch64"));
#else
    fp.set("arch", std::string("unknown"));
#endif
    fp.set("hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
#if defined(NDEBUG)
    fp.set("optimized", true);
#else
    fp.set("optimized", false);
#endif
    return fp;
}

/** Serialises a run into the versioned BENCH.json document. */
inline json::Value
reportJson(const RunReport& report)
{
    json::Value doc = json::Value::object();
    doc.set("schema_version", static_cast<int64_t>(kBenchSchemaVersion));
    doc.set("generated_by", std::string("faasflow_bench"));
    doc.set("tier", std::string(report.smoke ? "smoke" : "full"));
    doc.set("reps", static_cast<int64_t>(report.reps));
    doc.set("host_fingerprint", hostFingerprint());
    json::Value sections = json::Value::array();
    for (const SectionResult& s : report.sections) {
        json::Value sec = json::Value::object();
        sec.set("name", s.name);
        sec.set("suite", s.suite);
        sec.set("wall_ms", s.wall_ms);
        sec.set("over_budget", s.over_budget);
        sec.set("truncated", s.truncated);
        sec.set("determinism_digest", s.determinism_digest);
        sec.set("digest_stable", s.digest_stable);
        json::Value metrics = json::Value::object();
        for (const MetricResult& m : s.metrics) {
            json::Value metric = json::Value::object();
            metric.set("value", m.value);
            metric.set("dir", std::string(directionName(m.dir)));
            metric.set("det", m.deterministic);
            if (report.reps > 1) {
                metric.set("min", m.min);
                metric.set("stddev", m.stddev);
            }
            if (!m.stable)
                metric.set("stable", false);
            metrics.set(m.name, std::move(metric));
        }
        sec.set("metrics", std::move(metrics));
        sections.push(std::move(sec));
    }
    doc.set("sections", std::move(sections));
    return doc;
}

}  // namespace faasflow::bench

#endif  // FAASFLOW_BENCH_RUNNER_H_
