#ifndef FAASFLOW_BENCH_REGISTRY_H_
#define FAASFLOW_BENCH_REGISTRY_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/campaign.h"
#include "common/string_util.h"

namespace faasflow::bench {

/**
 * Per-run options handed to every benchmark section.
 *
 * `smoke` selects the CI-sized workload (numbers from a smoke run are
 * not comparable with full runs — the emitted report records the tier
 * so the baseline compare refuses to mix them). `threads` pins the
 * campaign fan-out width so determinism tests can sweep it explicitly
 * instead of mutating FAASFLOW_CAMPAIGN_THREADS.
 */
struct RunOptions
{
    bool smoke = false;
    /** Campaign width for sections that fan out; 0 = campaignThreads(). */
    unsigned threads = 0;
    /** Per-section wall-clock budget; 0 = unlimited. */
    int64_t budget_ms = 0;
    /** Set by the runner immediately before each section run. */
    std::chrono::steady_clock::time_point section_start{};

    unsigned
    campaignWidth() const
    {
        return threads != 0 ? threads : campaignThreads();
    }

    /** Picks the workload size for the active tier. */
    size_t
    scaled(size_t full, size_t smoke_size) const
    {
        return smoke ? smoke_size : full;
    }

    /**
     * True once the section has spent its budget. Long per-item loops
     * poll this between items and bail out via Report::truncated() so a
     * `--budget-ms` run degrades to partial coverage instead of
     * blowing the budget multiplied by the remaining items.
     */
    bool
    budgetExpired() const
    {
        if (budget_ms <= 0)
            return false;
        const auto spent = std::chrono::steady_clock::now() - section_start;
        return std::chrono::duration_cast<std::chrono::milliseconds>(spent)
                   .count() >= budget_ms;
    }
};

/** Ratchet direction of a metric: which way is a regression? */
enum class Direction
{
    Higher,  ///< throughput-like; regressing means the value dropped
    Lower,   ///< latency-like; regressing means the value rose
    Info     ///< descriptive; never ratcheted on tolerance bands
};

inline const char*
directionName(Direction d)
{
    switch (d) {
    case Direction::Higher: return "higher";
    case Direction::Lower: return "lower";
    default: return "info";
    }
}

/** One named measurement of a section run. */
struct Metric
{
    std::string name;
    double value = 0.0;
    Direction dir = Direction::Info;
    /**
     * Simulation-derived values are bit-deterministic across runs and
     * campaign thread counts and fold into the section digest; wall-time
     * values (events/sec, wall ms) are excluded from it.
     */
    bool deterministic = false;
};

/**
 * Collects one section run's output: named metrics plus a running
 * FNV-1a digest over everything deterministic. The digest is the
 * cross-run / cross-thread-count golden: two runs of the same section
 * at the same tier must produce byte-identical digests.
 */
class Report
{
  public:
    /** Throughput-like metric (regression = value dropped). */
    void
    higher(std::string name, double value, bool deterministic = false)
    {
        add(std::move(name), value, Direction::Higher, deterministic);
    }

    /** Latency-like metric (regression = value rose). */
    void
    lower(std::string name, double value, bool deterministic = false)
    {
        add(std::move(name), value, Direction::Lower, deterministic);
    }

    /** Descriptive metric; exact-checked when deterministic. */
    void
    info(std::string name, double value, bool deterministic = true)
    {
        add(std::move(name), value, Direction::Info, deterministic);
    }

    /** Folds canonical text (for example a full JSON dump) into the
     *  digest without recording a metric. */
    void
    digest(std::string_view text)
    {
        for (const char c : text)
            digestByte(static_cast<uint8_t>(c));
    }

    /** Marks the run as cut short by the time budget. */
    void
    truncated()
    {
        truncated_ = true;
    }

    bool isTruncated() const { return truncated_; }
    const std::vector<Metric>& metrics() const { return metrics_; }

    /** 16-hex-digit FNV-1a digest of all deterministic content so far. */
    std::string
    digestHex() const
    {
        return strFormat("%016llx",
                         static_cast<unsigned long long>(fnv_));
    }

  private:
    void
    add(std::string name, double value, Direction dir, bool deterministic)
    {
        if (deterministic) {
            digest(name);
            digest("=");
            uint64_t bits = 0;
            static_assert(sizeof(bits) == sizeof(value));
            std::memcpy(&bits, &value, sizeof(bits));
            digest(strFormat("%016llx\n",
                             static_cast<unsigned long long>(bits)));
        }
        metrics_.push_back(
            Metric{std::move(name), value, dir, deterministic});
    }

    void
    digestByte(uint8_t byte)
    {
        fnv_ ^= byte;
        fnv_ *= 1099511628211ULL;
    }

    std::vector<Metric> metrics_;
    uint64_t fnv_ = 14695981039346656037ULL;
    bool truncated_ = false;
};

/** One registered benchmark: a named section inside a suite. */
struct SectionSpec
{
    std::string name;         ///< e.g. "fig12_bandwidth_sweep"
    std::string suite;        ///< figures | tables | ablation | load | perf
    std::string description;  ///< one-liner for --list
    std::function<void(const RunOptions&, Report&)> run;
};

/**
 * The section registry. Registration is explicit (each bench file
 * exports a register function, sections.cc calls them all), so no
 * static-initializer link-order tricks and tests can build registries
 * containing only fakes.
 */
class Registry
{
  public:
    void
    add(SectionSpec spec)
    {
        sections_.push_back(std::move(spec));
    }

    const std::vector<SectionSpec>& sections() const { return sections_; }

    const SectionSpec*
    find(std::string_view name) const
    {
        for (const SectionSpec& s : sections_) {
            if (s.name == name)
                return &s;
        }
        return nullptr;
    }

  private:
    std::vector<SectionSpec> sections_;
};

/**
 * Glob match supporting `*` (any run) and `?` (any one char); anchored
 * at both ends, so `fig1*` selects fig11..fig16 but not `xfig12`.
 */
inline bool
globMatch(std::string_view pattern, std::string_view text)
{
    size_t p = 0, t = 0;
    size_t star = std::string_view::npos, star_t = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == text[t] || pattern[p] == '?')) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            star_t = t;
        } else if (star != std::string_view::npos) {
            p = star + 1;
            t = ++star_t;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

// One register function per bench translation unit; sections.cc calls
// them all in the canonical (alphabetical) order.
void registerAblationModes(Registry&);
void registerColdstartPolicies(Registry&);
void registerDurabilityFrontier(Registry&);
void registerFig04MasterSpOverhead(Registry&);
void registerFig05DataMovement(Registry&);
void registerFig11SchedOverhead(Registry&);
void registerFig12BandwidthSweep(Registry&);
void registerFig13TailLatency(Registry&);
void registerFig14Colocation(Registry&);
void registerFig15Distribution(Registry&);
void registerFig16SchedulerScalability(Registry&);
void registerGeneratedDags(Registry&);
void registerLoadSaturation(Registry&);
void registerPerfHotpaths(Registry&);
void registerSec57ComponentOverhead(Registry&);
void registerTable2VendorQuotas(Registry&);
void registerTable4DataLatency(Registry&);

/** Registers every production benchmark section. */
void registerAllSections(Registry&);

}  // namespace faasflow::bench

#endif  // FAASFLOW_BENCH_REGISTRY_H_
