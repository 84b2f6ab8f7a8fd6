#ifndef FAASFLOW_BENCH_SECTIONS_H_
#define FAASFLOW_BENCH_SECTIONS_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/campaign.h"
#include "common/string_util.h"

namespace faasflow::bench {

/**
 * Per-run options handed to every benchmark section. `smoke` selects
 * the CI-sized workload that `bench/BASELINE.json` pins; `threads` is
 * the campaign fan-out width, so tests can sweep it explicitly instead
 * of mutating FAASFLOW_CAMPAIGN_THREADS.
 */
struct RunOptions
{
    bool smoke = false;
    /** Campaign width for sections that fan out; 0 = campaignThreads(). */
    unsigned threads = 0;

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
};

/** One pinned figure value of a section run. */
struct Pin
{
    std::string name;
    double value = 0.0;
};

/**
 * Collects one section run: its pinned values plus a running FNV-1a
 * digest over the pins and any folded text. Every pin is simulated
 * output, bit-identical across runs and campaign widths; host timings
 * belong in the printed tables, never here.
 */
class Report
{
  public:
    /** Pins `value` under `name` and folds both into the digest. */
    void
    pin(std::string name, double value)
    {
        uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(value));
        std::memcpy(&bits, &value, sizeof(bits));
        digest(name);
        digest(strFormat("=%016llx\n", static_cast<unsigned long long>(bits)));
        pins_.push_back(Pin{std::move(name), value});
    }

    /** Folds canonical text (for example a full JSON dump) into the
     *  digest without pinning a value. */
    void
    digest(std::string_view text)
    {
        for (const char c : text) {
            fnv_ ^= static_cast<uint8_t>(c);
            fnv_ *= 1099511628211ULL;
        }
    }

    const std::vector<Pin>& pins() const { return pins_; }

    /** 16-hex-digit FNV-1a digest of every pin and folded text. */
    std::string
    digestHex() const
    {
        return strFormat("%016llx", static_cast<unsigned long long>(fnv_));
    }

  private:
    std::vector<Pin> pins_;
    uint64_t fnv_ = 14695981039346656037ULL;
};

/** One benchmark section: a named paper figure, table or study. */
struct Section
{
    const char* name;         ///< e.g. "fig12_bandwidth_sweep"
    const char* description;  ///< one-liner for --list
    void (*run)(const RunOptions&, Report&);
};

/** Every production section, in canonical (alphabetical) order. */
std::span<const Section> allSections();

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

/** Sections matching any of `filters` (all when empty), in table order. */
inline std::vector<const Section*>
selectSections(std::span<const Section> sections,
               const std::vector<std::string>& filters)
{
    std::vector<const Section*> out;
    for (const Section& s : sections) {
        bool hit = filters.empty();
        for (const std::string& pattern : filters)
            hit = hit || globMatch(pattern, s.name);
        if (hit)
            out.push_back(&s);
    }
    return out;
}

// One run function per bench translation unit; sections.cc lists them.
void runAblationModes(const RunOptions&, Report&);
void runColdstartPolicies(const RunOptions&, Report&);
void runDurabilityFrontier(const RunOptions&, Report&);
void runFig04MasterSpOverhead(const RunOptions&, Report&);
void runFig05DataMovement(const RunOptions&, Report&);
void runFig11SchedOverhead(const RunOptions&, Report&);
void runFig12BandwidthSweep(const RunOptions&, Report&);
void runFig13TailLatency(const RunOptions&, Report&);
void runFig14Colocation(const RunOptions&, Report&);
void runFig15Distribution(const RunOptions&, Report&);
void runFig16SchedulerScalability(const RunOptions&, Report&);
void runGeneratedDags(const RunOptions&, Report&);
void runLoadSaturation(const RunOptions&, Report&);
void runPerfHotpaths(const RunOptions&, Report&);
void runSec57ComponentOverhead(const RunOptions&, Report&);
void runTable2VendorQuotas(const RunOptions&, Report&);
void runTable4DataLatency(const RunOptions&, Report&);

}  // namespace faasflow::bench

#endif  // FAASFLOW_BENCH_SECTIONS_H_
