#ifndef FAASFLOW_BENCH_BASELINE_H_
#define FAASFLOW_BENCH_BASELINE_H_

#include <optional>
#include <string>
#include <vector>

#include "json/json.h"
#include "runner.h"

namespace faasflow::bench {

/**
 * One ratcheted metric of the checked-in baseline.
 *
 * `rel` is the relative tolerance band around `value` in the metric's
 * *bad* direction (a higher-is-better metric may drop to value*(1-rel)
 * before failing; a lower-is-better metric may rise to value*(1+rel)).
 * rel == 0 means exact: deterministic simulation results must repeat
 * bit-for-bit. `floor`/`ceil` are hard bounds independent of the
 * baseline value — typically the seed-state numbers that must never be
 * regressed past no matter how the rolling baseline moves.
 */
struct BaselineMetric
{
    double value = 0.0;
    Direction dir = Direction::Info;
    std::optional<double> rel;    ///< absent = baseline default_rel
    std::optional<double> floor;  ///< hard minimum (higher-is-better)
    std::optional<double> ceil;   ///< hard maximum (lower-is-better)
};

struct BaselineSection
{
    // Ordered map so compare output is stable for goldens.
    std::vector<std::pair<std::string, BaselineMetric>> metrics;

    const BaselineMetric*
    findMetric(const std::string& name) const
    {
        for (const auto& [n, m] : metrics)
            if (n == name)
                return &m;
        return nullptr;
    }
};

struct Baseline
{
    std::string tier;  ///< which tier the numbers were measured at
    double default_rel = 0.25;
    std::vector<std::pair<std::string, BaselineSection>> sections;

    const BaselineSection*
    findSection(const std::string& name) const
    {
        for (const auto& [n, s] : sections)
            if (n == name)
                return &s;
        return nullptr;
    }
};

struct BaselineParseResult
{
    std::optional<Baseline> baseline;
    std::string error;  ///< empty on success

    bool ok() const { return baseline.has_value(); }
};

/**
 * Parses BASELINE.json; every malformation is rejected with a message
 * naming the offending path, so a hand-edited baseline fails loudly
 * instead of silently ratcheting nothing.
 */
inline BaselineParseResult
parseBaseline(const json::Value& doc)
{
    BaselineParseResult out;
    auto fail = [&out](std::string msg) {
        out.error = "BASELINE.json: " + std::move(msg);
        out.baseline.reset();
        return out;
    };
    if (!doc.isObject())
        return fail("top level must be an object");
    const json::Value* version = doc.find("schema_version");
    if (!version || !version->isInt() ||
        version->asInt() != kBenchSchemaVersion) {
        return fail(strFormat("schema_version must be the integer %d",
                              kBenchSchemaVersion));
    }
    Baseline baseline;
    const json::Value* tier = doc.find("tier");
    if (!tier || !tier->isString() ||
        (tier->asString() != "smoke" && tier->asString() != "full"))
        return fail("tier must be \"smoke\" or \"full\"");
    baseline.tier = tier->asString();
    const json::Value* default_rel = doc.find("default_rel");
    if (!default_rel || !default_rel->isNumber() ||
        default_rel->asDouble() < 0.0)
        return fail("default_rel must be a non-negative number");
    baseline.default_rel = default_rel->asDouble();
    const json::Value* sections = doc.find("sections");
    if (!sections || !sections->isArray())
        return fail("sections must be an array");
    for (const json::Value& sec : sections->asArray()) {
        if (!sec.isObject())
            return fail("sections[] entries must be objects");
        const json::Value* name = sec.find("name");
        if (!name || !name->isString() || name->asString().empty())
            return fail("sections[].name must be a non-empty string");
        if (baseline.findSection(name->asString()))
            return fail("duplicate section \"" + name->asString() + "\"");
        const json::Value* metrics = sec.find("metrics");
        if (!metrics || !metrics->isObject())
            return fail("section \"" + name->asString() +
                        "\": metrics must be an object");
        BaselineSection parsed;
        for (const auto& [metric_name, metric] : metrics->asObject()) {
            const std::string at =
                "section \"" + name->asString() + "\" metric \"" +
                metric_name + "\"";
            if (!metric.isObject())
                return fail(at + ": must be an object");
            BaselineMetric bm;
            const json::Value* value = metric.find("value");
            if (!value || !value->isNumber())
                return fail(at + ": value must be a number");
            bm.value = value->asDouble();
            const json::Value* dir = metric.find("dir");
            if (!dir || !dir->isString())
                return fail(at + ": dir must be a string");
            if (dir->asString() == "higher")
                bm.dir = Direction::Higher;
            else if (dir->asString() == "lower")
                bm.dir = Direction::Lower;
            else if (dir->asString() == "info")
                bm.dir = Direction::Info;
            else
                return fail(at + ": dir must be higher/lower/info, got \"" +
                            dir->asString() + "\"");
            if (const json::Value* rel = metric.find("rel")) {
                if (!rel->isNumber() || rel->asDouble() < 0.0)
                    return fail(at + ": rel must be a non-negative number");
                bm.rel = rel->asDouble();
            }
            if (const json::Value* floor = metric.find("floor")) {
                if (!floor->isNumber())
                    return fail(at + ": floor must be a number");
                bm.floor = floor->asDouble();
            }
            if (const json::Value* ceil = metric.find("ceil")) {
                if (!ceil->isNumber())
                    return fail(at + ": ceil must be a number");
                bm.ceil = ceil->asDouble();
            }
            if (bm.floor && bm.dir != Direction::Higher)
                return fail(at + ": floor only applies to dir=higher");
            if (bm.ceil && bm.dir != Direction::Lower)
                return fail(at + ": ceil only applies to dir=lower");
            parsed.metrics.emplace_back(metric_name, bm);
        }
        baseline.sections.emplace_back(name->asString(), std::move(parsed));
    }
    out.baseline = std::move(baseline);
    return out;
}

/** Outcome of ratcheting one report against the baseline. */
struct CompareResult
{
    std::vector<std::string> failures;  ///< regressions & hard errors
    std::vector<std::string> warnings;  ///< new metrics/sections to adopt

    bool ok() const { return failures.empty(); }
};

/**
 * Direction-aware tolerance compare of a BENCH report against the
 * checked-in baseline.
 *
 * Policy: a metric the baseline names but the run no longer emits is a
 * FAILURE (a silently vanished number is how regressions hide); a metric
 * or section the run emits but the baseline has never seen is a WARNING
 * ("adopt by refreshing BASELINE.json"), so adding instrumentation never
 * blocks a PR. Non-deterministic info metrics are provenance that
 * baselineFromReport() never adopts, so they never warn. Tier mismatch
 * fails outright — smoke and full numbers are not comparable.
 */
inline CompareResult
compareReport(const RunReport& report, const Baseline& baseline)
{
    CompareResult out;
    const std::string report_tier = report.smoke ? "smoke" : "full";
    if (report_tier != baseline.tier) {
        out.failures.push_back(
            "tier mismatch: run is \"" + report_tier +
            "\" but BASELINE.json holds \"" + baseline.tier +
            "\" numbers — smoke and full runs are not comparable");
        return out;
    }
    if (!report.deterministic()) {
        out.failures.push_back(
            "run is not internally deterministic: a deterministic metric "
            "or digest varied across repetitions");
    }

    for (const SectionResult& section : report.sections) {
        const BaselineSection* base = baseline.findSection(section.name);
        if (!base) {
            out.warnings.push_back(
                "new section \"" + section.name +
                "\" has no baseline — adopt by refreshing BASELINE.json");
            continue;
        }
        for (const auto& [name, bm] : base->metrics) {
            const MetricResult* cur = nullptr;
            for (const MetricResult& m : section.metrics) {
                if (m.name == name) {
                    cur = &m;
                    break;
                }
            }
            if (!cur) {
                out.failures.push_back(
                    "section \"" + section.name + "\": metric \"" + name +
                    "\" is in BASELINE.json but the run did not emit it");
                continue;
            }
            const double rel =
                bm.rel.has_value() ? *bm.rel : baseline.default_rel;
            const double value = cur->value;
            auto regression = [&](const char* what, double bound) {
                out.failures.push_back(strFormat(
                    "section \"%s\": %s \"%s\" = %g %s %s bound %g "
                    "(baseline %g, rel %g)",
                    section.name.c_str(), directionName(bm.dir),
                    name.c_str(), value,
                    bm.dir == Direction::Lower ? "above" : "below", what,
                    bound, bm.value, rel));
            };
            switch (bm.dir) {
            case Direction::Higher: {
                const double band = bm.value * (1.0 - rel);
                if (rel == 0.0 ? value != bm.value : value < band)
                    regression("tolerance", band);
                if (bm.floor && value < *bm.floor)
                    regression("hard floor", *bm.floor);
                break;
            }
            case Direction::Lower: {
                const double band = bm.value * (1.0 + rel);
                if (rel == 0.0 ? value != bm.value : value > band)
                    regression("tolerance", band);
                if (bm.ceil && value > *bm.ceil)
                    regression("hard ceiling", *bm.ceil);
                break;
            }
            case Direction::Info:
                // Info metrics ratchet only when pinned exact (rel 0):
                // deterministic descriptive values (counts, flags) must
                // repeat; loose info values are provenance, not gates.
                if (bm.rel.has_value() && *bm.rel == 0.0 &&
                    value != bm.value) {
                    out.failures.push_back(strFormat(
                        "section \"%s\": exact info metric \"%s\" changed "
                        "%g -> %g",
                        section.name.c_str(), name.c_str(), bm.value,
                        value));
                }
                break;
            }
        }
        for (const MetricResult& m : section.metrics) {
            const bool loose_info =
                m.dir == Direction::Info && !m.deterministic;
            if (!loose_info && !base->findMetric(m.name)) {
                out.warnings.push_back(
                    "section \"" + section.name + "\": new metric \"" +
                    m.name +
                    "\" has no baseline — adopt by refreshing "
                    "BASELINE.json");
            }
        }
    }

    // Baseline sections the run never produced: only a warning, because
    // --filter/--suite legitimately narrow a local run; the CI ratchet
    // job runs unfiltered so a retired section still surfaces there.
    for (const auto& [name, _] : baseline.sections) {
        bool present = false;
        for (const SectionResult& s : report.sections)
            present = present || s.name == name;
        if (!present) {
            out.warnings.push_back("baseline section \"" + name +
                                   "\" was not part of this run");
        }
    }
    return out;
}

/**
 * Derives a fresh baseline document from a run: every ratchetable
 * (non-info) metric gets the measured value and the default tolerance;
 * deterministic metrics are pinned exact. `--refresh-baseline` uses
 * this; hard floors/ceils must be merged by hand afterwards, which is
 * deliberate — they encode history no single run knows.
 */
inline json::Value
baselineFromReport(const RunReport& report, double default_rel)
{
    json::Value doc = json::Value::object();
    doc.set("schema_version", static_cast<int64_t>(kBenchSchemaVersion));
    doc.set("tier", std::string(report.smoke ? "smoke" : "full"));
    doc.set("default_rel", default_rel);
    json::Value sections = json::Value::array();
    for (const SectionResult& s : report.sections) {
        json::Value sec = json::Value::object();
        sec.set("name", s.name);
        json::Value metrics = json::Value::object();
        for (const MetricResult& m : s.metrics) {
            json::Value metric = json::Value::object();
            metric.set("value", m.value);
            metric.set("dir", std::string(directionName(m.dir)));
            if (m.deterministic)
                metric.set("rel", 0.0);
            else if (m.dir == Direction::Info)
                continue;  // non-deterministic info: provenance only
            metrics.set(m.name, std::move(metric));
        }
        sec.set("metrics", std::move(metrics));
        sections.push(std::move(sec));
    }
    doc.set("sections", std::move(sections));
    return doc;
}

}  // namespace faasflow::bench

#endif  // FAASFLOW_BENCH_BASELINE_H_
