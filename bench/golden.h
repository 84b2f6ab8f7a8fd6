#ifndef FAASFLOW_BENCH_GOLDEN_H_
#define FAASFLOW_BENCH_GOLDEN_H_

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.h"
#include "sections.h"

namespace faasflow::bench {

/**
 * The figure golden, `bench/BASELINE.json`: every section's smoke-tier
 * digest and pinned values,
 *
 *   {"<section>": {"digest": "<16 hex>", "metrics": {"<name>": value}}}
 *
 * `faasflow_bench --write-golden` writes it and `test_paper` checks
 * every section against it exactly: a changed, new or vanished value
 * fails until the golden is rewritten.
 */
struct GoldenSection
{
    std::string name;
    std::string digest;
    std::vector<Pin> metrics;
};

struct GoldenParseResult
{
    std::vector<GoldenSection> sections;
    std::string error;  ///< empty on success

    bool ok() const { return error.empty(); }
};

inline const Pin*
findPin(const std::vector<Pin>& pins, std::string_view name)
{
    for (const Pin& p : pins)
        if (p.name == name)
            return &p;
    return nullptr;
}

inline const GoldenSection*
findGoldenSection(const std::vector<GoldenSection>& sections,
                  std::string_view name)
{
    for (const GoldenSection& s : sections)
        if (s.name == name)
            return &s;
    return nullptr;
}

/**
 * Parses a golden document. Every malformation is rejected with a
 * message that starts with `source` and names the offending section
 * and metric, so a hand-edited golden fails loudly instead of pinning
 * nothing.
 */
inline GoldenParseResult
parseGolden(const json::Value& doc, std::string_view source)
{
    GoldenParseResult out;
    auto fail = [&out, source](const std::string& msg) {
        out.sections.clear();
        out.error = std::string(source) + ": " + msg;
        return out;
    };
    if (!doc.isObject())
        return fail("top level must be an object of sections");
    for (const auto& [name, entry] : doc.asObject()) {
        const std::string at = "section \"" + name + "\"";
        if (findGoldenSection(out.sections, name))
            return fail("duplicate " + at);
        if (!entry.isObject())
            return fail(at + " must be an object");
        GoldenSection section{name, {}, {}};
        for (const auto& [key, value] : entry.asObject()) {
            if (key != "digest" && key != "metrics")
                return fail(at + ": unknown field \"" + key + "\"");
        }
        const json::Value* digest = entry.find("digest");
        if (!digest || !digest->isString() ||
            digest->asString().size() != 16 ||
            digest->asString().find_first_not_of("0123456789abcdef") !=
                std::string::npos)
            return fail(at + ": digest must be 16 lowercase hex digits");
        section.digest = digest->asString();
        const json::Value* metrics = entry.find("metrics");
        if (!metrics || !metrics->isObject())
            return fail(at + ": metrics must be an object");
        for (const auto& [metric, value] : metrics->asObject()) {
            const std::string mat = at + " metric \"" + metric + "\"";
            if (findPin(section.metrics, metric))
                return fail("duplicate " + mat);
            if (!value.isNumber())
                return fail(mat + " must be a number");
            section.metrics.push_back(Pin{metric, value.asDouble()});
        }
        out.sections.push_back(std::move(section));
    }
    return out;
}

/** Reads and parses the golden at `path`; errors name the path. */
inline GoldenParseResult
loadGolden(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        return GoldenParseResult{{}, path + ": cannot open"};
    std::ostringstream text;
    text << in.rdbuf();
    const json::ParseResult parsed = json::parse(text.str());
    if (!parsed.ok()) {
        return GoldenParseResult{
            {}, strFormat("%s: line %zu: %s", path.c_str(), parsed.line,
                          parsed.error.c_str())};
    }
    return parseGolden(*parsed.value, path);
}

/** One section's golden entry, as `--write-golden` records it. */
inline json::Value
goldenEntry(const Report& report)
{
    json::Value metrics = json::Value::object();
    for (const Pin& p : report.pins())
        metrics.set(p.name, p.value);
    json::Value entry = json::Value::object();
    entry.set("digest", report.digestHex());
    entry.set("metrics", std::move(metrics));
    return entry;
}

/**
 * Every way a section run differs from its golden entry: a changed
 * digest, a changed value, and a metric that is new, vanished or pinned
 * twice. Each message names the section, the metric and both values.
 * Empty means the run matches exactly.
 */
inline std::vector<std::string>
goldenMismatches(const GoldenSection& golden, const Report& run)
{
    std::vector<std::string> out;
    const char* section = golden.name.c_str();
    if (run.digestHex() != golden.digest) {
        out.push_back(strFormat("%s: digest: golden %s, measured %s",
                                section, golden.digest.c_str(),
                                run.digestHex().c_str()));
    }
    for (size_t i = 0; i < run.pins().size(); ++i) {
        const Pin& pin = run.pins()[i];
        const Pin* want = findPin(golden.metrics, pin.name);
        if (findPin(run.pins(), pin.name) != &run.pins()[i]) {
            out.push_back(strFormat("%s: metric \"%s\" is pinned twice",
                                    section, pin.name.c_str()));
        } else if (!want) {
            out.push_back(strFormat(
                "%s: metric \"%s\": not in the golden, measured %.17g",
                section, pin.name.c_str(), pin.value));
        } else if (pin.value != want->value) {
            out.push_back(strFormat(
                "%s: metric \"%s\": golden %.17g, measured %.17g", section,
                pin.name.c_str(), want->value, pin.value));
        }
    }
    for (const Pin& want : golden.metrics) {
        if (!findPin(run.pins(), want.name)) {
            out.push_back(strFormat(
                "%s: metric \"%s\": golden %.17g, not measured", section,
                want.name.c_str(), want.value));
        }
    }
    return out;
}

/**
 * The golden check of one section: runs it at the smoke tier at
 * campaign widths 1 and 4 and returns every mismatch of either run,
 * prefixed with its width. A section whose output depends on the width
 * fails here even if one of the runs matches.
 */
inline std::vector<std::string>
checkSection(const Section& section, const GoldenSection& golden)
{
    std::vector<std::string> out;
    for (const unsigned width : {1u, 4u}) {
        RunOptions options;
        options.smoke = true;
        options.threads = width;
        Report report;
        section.run(options, report);
        for (const std::string& m : goldenMismatches(golden, report))
            out.push_back(strFormat("width %u: %s", width, m.c_str()));
    }
    return out;
}

}  // namespace faasflow::bench

#endif  // FAASFLOW_BENCH_GOLDEN_H_
