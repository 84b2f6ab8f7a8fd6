/**
 * @file
 * `faasflow_bench`: the unified benchmark harness. Every benchmark that
 * used to be its own executable under bench/ is a registered section;
 * this CLI selects, runs, reports, and ratchets them.
 *
 *   faasflow_bench --list                      # every section + suite
 *   faasflow_bench --filter 'fig1*' --smoke    # glob over section names
 *   faasflow_bench --suite load --out BENCH.json
 *   faasflow_bench --smoke --reps 3 --compare bench/BASELINE.json
 *   faasflow_bench --smoke --refresh-baseline bench/BASELINE.json
 *
 * `--compare` ratchets the run against the checked-in baseline with
 * direction-aware tolerance bands (exit 1 on regression); `--reps N`
 * repeats sections interleaved (A/B/A/B) and reports median/min/stddev;
 * `--budget-ms` bounds each section's wall time, with sections degrading
 * to partial coverage (`truncated`) rather than overshooting.
 */
#include <cstdio>
#include <fstream>
#include <sstream>

#include "baseline.h"
#include "common/flags.h"
#include "registry.h"
#include "runner.h"
#include "schema.h"

namespace {

using namespace faasflow;

std::string
readFile(const std::string& path, std::string& error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open '" + path + "'";
        return {};
    }
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

bool
writeFile(const std::string& path, const std::string& text)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << text;
    return out.good();
}

std::vector<std::string>
splitCommas(const std::string& text)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= text.size()) {
        const size_t comma = text.find(',', start);
        const std::string piece = text.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!piece.empty())
            out.push_back(piece);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    FlagParser flags;
    flags.addBool("list", false, "list registered sections and exit");
    flags.addString("filter", "",
                    "comma-separated section-name globs (* and ?)");
    flags.addString("suite", "",
                    "restrict to one suite: figures|tables|ablation|load|"
                    "perf|workloads");
    flags.addBool("smoke", false,
                  "CI-sized workloads (tier recorded in the report; not "
                  "comparable with full runs)");
    flags.addInt("reps", 1,
                 "interleaved repetitions; timing metrics report "
                 "median/min/stddev");
    flags.addInt("budget-ms", 0,
                 "per-section wall budget; long loops truncate instead of "
                 "overshooting (0 = unlimited)");
    flags.addInt("threads", 0,
                 "campaign fan-out width (0 = FAASFLOW_CAMPAIGN_THREADS "
                 "or hardware)");
    flags.addString("out", "BENCH.json", "where to write the report");
    flags.addBool("no-out", false, "skip writing the report file");
    flags.addString("compare", "",
                    "ratchet the run against this BASELINE.json; exit 1 "
                    "on regression");
    flags.addString("refresh-baseline", "",
                    "write a fresh baseline derived from this run here");
    flags.addDouble("default-rel", 0.25,
                    "default relative tolerance for --refresh-baseline");
    flags.addBool("quiet", false, "suppress per-section console output");

    if (!flags.parse(argc, argv)) {
        std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                     flags.usage("faasflow_bench").c_str());
        return 2;
    }
    if (flags.helpRequested()) {
        std::fprintf(stderr, "%s", flags.usage("faasflow_bench").c_str());
        return 0;
    }

    if (!flags.positional().empty()) {
        std::fprintf(stderr, "error: unexpected argument '%s'\n",
                     flags.positional()[0].c_str());
        return 2;
    }

    bench::Registry registry;
    bench::registerAllSections(registry);

    if (flags.getBool("list")) {
        std::printf("%-28s %-9s %s\n", "section", "suite", "description");
        for (const bench::SectionSpec& s : registry.sections()) {
            std::printf("%-28s %-9s %s\n", s.name.c_str(), s.suite.c_str(),
                        s.description.c_str());
        }
        return 0;
    }

    bench::RunnerOptions options;
    options.filters = splitCommas(flags.getString("filter"));
    options.suite = flags.getString("suite");
    options.smoke = flags.getBool("smoke");
    options.reps = static_cast<int>(flags.getInt("reps"));
    options.budget_ms = flags.getInt("budget-ms");
    options.threads = static_cast<unsigned>(flags.getInt("threads"));
    options.verbose = !flags.getBool("quiet");
    if (options.reps < 1) {
        std::fprintf(stderr, "error: --reps must be >= 1\n");
        return 2;
    }
    if (!options.suite.empty() &&
        bench::selectSections(registry, options).empty()) {
        std::fprintf(stderr,
                     "error: no sections match --suite '%s'%s\n",
                     options.suite.c_str(),
                     options.filters.empty() ? "" : " with the filters");
        return 2;
    }
    if (bench::selectSections(registry, options).empty()) {
        std::fprintf(stderr, "error: no sections selected\n");
        return 2;
    }

    const bench::RunReport report = bench::runSections(registry, options);
    const json::Value doc = bench::reportJson(report);
    {
        // Every emitted document must pass the in-tree validator; a
        // violation here is a harness bug, not a user error.
        const std::vector<std::string> violations =
            bench::validateBenchReport(doc);
        for (const std::string& v : violations)
            std::fprintf(stderr, "internal schema violation: %s\n",
                         v.c_str());
        if (!violations.empty())
            return 1;
    }

    if (!flags.getBool("no-out")) {
        const std::string out_path = flags.getString("out");
        if (!writeFile(out_path, doc.dump(2) + "\n")) {
            std::fprintf(stderr, "error: cannot write '%s'\n",
                         out_path.c_str());
            return 1;
        }
        std::printf("\nwrote %s (%zu section%s, tier %s)\n",
                    out_path.c_str(), report.sections.size(),
                    report.sections.size() == 1 ? "" : "s",
                    report.smoke ? "smoke" : "full");
    }

    if (!flags.getString("refresh-baseline").empty()) {
        const json::Value fresh = bench::baselineFromReport(
            report, flags.getDouble("default-rel"));
        const std::string path = flags.getString("refresh-baseline");
        if (!writeFile(path, fresh.dump(2) + "\n")) {
            std::fprintf(stderr, "error: cannot write '%s'\n",
                         path.c_str());
            return 1;
        }
        std::printf("baseline refreshed -> %s (merge hard floors/ceils by "
                    "hand; they encode history)\n",
                    path.c_str());
    }

    if (!flags.getString("compare").empty()) {
        const std::string path = flags.getString("compare");
        std::string error;
        const std::string text = readFile(path, error);
        if (!error.empty()) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 1;
        }
        json::ParseResult parsed = json::parse(text);
        if (!parsed.ok()) {
            std::fprintf(stderr, "error: %s line %zu: %s\n", path.c_str(),
                         parsed.line, parsed.error.c_str());
            return 1;
        }
        bench::BaselineParseResult baseline =
            bench::parseBaseline(*parsed.value);
        if (!baseline.ok()) {
            std::fprintf(stderr, "error: %s\n", baseline.error.c_str());
            return 1;
        }
        const bench::CompareResult compared =
            bench::compareReport(report, *baseline.baseline);
        for (const std::string& w : compared.warnings)
            std::printf("WARN  %s\n", w.c_str());
        for (const std::string& f : compared.failures)
            std::printf("FAIL  %s\n", f.c_str());
        if (!compared.ok()) {
            std::printf("ratchet: %zu regression(s) against %s\n",
                        compared.failures.size(), path.c_str());
            return 1;
        }
        std::printf("ratchet: ok against %s (%zu warning%s)\n",
                    path.c_str(), compared.warnings.size(),
                    compared.warnings.size() == 1 ? "" : "s");
    }
    return 0;
}
