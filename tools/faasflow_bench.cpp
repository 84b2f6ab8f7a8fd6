/**
 * @file
 * `faasflow_bench`: every paper figure, table and study as a named
 * section of one CLI.
 *
 *   faasflow_bench --list                      # every section
 *   faasflow_bench --filter 'fig1*' --smoke    # glob over section names
 *   faasflow_bench --smoke --write-golden bench/BASELINE.json
 *
 * A run prints each section's tables and ends the section with its
 * digest. `--write-golden` runs every section at the smoke tier and
 * rewrites the golden that `test_paper` (ctest label `paper`) checks.
 */
#include <cstdio>
#include <fstream>

#include "common/flags.h"
#include "golden.h"
#include "sections.h"

namespace {

using namespace faasflow;

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
    flags.addBool("list", false, "list the sections and exit");
    flags.addString("filter", "",
                    "comma-separated section-name globs (* and ?)");
    flags.addBool("smoke", false,
                  "CI-sized workloads, the tier the golden pins");
    flags.addInt("threads", 0,
                 "campaign fan-out width (0 = FAASFLOW_CAMPAIGN_THREADS "
                 "or hardware)");
    flags.addString("write-golden", "",
                    "run every section at the smoke tier and write the "
                    "golden here");

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

    if (flags.getBool("list")) {
        for (const bench::Section& s : bench::allSections())
            std::printf("%-28s %s\n", s.name, s.description);
        return 0;
    }

    const std::string golden_path = flags.getString("write-golden");
    const std::vector<std::string> filters =
        splitCommas(flags.getString("filter"));
    if (!golden_path.empty() && !filters.empty()) {
        std::fprintf(stderr,
                     "error: --write-golden runs every section; drop "
                     "--filter\n");
        return 2;
    }
    const std::vector<const bench::Section*> selected =
        bench::selectSections(bench::allSections(), filters);
    if (selected.empty()) {
        std::fprintf(stderr, "error: no sections selected\n");
        return 2;
    }

    bench::RunOptions options;
    options.smoke = flags.getBool("smoke") || !golden_path.empty();
    options.threads = static_cast<unsigned>(flags.getInt("threads"));
    json::Value golden = json::Value::object();
    for (const bench::Section* section : selected) {
        std::printf("== %s%s\n", section->name,
                    options.smoke ? " (smoke)" : "");
        std::fflush(stdout);
        bench::Report report;
        section->run(options, report);
        std::printf("-- %s: %zu pins, digest %s\n\n", section->name,
                    report.pins().size(), report.digestHex().c_str());
        golden.set(section->name, bench::goldenEntry(report));
    }

    if (!golden_path.empty()) {
        std::ofstream out(golden_path);
        out << golden.dump(2) << "\n";
        if (!out.good()) {
            std::fprintf(stderr, "error: cannot write '%s'\n",
                         golden_path.c_str());
            return 1;
        }
        std::printf("wrote %s (%zu sections)\n", golden_path.c_str(),
                    selected.size());
    }
    return 0;
}
