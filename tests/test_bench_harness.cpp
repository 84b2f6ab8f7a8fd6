/**
 * @file
 * The bench harness: the section table, glob selection, the section
 * digest, and the golden (bench/BASELINE.json): its parser rejects
 * malformed documents with messages that name the path, a written
 * golden parses back exactly, any changed, new or vanished value is a
 * mismatch, and the checked-in golden names exactly the table's
 * sections. The sections themselves are checked against the golden by
 * test_paper.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "golden.h"
#include "json/json.h"
#include "sections.h"

namespace faasflow::bench {
namespace {

// ---------------------------------------------------------------------
// The section table

TEST(Registry, EveryFormerBenchBinaryIsRegistered)
{
    std::vector<std::string> names;
    for (const Section& s : allSections())
        names.push_back(s.name);
    const std::vector<std::string> expected = {
        "ablation_modes",
        "coldstart_policies",
        "durability_frontier",
        "fig04_mastersp_overhead",
        "fig05_data_movement",
        "fig11_sched_overhead",
        "fig12_bandwidth_sweep",
        "fig13_tail_latency",
        "fig14_colocation",
        "fig15_distribution",
        "fig16_scheduler_scalability",
        "generated_dags",
        "load_saturation",
        "perf_hotpaths",
        "sec57_component_overhead",
        "table2_vendor_quotas",
        "table4_data_latency",
    };
    EXPECT_EQ(names, expected);
}

// Sections no longer carry a suite; the table is the one grouping, so
// each entry must be complete and uniquely named.
TEST(Registry, SpecsAreCompleteAndSuitesKnown)
{
    std::set<std::string> seen;
    for (const Section& s : allSections()) {
        EXPECT_TRUE(seen.insert(s.name).second)
            << "duplicate section " << s.name;
        EXPECT_NE(std::string(s.description), "") << s.name;
        EXPECT_NE(s.run, nullptr) << s.name;
    }
}

TEST(Golden, NamesExactlyTheSectionsOfTheTable)
{
    const GoldenParseResult golden = loadGolden(FAASFLOW_GOLDEN_PATH);
    ASSERT_TRUE(golden.ok()) << golden.error;
    std::vector<std::string> in_golden;
    for (const GoldenSection& s : golden.sections)
        in_golden.push_back(s.name);
    std::vector<std::string> in_table;
    for (const Section& s : allSections())
        in_table.push_back(s.name);
    EXPECT_EQ(in_golden, in_table)
        << "rewrite the golden with faasflow_bench --smoke --write-golden";
}

// ---------------------------------------------------------------------
// Glob + selection semantics

TEST(Glob, MatchesAnchoredPatterns)
{
    EXPECT_TRUE(globMatch("fig1*", "fig12_bandwidth_sweep"));
    EXPECT_TRUE(globMatch("*saturation", "load_saturation"));
    EXPECT_TRUE(globMatch("*_*", "a_b"));
    EXPECT_TRUE(globMatch("fig?4*", "fig04_mastersp_overhead"));
    EXPECT_TRUE(globMatch("exact", "exact"));
    EXPECT_TRUE(globMatch("*", "anything"));
    EXPECT_TRUE(globMatch("**", "anything"));
    EXPECT_FALSE(globMatch("fig1*", "xfig12"));  // anchored at the start
    EXPECT_FALSE(globMatch("fig1", "fig12"));    // anchored at the end
    EXPECT_FALSE(globMatch("f?g", "fg"));        // ? needs one char
    EXPECT_FALSE(globMatch("", "x"));
    EXPECT_TRUE(globMatch("", ""));
}

void
noop(const RunOptions&, Report&)
{
}

constexpr Section kFakeSections[] = {
    {"alpha_one", "fake", noop},
    {"alpha_two", "fake", noop},
    {"beta_one", "fake", noop},
};

TEST(Select, FilterIsUnionOfGlobs)
{
    const auto picked =
        selectSections(kFakeSections, {"beta*", "alpha_two"});
    ASSERT_EQ(picked.size(), 2u);
    EXPECT_STREQ(picked[0]->name, "alpha_two");  // table order kept
    EXPECT_STREQ(picked[1]->name, "beta_one");
    EXPECT_EQ(selectSections(kFakeSections, {}).size(), 3u);
}

TEST(Select, NoMatchIsEmpty)
{
    EXPECT_TRUE(selectSections(kFakeSections, {"gamma*"}).empty());
}

// ---------------------------------------------------------------------
// The section digest

TEST(Report, DigestCoversDeterministicContentOnly)
{
    // The digest is FNV-1a over "<name>=<IEEE bits>\n" per pin plus the
    // folded text, in order, and over nothing else.
    Report report;
    report.pin("x", 1.0);
    report.digest("text");
    uint64_t fnv = 14695981039346656037ULL;
    for (const char c : std::string("x=3ff0000000000000\ntext")) {
        fnv ^= static_cast<uint8_t>(c);
        fnv *= 1099511628211ULL;
    }
    EXPECT_EQ(report.digestHex(),
              strFormat("%016llx", static_cast<unsigned long long>(fnv)));
    ASSERT_EQ(report.pins().size(), 1u);
    EXPECT_EQ(report.pins()[0].name, "x");

    // One ulp of one value, or one byte of folded text, moves it.
    Report ulp;
    ulp.pin("x", std::nextafter(1.0, 2.0));
    ulp.digest("text");
    EXPECT_NE(ulp.digestHex(), report.digestHex());
    Report text;
    text.pin("x", 1.0);
    text.digest("texT");
    EXPECT_NE(text.digestHex(), report.digestHex());
}

// ---------------------------------------------------------------------
// Golden parsing: malformed documents are rejected loudly

TEST(BaselineParse, AcceptsWellFormedDocument)
{
    const char* text = R"({
        "sec": {
            "digest": "0123456789abcdef",
            "metrics": {"tput": 100.5, "count": 3}
        },
        "empty": {"digest": "fedcba9876543210", "metrics": {}}
    })";
    const GoldenParseResult result =
        parseGolden(json::parseOrDie(text), "golden.json");
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.sections.size(), 2u);
    const GoldenSection* sec = findGoldenSection(result.sections, "sec");
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->digest, "0123456789abcdef");
    ASSERT_EQ(sec->metrics.size(), 2u);
    EXPECT_EQ(sec->metrics[0].name, "tput");
    EXPECT_EQ(sec->metrics[0].value, 100.5);
    EXPECT_EQ(sec->metrics[1].value, 3.0);  // an integer widens
    EXPECT_TRUE(findGoldenSection(result.sections, "empty")->metrics.empty());
}

TEST(BaselineParse, RejectsMalformationsWithUsefulMessages)
{
    struct Case
    {
        const char* doc;
        const char* expect;  ///< substring the message must contain
    };
    const std::vector<Case> cases = {
        {R"([1])", "top level must be an object"},
        {R"({"a": {"digest": "0123456789abcdef", "metrics": {}},
             "a": {"digest": "0123456789abcdef", "metrics": {}}})",
         "duplicate section \"a\""},
        {R"({"a": 1})", "section \"a\" must be an object"},
        {R"({"a": {"digest": "0123456789abcdef",
                   "metrics": {"m": "fast"}}})",
         "section \"a\" metric \"m\" must be a number"},
        {R"({"a": {"digest": "0123456789abcdef",
                   "metrics": {"m": 1, "m": 2}}})",
         "duplicate section \"a\" metric \"m\""},
        {R"({"a": {"digest": "0123456789ABCDEF", "metrics": {}}})",
         "section \"a\": digest must be 16 lowercase hex digits"},
        {R"({"a": {"digest": "123", "metrics": {}}})",
         "section \"a\": digest must be 16 lowercase hex digits"},
        {R"({"a": {"metrics": {}}})",
         "section \"a\": digest must be 16 lowercase hex digits"},
        {R"({"a": {"digest": "0123456789abcdef"}})",
         "section \"a\": metrics must be an object"},
        {R"({"a": {"digest": "0123456789abcdef", "metrics": []}})",
         "section \"a\": metrics must be an object"},
        {R"({"a": {"digest": "0123456789abcdef", "metrics": {},
                   "tier": "smoke"}})",
         "section \"a\": unknown field \"tier\""},
    };
    for (const Case& c : cases) {
        const json::ParseResult doc = json::parse(c.doc);
        ASSERT_TRUE(doc.ok()) << doc.error << "\n" << c.doc;
        const GoldenParseResult result =
            parseGolden(*doc.value, "bench/BASELINE.json");
        ASSERT_FALSE(result.ok()) << c.doc;
        EXPECT_TRUE(result.sections.empty()) << c.doc;
        EXPECT_NE(result.error.find(c.expect), std::string::npos)
            << "message \"" << result.error << "\" lacks \"" << c.expect
            << "\"";
        // Every message names the file so CI logs are self-explanatory.
        EXPECT_EQ(result.error.rfind("bench/BASELINE.json: ", 0), 0u)
            << result.error;
    }
    const GoldenParseResult missing = loadGolden("no/such/golden.json");
    EXPECT_EQ(missing.error, "no/such/golden.json: cannot open");
}

// ---------------------------------------------------------------------
// Golden round trip and mismatches

Report
sampleRun()
{
    Report report;
    report.pin("p99_ms", 1.5);
    report.pin("count", 7.0);
    report.pin("ratio", 0.1);
    report.digest("folded text");
    return report;
}

GoldenSection
goldenOf(const Report& report)
{
    json::Value doc = json::Value::object();
    doc.set("sec", goldenEntry(report));
    const GoldenParseResult parsed =
        parseGolden(json::parseOrDie(doc.dump(2)), "golden.json");
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return parsed.sections.at(0);
}

TEST(Golden, WriteParseRoundTripIsExact)
{
    const Report run = sampleRun();
    const GoldenSection golden = goldenOf(run);
    EXPECT_EQ(golden.name, "sec");
    EXPECT_EQ(golden.digest, run.digestHex());
    EXPECT_TRUE(goldenMismatches(golden, run).empty());
}

TEST(Ratchet, RelZeroPinsExactAndPerturbationFails)
{
    const GoldenSection golden = goldenOf(sampleRun());
    Report perturbed;
    perturbed.pin("p99_ms", std::nextafter(1.5, 0.0));
    perturbed.pin("count", 7.0);
    perturbed.pin("ratio", 0.1);
    perturbed.digest("folded text");
    const std::vector<std::string> out = goldenMismatches(golden, perturbed);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].rfind("sec: digest: golden ", 0), 0u) << out[0];
    EXPECT_EQ(out[1], "sec: metric \"p99_ms\": golden 1.5, measured "
                      "1.4999999999999998");
}

TEST(Ratchet, MetricMissingFromRunFails)
{
    const GoldenSection golden = goldenOf(sampleRun());
    Report run;
    run.pin("p99_ms", 1.5);
    run.pin("count", 7.0);
    run.digest("folded text");
    const std::vector<std::string> out = goldenMismatches(golden, run);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1], "sec: metric \"ratio\": golden 0.10000000000000001, "
                      "not measured");
}

TEST(Golden, NewOrDoublePinnedMetricFailsUntilRewritten)
{
    const GoldenSection golden = goldenOf(sampleRun());
    Report run = sampleRun();
    run.pin("brand_new", 2.5);
    run.pin("count", 7.0);
    const std::vector<std::string> out = goldenMismatches(golden, run);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[1],
              "sec: metric \"brand_new\": not in the golden, measured 2.5");
    EXPECT_EQ(out[2], "sec: metric \"count\" is pinned twice");
}

void
widthIndependent(const RunOptions& options, Report& report)
{
    report.pin("smoke", options.smoke ? 1.0 : 0.0);
}

void
widthDependent(const RunOptions& options, Report& report)
{
    report.pin("width", static_cast<double>(options.threads));
}

TEST(Ratchet, InternallyNonDeterministicRunFails)
{
    // The golden check runs a section at widths 1 and 4; output that
    // depends on the width cannot match one golden at both.
    Report steady;
    widthIndependent(RunOptions{true, 1}, steady);
    EXPECT_TRUE(checkSection({"steady", "fake", widthIndependent},
                             goldenOf(steady))
                    .empty());

    Report narrow;
    widthDependent(RunOptions{true, 1}, narrow);
    const std::vector<std::string> out = checkSection(
        {"drifty", "fake", widthDependent}, goldenOf(narrow));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].rfind("width 4: sec: digest: golden ", 0), 0u)
        << out[0];
    EXPECT_EQ(out[1], "width 4: sec: metric \"width\": golden 1, measured 4");
}

}  // namespace
}  // namespace faasflow::bench
