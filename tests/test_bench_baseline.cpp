/**
 * @file
 * Baseline ratchets: direction-aware tolerance math (including rel=0
 * exact pins), hard floors/ceils, the missing-metric=fail /
 * new-metric=warn-and-adopt policy, tier hygiene, baseline refresh, and
 * malformed-BASELINE.json rejection with messages that name the
 * offending path.
 */
#include <gtest/gtest.h>

#include "baseline.h"
#include "json/json.h"
#include "runner.h"

namespace faasflow::bench {
namespace {

// ---------------------------------------------------------------------
// Builders

MetricResult
metric(std::string name, double value, Direction dir, bool det = true)
{
    MetricResult m;
    m.name = std::move(name);
    m.value = value;
    m.min = value;
    m.dir = dir;
    m.deterministic = det;
    return m;
}

RunReport
smokeReport(std::vector<MetricResult> metrics,
            const std::string& section = "sec")
{
    RunReport report;
    report.smoke = true;
    SectionResult s;
    s.name = section;
    s.suite = "perf";
    s.determinism_digest = "0123456789abcdef";
    s.metrics = std::move(metrics);
    report.sections.push_back(std::move(s));
    return report;
}

Baseline
baselineWith(const std::string& name, BaselineMetric bm,
             const std::string& section = "sec")
{
    Baseline baseline;
    baseline.tier = "smoke";
    baseline.default_rel = 0.25;
    BaselineSection s;
    s.metrics.emplace_back(name, bm);
    baseline.sections.emplace_back(section, std::move(s));
    return baseline;
}

BaselineMetric
bm(double value, Direction dir, std::optional<double> rel = {},
   std::optional<double> floor = {}, std::optional<double> ceil = {})
{
    BaselineMetric out;
    out.value = value;
    out.dir = dir;
    out.rel = rel;
    out.floor = floor;
    out.ceil = ceil;
    return out;
}

// ---------------------------------------------------------------------
// Direction-aware tolerance math

TEST(Ratchet, HigherIsBetterTolerenceBand)
{
    const Baseline base =
        baselineWith("tput", bm(1000.0, Direction::Higher, 0.10));
    // 5% drop: inside the band.
    EXPECT_TRUE(compareReport(smokeReport({metric("tput", 950.0,
                                                  Direction::Higher)}),
                              base)
                    .ok());
    // 15% drop: regression.
    const CompareResult fail = compareReport(
        smokeReport({metric("tput", 850.0, Direction::Higher)}), base);
    ASSERT_FALSE(fail.ok());
    EXPECT_NE(fail.failures[0].find("tput"), std::string::npos);
    // Improvement is never a failure.
    EXPECT_TRUE(compareReport(smokeReport({metric("tput", 5000.0,
                                                  Direction::Higher)}),
                              base)
                    .ok());
}

TEST(Ratchet, LowerIsBetterToleranceBand)
{
    const Baseline base =
        baselineWith("p99", bm(100.0, Direction::Lower, 0.20));
    EXPECT_TRUE(compareReport(
                    smokeReport({metric("p99", 115.0, Direction::Lower)}),
                    base)
                    .ok());
    EXPECT_FALSE(compareReport(
                     smokeReport({metric("p99", 130.0, Direction::Lower)}),
                     base)
                     .ok());
    EXPECT_TRUE(compareReport(
                    smokeReport({metric("p99", 1.0, Direction::Lower)}),
                    base)
                    .ok());
}

TEST(Ratchet, RelZeroPinsExactAndPerturbationFails)
{
    const Baseline base =
        baselineWith("det", bm(3.25, Direction::Higher, 0.0));
    EXPECT_TRUE(compareReport(
                    smokeReport({metric("det", 3.25, Direction::Higher)}),
                    base)
                    .ok());
    // The acceptance demo: any perturbation of a pinned metric fails,
    // even one far below normal tolerance noise.
    const CompareResult fail = compareReport(
        smokeReport({metric("det", 3.2500001, Direction::Higher)}), base);
    ASSERT_FALSE(fail.ok());
    // Exact pins fail in *both* directions.
    EXPECT_FALSE(compareReport(
                     smokeReport({metric("det", 3.26, Direction::Higher)}),
                     base)
                     .ok());
}

TEST(Ratchet, HardFloorBindsEvenWhenRollingBandPasses)
{
    // Rolling baseline 1000 with 50% tolerance would allow 600; the
    // seed-number floor at 800 does not.
    const Baseline base = baselineWith(
        "tput", bm(1000.0, Direction::Higher, 0.50, 800.0));
    EXPECT_TRUE(compareReport(smokeReport({metric("tput", 900.0,
                                                  Direction::Higher)}),
                              base)
                    .ok());
    const CompareResult fail = compareReport(
        smokeReport({metric("tput", 700.0, Direction::Higher)}), base);
    ASSERT_FALSE(fail.ok());
    EXPECT_NE(fail.failures[0].find("hard floor"), std::string::npos);
}

TEST(Ratchet, HardCeilingBindsForLowerIsBetter)
{
    const Baseline base = baselineWith(
        "p99", bm(100.0, Direction::Lower, 0.50, {}, 120.0));
    EXPECT_FALSE(compareReport(
                     smokeReport({metric("p99", 130.0, Direction::Lower)}),
                     base)
                     .ok());
}

TEST(Ratchet, DefaultRelAppliesWhenMetricHasNone)
{
    Baseline base = baselineWith("tput", bm(1000.0, Direction::Higher));
    base.default_rel = 0.05;
    EXPECT_TRUE(compareReport(smokeReport({metric("tput", 960.0,
                                                  Direction::Higher)}),
                              base)
                    .ok());
    EXPECT_FALSE(compareReport(smokeReport({metric("tput", 900.0,
                                                   Direction::Higher)}),
                               base)
                     .ok());
}

TEST(Ratchet, InfoMetricsOnlyGateWhenPinnedExact)
{
    // Unpinned info: provenance only, any value passes.
    EXPECT_TRUE(
        compareReport(
            smokeReport({metric("count", 99.0, Direction::Info)}),
            baselineWith("count", bm(5.0, Direction::Info)))
            .ok());
    // Pinned info (rel 0): deterministic counts must repeat.
    const Baseline pinned =
        baselineWith("count", bm(5.0, Direction::Info, 0.0));
    EXPECT_TRUE(compareReport(
                    smokeReport({metric("count", 5.0, Direction::Info)}),
                    pinned)
                    .ok());
    EXPECT_FALSE(compareReport(
                     smokeReport({metric("count", 6.0, Direction::Info)}),
                     pinned)
                     .ok());
}

// ---------------------------------------------------------------------
// Policy: vanished vs new metrics, tiers, determinism

TEST(Ratchet, MetricMissingFromRunFails)
{
    const Baseline base =
        baselineWith("gone", bm(1.0, Direction::Higher));
    const CompareResult result = compareReport(
        smokeReport({metric("other", 1.0, Direction::Higher)}), base);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.failures[0].find("did not emit"), std::string::npos);
}

TEST(Ratchet, NewMetricAndSectionOnlyWarn)
{
    const Baseline base =
        baselineWith("tput", bm(1000.0, Direction::Higher));
    RunReport report =
        smokeReport({metric("tput", 1000.0, Direction::Higher),
                     metric("brand_new", 7.0, Direction::Lower)});
    SectionResult extra;
    extra.name = "new_section";
    extra.suite = "perf";
    extra.determinism_digest = "0123456789abcdef";
    report.sections.push_back(extra);
    const CompareResult result = compareReport(report, base);
    EXPECT_TRUE(result.ok());
    ASSERT_EQ(result.warnings.size(), 2u);
    EXPECT_NE(result.warnings[0].find("refreshing BASELINE.json"),
              std::string::npos);
}

TEST(Ratchet, FilteredOutBaselineSectionOnlyWarns)
{
    Baseline base = baselineWith("m", bm(1.0, Direction::Higher));
    BaselineSection other;
    other.metrics.emplace_back("x", bm(1.0, Direction::Higher));
    base.sections.emplace_back("not_run_today", std::move(other));
    const CompareResult result = compareReport(
        smokeReport({metric("m", 1.0, Direction::Higher)}), base);
    EXPECT_TRUE(result.ok());
    ASSERT_EQ(result.warnings.size(), 1u);
    EXPECT_NE(result.warnings[0].find("not_run_today"), std::string::npos);
}

TEST(Ratchet, TierMismatchFailsOutright)
{
    Baseline base = baselineWith("m", bm(1.0, Direction::Higher));
    base.tier = "full";
    const CompareResult result = compareReport(
        smokeReport({metric("m", 1.0, Direction::Higher)}), base);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.failures[0].find("tier mismatch"), std::string::npos);
}

TEST(Ratchet, InternallyNonDeterministicRunFails)
{
    RunReport report = smokeReport({metric("m", 1.0, Direction::Higher)});
    report.sections[0].metrics[0].stable = false;
    const CompareResult result = compareReport(
        report, baselineWith("m", bm(1.0, Direction::Higher)));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.failures[0].find("not internally deterministic"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Baseline parsing: malformed documents are rejected loudly

TEST(BaselineParse, AcceptsWellFormedDocument)
{
    const char* text = R"({
        "schema_version": 1,
        "tier": "smoke",
        "default_rel": 0.25,
        "sections": [{
            "name": "sec",
            "metrics": {
                "tput": {"value": 100.0, "dir": "higher", "rel": 0.1,
                         "floor": 80.0},
                "p99": {"value": 10.0, "dir": "lower", "ceil": 20.0},
                "count": {"value": 3.0, "dir": "info", "rel": 0.0}
            }
        }]
    })";
    const BaselineParseResult result =
        parseBaseline(json::parseOrDie(text));
    ASSERT_TRUE(result.ok()) << result.error;
    const Baseline& b = *result.baseline;
    EXPECT_EQ(b.tier, "smoke");
    ASSERT_NE(b.findSection("sec"), nullptr);
    const BaselineMetric* tput = b.findSection("sec")->findMetric("tput");
    ASSERT_NE(tput, nullptr);
    EXPECT_EQ(tput->dir, Direction::Higher);
    ASSERT_TRUE(tput->floor.has_value());
    EXPECT_EQ(*tput->floor, 80.0);
}

TEST(BaselineParse, RejectsMalformationsWithUsefulMessages)
{
    struct Case
    {
        const char* doc;
        const char* expect;  ///< substring the message must contain
    };
    const std::vector<Case> cases = {
        {R"([1])", "must be an object"},
        {R"({"tier": "smoke", "default_rel": 0.1, "sections": []})",
         "schema_version"},
        {R"({"schema_version": 2, "tier": "smoke", "default_rel": 0.1,
             "sections": []})",
         "schema_version"},
        {R"({"schema_version": 1, "tier": "dev", "default_rel": 0.1,
             "sections": []})",
         "tier"},
        {R"({"schema_version": 1, "tier": "smoke", "default_rel": -1,
             "sections": []})",
         "default_rel"},
        {R"({"schema_version": 1, "tier": "smoke", "default_rel": 0.1,
             "sections": {}})",
         "sections must be an array"},
        {R"({"schema_version": 1, "tier": "smoke", "default_rel": 0.1,
             "sections": [{"metrics": {}}]})",
         "name"},
        {R"({"schema_version": 1, "tier": "smoke", "default_rel": 0.1,
             "sections": [{"name": "a", "metrics": {}},
                          {"name": "a", "metrics": {}}]})",
         "duplicate section"},
        {R"({"schema_version": 1, "tier": "smoke", "default_rel": 0.1,
             "sections": [{"name": "a",
                           "metrics": {"m": {"dir": "higher"}}}]})",
         "value must be a number"},
        {R"({"schema_version": 1, "tier": "smoke", "default_rel": 0.1,
             "sections": [{"name": "a",
                           "metrics": {"m": {"value": 1,
                                             "dir": "sideways"}}}]})",
         "dir must be higher/lower/info"},
        {R"({"schema_version": 1, "tier": "smoke", "default_rel": 0.1,
             "sections": [{"name": "a",
                           "metrics": {"m": {"value": 1, "dir": "higher",
                                             "rel": -0.5}}}]})",
         "rel"},
        {R"({"schema_version": 1, "tier": "smoke", "default_rel": 0.1,
             "sections": [{"name": "a",
                           "metrics": {"m": {"value": 1, "dir": "lower",
                                             "floor": 1}}}]})",
         "floor only applies to dir=higher"},
        {R"({"schema_version": 1, "tier": "smoke", "default_rel": 0.1,
             "sections": [{"name": "a",
                           "metrics": {"m": {"value": 1, "dir": "higher",
                                             "ceil": 1}}}]})",
         "ceil only applies to dir=lower"},
    };
    for (const Case& c : cases) {
        const json::ParseResult doc = json::parse(c.doc);
        ASSERT_TRUE(doc.ok()) << doc.error << "\n" << c.doc;
        const BaselineParseResult result = parseBaseline(*doc.value);
        ASSERT_FALSE(result.ok()) << c.doc;
        EXPECT_NE(result.error.find(c.expect), std::string::npos)
            << "message \"" << result.error << "\" lacks \"" << c.expect
            << "\"";
        // Every message names the file so CI logs are self-explanatory.
        EXPECT_NE(result.error.find("BASELINE.json"), std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Refresh round-trip

TEST(BaselineRefresh, PinsDeterministicDropsLooseInfoAndRoundTrips)
{
    const RunReport report = smokeReport(
        {metric("det_count", 5.0, Direction::Info, true),
         metric("tput", 1000.0, Direction::Higher, false),
         metric("loose_note", 3.0, Direction::Info, false)});
    const json::Value doc = baselineFromReport(report, 0.25);
    const BaselineParseResult parsed = parseBaseline(doc);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const BaselineSection* sec = parsed.baseline->findSection("sec");
    ASSERT_NE(sec, nullptr);
    const BaselineMetric* det = sec->findMetric("det_count");
    ASSERT_NE(det, nullptr);
    ASSERT_TRUE(det->rel.has_value());
    EXPECT_EQ(*det->rel, 0.0);  // deterministic -> exact pin
    const BaselineMetric* tput = sec->findMetric("tput");
    ASSERT_NE(tput, nullptr);
    EXPECT_FALSE(tput->rel.has_value());  // timing -> default_rel
    EXPECT_EQ(sec->findMetric("loose_note"), nullptr);
    // A refreshed baseline immediately accepts the run it came from,
    // without warning about the loose info metric it left out.
    const CompareResult self = compareReport(report, *parsed.baseline);
    EXPECT_TRUE(self.ok());
    EXPECT_TRUE(self.warnings.empty())
        << self.warnings.size() << " warning(s), first: "
        << (self.warnings.empty() ? "" : self.warnings.front());
    // ...and rejects a perturbation of the pinned metric.
    RunReport perturbed = report;
    perturbed.sections[0].metrics[0].value += 1e-9;
    EXPECT_FALSE(compareReport(perturbed, *parsed.baseline).ok());
}

}  // namespace
}  // namespace faasflow::bench
