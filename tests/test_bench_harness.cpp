/**
 * @file
 * The unified bench harness: registry enumeration, glob/suite
 * selection, interleaved repetition aggregation, per-section budget
 * enforcement, schema validity of every emitted report, and the
 * determinism golden — every section's digest is byte-identical across
 * repeated runs and across campaign thread counts.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "json/json.h"
#include "registry.h"
#include "runner.h"
#include "schema.h"

namespace faasflow::bench {
namespace {

RunnerOptions
quietOptions()
{
    RunnerOptions options;
    options.verbose = false;
    return options;
}

// ---------------------------------------------------------------------
// Registry enumeration

TEST(Registry, EveryFormerBenchBinaryIsRegistered)
{
    Registry registry;
    registerAllSections(registry);
    std::vector<std::string> names;
    for (const SectionSpec& s : registry.sections())
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

TEST(Registry, SpecsAreCompleteAndSuitesKnown)
{
    Registry registry;
    registerAllSections(registry);
    const std::set<std::string> suites = {"figures", "tables", "ablation",
                                          "load", "perf", "workloads"};
    std::set<std::string> seen;
    for (const SectionSpec& s : registry.sections()) {
        EXPECT_TRUE(seen.insert(s.name).second)
            << "duplicate section " << s.name;
        EXPECT_TRUE(suites.count(s.suite))
            << s.name << " has unknown suite " << s.suite;
        EXPECT_FALSE(s.description.empty()) << s.name;
        EXPECT_TRUE(static_cast<bool>(s.run)) << s.name;
    }
}

TEST(Registry, FindLocatesByName)
{
    Registry registry;
    registerAllSections(registry);
    ASSERT_NE(registry.find("load_saturation"), nullptr);
    EXPECT_EQ(registry.find("load_saturation")->suite, "load");
    EXPECT_EQ(registry.find("no_such_section"), nullptr);
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

Registry
fakeRegistry()
{
    Registry registry;
    for (const auto& [name, suite] :
         std::vector<std::pair<std::string, std::string>>{
             {"alpha_one", "figures"},
             {"alpha_two", "tables"},
             {"beta_one", "figures"}}) {
        registry.add(SectionSpec{
            name, suite, "fake",
            [](const RunOptions&, Report& report) {
                report.info("touched", 1.0);
            }});
    }
    return registry;
}

TEST(Select, FilterIsUnionOfGlobs)
{
    const Registry registry = fakeRegistry();
    RunnerOptions options = quietOptions();
    options.filters = {"beta*", "alpha_two"};
    const auto picked = selectSections(registry, options);
    ASSERT_EQ(picked.size(), 2u);
    EXPECT_EQ(picked[0]->name, "alpha_two");  // registration order kept
    EXPECT_EQ(picked[1]->name, "beta_one");
}

TEST(Select, SuiteRestrictsAndComposesWithFilter)
{
    const Registry registry = fakeRegistry();
    RunnerOptions options = quietOptions();
    options.suite = "figures";
    EXPECT_EQ(selectSections(registry, options).size(), 2u);
    options.filters = {"alpha*"};
    const auto picked = selectSections(registry, options);
    ASSERT_EQ(picked.size(), 1u);
    EXPECT_EQ(picked[0]->name, "alpha_one");
}

TEST(Select, NoMatchIsEmpty)
{
    const Registry registry = fakeRegistry();
    RunnerOptions options = quietOptions();
    options.filters = {"gamma*"};
    EXPECT_TRUE(selectSections(registry, options).empty());
}

// ---------------------------------------------------------------------
// Budget enforcement

TEST(Runner, BudgetTruncatesSlowSectionsInsteadOfOvershooting)
{
    Registry registry;
    registry.add(SectionSpec{
        "slow", "perf", "sleeps until told to stop",
        [](const RunOptions& opts, Report& report) {
            int completed = 0;
            for (int i = 0; i < 1000; ++i) {
                if (opts.budgetExpired()) {
                    report.truncated();
                    break;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                ++completed;
            }
            report.info("completed", completed);
        }});
    RunnerOptions options = quietOptions();
    options.budget_ms = 30;
    const RunReport report = runSections(registry, options);
    ASSERT_EQ(report.sections.size(), 1u);
    EXPECT_TRUE(report.sections[0].truncated);
    // Polled bail-out: far fewer than the 1000 x 2ms the loop wanted.
    ASSERT_EQ(report.sections[0].metrics.size(), 1u);
    EXPECT_LT(report.sections[0].metrics[0].value, 500.0);
    EXPECT_GT(report.sections[0].metrics[0].value, 0.0);
}

TEST(Runner, GenerousBudgetDoesNotTruncate)
{
    Registry registry;
    registry.add(SectionSpec{"quick", "perf", "",
                             [](const RunOptions& opts, Report& report) {
                                 EXPECT_FALSE(opts.budgetExpired());
                                 report.info("v", 1.0);
                             }});
    RunnerOptions options = quietOptions();
    options.budget_ms = 60000;
    const RunReport report = runSections(registry, options);
    ASSERT_EQ(report.sections.size(), 1u);
    EXPECT_FALSE(report.sections[0].truncated);
    EXPECT_FALSE(report.sections[0].over_budget);
}

TEST(RunOptions, ZeroBudgetNeverExpires)
{
    RunOptions options;
    options.budget_ms = 0;
    options.section_start = std::chrono::steady_clock::now() -
                            std::chrono::hours(1);
    EXPECT_FALSE(options.budgetExpired());
    options.budget_ms = 1;
    EXPECT_TRUE(options.budgetExpired());
}

// ---------------------------------------------------------------------
// Interleaved repetition aggregation

TEST(Runner, RepsAggregateMedianMinStddevAndStability)
{
    // Deterministic metric repeats exactly; the "timing" metric varies
    // per round via shared state (rounds run 1,2,3 -> median 2, min 1).
    auto counter = std::make_shared<int>(0);
    Registry registry;
    registry.add(SectionSpec{
        "fake", "perf", "",
        [counter](const RunOptions&, Report& report) {
            report.info("det_constant", 42.0);
            report.lower("wall_like", static_cast<double>(++*counter),
                         false);
        }});
    RunnerOptions options = quietOptions();
    options.reps = 3;
    const RunReport report = runSections(registry, options);
    ASSERT_EQ(report.sections.size(), 1u);
    const SectionResult& s = report.sections[0];
    EXPECT_TRUE(s.digest_stable);
    ASSERT_EQ(s.metrics.size(), 2u);
    EXPECT_EQ(s.metrics[0].name, "det_constant");
    EXPECT_TRUE(s.metrics[0].stable);
    EXPECT_EQ(s.metrics[0].value, 42.0);
    EXPECT_EQ(s.metrics[0].stddev, 0.0);
    EXPECT_EQ(s.metrics[1].name, "wall_like");
    EXPECT_EQ(s.metrics[1].value, 2.0);  // median of 1,2,3
    EXPECT_EQ(s.metrics[1].min, 1.0);
    EXPECT_GT(s.metrics[1].stddev, 0.0);
    EXPECT_TRUE(report.deterministic());
}

TEST(Runner, DriftingDeterministicMetricIsFlagged)
{
    auto counter = std::make_shared<int>(0);
    Registry registry;
    registry.add(SectionSpec{
        "drifty", "perf", "",
        [counter](const RunOptions&, Report& report) {
            report.info("should_repeat", static_cast<double>(++*counter));
        }});
    RunnerOptions options = quietOptions();
    options.reps = 2;
    const RunReport report = runSections(registry, options);
    ASSERT_EQ(report.sections.size(), 1u);
    EXPECT_FALSE(report.sections[0].metrics[0].stable);
    // A deterministic value folds into the digest, so drift shows there
    // too.
    EXPECT_FALSE(report.sections[0].digest_stable);
    EXPECT_FALSE(report.deterministic());
}

TEST(Report, DigestCoversDeterministicContentOnly)
{
    Report a, b;
    a.higher("x", 1.0, true);
    b.higher("x", 1.0, true);
    a.lower("wall", 100.0, false);
    b.lower("wall", 250.0, false);  // non-det: digest unaffected
    EXPECT_EQ(a.digestHex(), b.digestHex());
    b.higher("y", 2.0, true);
    EXPECT_NE(a.digestHex(), b.digestHex());
    EXPECT_EQ(a.digestHex().size(), 16u);
}

// ---------------------------------------------------------------------
// Schema validity + determinism goldens over the real registry

class SmokeRun : public ::testing::Test
{
  protected:
    static RunReport
    run(unsigned threads)
    {
        Registry registry;
        registerAllSections(registry);
        RunnerOptions options = quietOptions();
        options.smoke = true;
        options.threads = threads;
        return runSections(registry, options);
    }
};

TEST_F(SmokeRun, EverySectionCompletesAndReportIsSchemaValid)
{
    const RunReport report = run(1);
    EXPECT_EQ(report.sections.size(), 17u);
    const json::Value doc = reportJson(report);
    const std::vector<std::string> violations = validateBenchReport(doc);
    EXPECT_TRUE(violations.empty())
        << "first violation: " << violations.front();
    for (const SectionResult& s : report.sections) {
        EXPECT_FALSE(s.truncated) << s.name;
        EXPECT_FALSE(s.over_budget) << s.name;
        EXPECT_FALSE(s.metrics.empty()) << s.name;
        EXPECT_NE(s.determinism_digest, "0000000000000000") << s.name;
    }
    // The emitted JSON round-trips through the parser unchanged.
    const json::ParseResult parsed = json::parse(doc.dump(2));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_TRUE(validateBenchReport(*parsed.value).empty());
}

TEST_F(SmokeRun, DigestsByteIdenticalAcrossRunsAndThreadCounts)
{
    const RunReport first = run(1);
    const RunReport second = run(1);
    const RunReport wide = run(4);
    ASSERT_EQ(first.sections.size(), second.sections.size());
    ASSERT_EQ(first.sections.size(), wide.sections.size());
    for (size_t i = 0; i < first.sections.size(); ++i) {
        EXPECT_EQ(first.sections[i].determinism_digest,
                  second.sections[i].determinism_digest)
            << first.sections[i].name << " drifted between runs";
        EXPECT_EQ(first.sections[i].determinism_digest,
                  wide.sections[i].determinism_digest)
            << first.sections[i].name
            << " depends on the campaign thread count";
        EXPECT_TRUE(first.sections[i].digest_stable)
            << first.sections[i].name;
    }
    EXPECT_TRUE(first.deterministic());
    EXPECT_TRUE(wide.deterministic());
}

// ---------------------------------------------------------------------
// Schema checker rejects malformed documents

TEST(Schema, FlagsEveryStructuralViolation)
{
    EXPECT_FALSE(
        validateBenchReport(json::parseOrDie("[1, 2]")).empty());
    // A minimal valid document...
    const char* good = R"({
        "schema_version": 1,
        "tier": "smoke",
        "reps": 1,
        "host_fingerprint": {},
        "sections": [{
            "name": "s", "suite": "perf", "wall_ms": 1.5,
            "over_budget": false, "truncated": false,
            "determinism_digest": "0123456789abcdef",
            "digest_stable": true,
            "metrics": {"m": {"value": 1.0, "dir": "higher",
                              "det": true}}
        }]
    })";
    EXPECT_TRUE(validateBenchReport(json::parseOrDie(good)).empty());
    // ...and targeted breakages of it.
    struct Case
    {
        const char* find;
        const char* replace;
    };
    for (const Case c : std::initializer_list<Case>{
             {"\"schema_version\": 1", "\"schema_version\": 99"},
             {"\"tier\": \"smoke\"", "\"tier\": \"fast\""},
             {"\"reps\": 1", "\"reps\": 0"},
             {"\"suite\": \"perf\"", "\"suite\": \"\""},
             {"\"wall_ms\": 1.5", "\"wall_ms\": -1"},
             {"\"0123456789abcdef\"", "\"0123456789ABCDEF\""},
             {"\"0123456789abcdef\"", "\"123\""},
             {"\"dir\": \"higher\"", "\"dir\": \"up\""},
             {"\"det\": true", "\"det\": 1"}}) {
        std::string text = good;
        const size_t at = text.find(c.find);
        ASSERT_NE(at, std::string::npos) << c.find;
        text.replace(at, std::string(c.find).size(), c.replace);
        EXPECT_FALSE(validateBenchReport(json::parseOrDie(text)).empty())
            << "accepted: " << c.replace;
    }
}

}  // namespace
}  // namespace faasflow::bench
