/**
 * @file
 * The paper-figure ratchet (ctest label `paper`): one test per bench
 * section, named after it. Each runs its section at the smoke tier at
 * campaign widths 1 and 4, and both runs must match the section's entry
 * in bench/BASELINE.json exactly: the metric set, every value and the
 * digest. After an intended change of simulated output, rewrite the
 * golden with `faasflow_bench --smoke --write-golden bench/BASELINE.json`.
 */
#include <gtest/gtest.h>

#include "golden.h"
#include "sections.h"

namespace faasflow::bench {
namespace {

class PaperTest : public ::testing::Test
{
  public:
    explicit PaperTest(const Section& section) : section_(section) {}

    void
    TestBody() override
    {
        const GoldenParseResult golden = loadGolden(FAASFLOW_GOLDEN_PATH);
        ASSERT_TRUE(golden.ok()) << golden.error;
        const GoldenSection* want =
            findGoldenSection(golden.sections, section_.name);
        ASSERT_NE(want, nullptr)
            << section_.name << " is not in " << FAASFLOW_GOLDEN_PATH
            << "; rewrite it with faasflow_bench --smoke --write-golden";
        for (const std::string& m : checkSection(section_, *want))
            ADD_FAILURE() << m;
    }

  private:
    const Section& section_;
};

}  // namespace
}  // namespace faasflow::bench

int
main(int argc, char** argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (const faasflow::bench::Section& section :
         faasflow::bench::allSections()) {
        ::testing::RegisterTest(
            "Paper", section.name, nullptr, nullptr, __FILE__, __LINE__,
            [&section]() -> faasflow::bench::PaperTest* {
                return new faasflow::bench::PaperTest(section);
            });
    }
    return RUN_ALL_TESTS();
}
