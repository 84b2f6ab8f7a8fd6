/** @file Tests for the YAML-subset parser. */
#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

#include "yamllite/yaml.h"

namespace faasflow::yaml {
namespace {

using json::Value;

TEST(YamlScalarTest, TypeInference)
{
    const Value v = parseOrDie("a: 1\nb: 2.5\nc: true\nd: false\n"
                               "e: null\nf: ~\ng: hello world\nh:\n");
    EXPECT_EQ(v.find("a")->asInt(), 1);
    EXPECT_DOUBLE_EQ(v.find("b")->asDouble(), 2.5);
    EXPECT_TRUE(v.find("c")->asBool());
    EXPECT_FALSE(v.find("d")->asBool());
    EXPECT_TRUE(v.find("e")->isNull());
    EXPECT_TRUE(v.find("f")->isNull());
    EXPECT_EQ(v.find("g")->asString(), "hello world");
    EXPECT_TRUE(v.find("h")->isNull());
}

TEST(YamlScalarTest, NegativeAndScientificNumbers)
{
    const Value v = parseOrDie("a: -3\nb: -1.5e2\n");
    EXPECT_EQ(v.find("a")->asInt(), -3);
    EXPECT_DOUBLE_EQ(v.find("b")->asDouble(), -150.0);
}

TEST(YamlScalarTest, QuotedStringsStayStrings)
{
    const Value v = parseOrDie("a: \"42\"\nb: '3.5'\nc: \"x\\ny\"\n");
    EXPECT_EQ(v.find("a")->asString(), "42");
    EXPECT_EQ(v.find("b")->asString(), "3.5");
    EXPECT_EQ(v.find("c")->asString(), "x\ny");
}

TEST(YamlMappingTest, NestedBlocks)
{
    const Value v = parseOrDie(
        "outer:\n  inner:\n    leaf: 7\n  sibling: x\ntop: y\n");
    const Value* outer = v.find("outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->find("inner")->find("leaf")->asInt(), 7);
    EXPECT_EQ(outer->find("sibling")->asString(), "x");
    EXPECT_EQ(v.find("top")->asString(), "y");
}

TEST(YamlSequenceTest, BlockSequenceOfScalars)
{
    const Value v = parseOrDie("items:\n  - 1\n  - two\n  - 3.5\n");
    const auto& arr = v.find("items")->asArray();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_EQ(arr[0].asInt(), 1);
    EXPECT_EQ(arr[1].asString(), "two");
    EXPECT_DOUBLE_EQ(arr[2].asDouble(), 3.5);
}

TEST(YamlSequenceTest, SequenceAtKeyIndentLevel)
{
    // Sequences are commonly written at the same indent as the key.
    const Value v = parseOrDie("steps:\n- a\n- b\n");
    EXPECT_EQ(v.find("steps")->asArray().size(), 2u);
}

TEST(YamlSequenceTest, CompactMappingEntries)
{
    const Value v = parseOrDie(
        "steps:\n"
        "  - task: f1\n"
        "    output_mb: 4\n"
        "  - task: f2\n");
    const auto& arr = v.find("steps")->asArray();
    ASSERT_EQ(arr.size(), 2u);
    EXPECT_EQ(arr[0].find("task")->asString(), "f1");
    EXPECT_EQ(arr[0].find("output_mb")->asInt(), 4);
    EXPECT_EQ(arr[1].find("task")->asString(), "f2");
}

TEST(YamlSequenceTest, CompactEntryWithNestedBlock)
{
    const Value v = parseOrDie(
        "branches:\n"
        "  - steps:\n"
        "      - task: a\n"
        "  - steps:\n"
        "      - task: b\n");
    const auto& arr = v.find("branches")->asArray();
    ASSERT_EQ(arr.size(), 2u);
    EXPECT_EQ(arr[0].find("steps")->asArray()[0].find("task")->asString(),
              "a");
    EXPECT_EQ(arr[1].find("steps")->asArray()[0].find("task")->asString(),
              "b");
}

TEST(YamlSequenceTest, NestedSequences)
{
    const Value v = parseOrDie(
        "matrix:\n"
        "  - - 1\n"
        "    - 2\n"
        "  - - 3\n"
        "    - 4\n");
    const auto& rows = v.find("matrix")->asArray();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].asArray()[0].asInt(), 1);
    EXPECT_EQ(rows[0].asArray()[1].asInt(), 2);
    EXPECT_EQ(rows[1].asArray()[1].asInt(), 4);
}

TEST(YamlSequenceTest, NestedSequenceOfCompactMappings)
{
    // The branch syntax the FaaSFlow artifact uses: a list of lists of
    // step mappings.
    const Value v = parseOrDie(
        "branches:\n"
        "  - - task: a\n"
        "      output_mb: 1\n"
        "    - task: b\n"
        "  - - task: c\n");
    const auto& branches = v.find("branches")->asArray();
    ASSERT_EQ(branches.size(), 2u);
    ASSERT_EQ(branches[0].asArray().size(), 2u);
    EXPECT_EQ(branches[0].asArray()[0].find("task")->asString(), "a");
    EXPECT_EQ(branches[0].asArray()[0].find("output_mb")->asInt(), 1);
    EXPECT_EQ(branches[0].asArray()[1].find("task")->asString(), "b");
    EXPECT_EQ(branches[1].asArray()[0].find("task")->asString(), "c");
}

TEST(YamlSequenceTest, TopLevelSequence)
{
    const Value v = parseOrDie("- 1\n- 2\n");
    ASSERT_TRUE(v.isArray());
    EXPECT_EQ(v.asArray().size(), 2u);
}

TEST(YamlFlowTest, FlowSequencesAndMappings)
{
    const Value v = parseOrDie(
        "empty_seq: []\n"
        "empty_map: {}\n"
        "nums: [1, 2, 3]\n"
        "mixed: [a, \"b c\", 4.5]\n"
        "map: {x: 1, y: two}\n"
        "nested: [[1, 2], {k: v}]\n");
    EXPECT_TRUE(v.find("empty_seq")->asArray().empty());
    EXPECT_TRUE(v.find("empty_map")->asObject().empty());
    EXPECT_EQ(v.find("nums")->asArray()[2].asInt(), 3);
    EXPECT_EQ(v.find("mixed")->asArray()[1].asString(), "b c");
    EXPECT_EQ(v.find("map")->find("y")->asString(), "two");
    EXPECT_EQ(v.find("nested")->asArray()[0].asArray()[1].asInt(), 2);
    EXPECT_EQ(v.find("nested")->asArray()[1].find("k")->asString(), "v");
}

TEST(YamlCommentTest, CommentsIgnored)
{
    const Value v = parseOrDie(
        "# full line comment\n"
        "a: 1  # trailing comment\n"
        "b: \"has # inside\"  # but this goes\n"
        "\n"
        "c: 3\n");
    EXPECT_EQ(v.find("a")->asInt(), 1);
    EXPECT_EQ(v.find("b")->asString(), "has # inside");
    EXPECT_EQ(v.find("c")->asInt(), 3);
}

TEST(YamlDocumentTest, LeadingMarkerAndCrLf)
{
    const Value v = parseOrDie("---\r\na: 1\r\n");
    EXPECT_EQ(v.find("a")->asInt(), 1);
}

TEST(YamlDocumentTest, EmptyDocumentIsNull)
{
    EXPECT_TRUE(parseOrDie("").isNull());
    EXPECT_TRUE(parseOrDie("# only a comment\n").isNull());
}

struct BadYaml
{
    const char* text;
    const char* why;
};

// Each case prints as, and is named by, its `why` text, so test names
// never carry the addresses of the string literals.
void
PrintTo(const BadYaml& c, std::ostream* os)
{
    *os << c.why;
}

std::string
caseName(const ::testing::TestParamInfo<BadYaml>& info)
{
    std::string name = info.param.why;
    for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return name;
}

class YamlErrorTest : public ::testing::TestWithParam<BadYaml>
{
};

TEST_P(YamlErrorTest, RejectsUnsupportedOrMalformed)
{
    const json::ParseResult r = parse(GetParam().text);
    EXPECT_FALSE(r.ok()) << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, YamlErrorTest,
    ::testing::Values(
        BadYaml{"\ta: 1\n", "tab indentation"},
        BadYaml{"a: 1\na: 2\n", "duplicate key"},
        BadYaml{"a: |\n  block\n", "block scalar"},
        BadYaml{"a: &anchor 1\n", "anchor"},
        BadYaml{"a: [1, 2\n", "unterminated flow seq"},
        BadYaml{"a: {x: 1\n", "unterminated flow map"},
        BadYaml{"a: \"unterminated\n", "unterminated quote"},
        BadYaml{"key without colon\n", "missing colon"},
        BadYaml{"a: 1\n  b: 2\n", "bad indent jump"}),
    caseName);

TEST(YamlLineNumberTest, ErrorsCarryLines)
{
    const json::ParseResult r = parse("a: 1\nb: |\n  x\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.line, 2u);
}

}  // namespace
}  // namespace faasflow::yaml
