/** @file Tests for the from-scratch JSON parser/serializer. */
#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

#include "json/json.h"

namespace faasflow::json {
namespace {

TEST(JsonParseTest, Scalars)
{
    EXPECT_TRUE(parseOrDie("null").isNull());
    EXPECT_EQ(parseOrDie("true").asBool(), true);
    EXPECT_EQ(parseOrDie("false").asBool(), false);
    EXPECT_EQ(parseOrDie("42").asInt(), 42);
    EXPECT_EQ(parseOrDie("-7").asInt(), -7);
    EXPECT_DOUBLE_EQ(parseOrDie("3.25").asDouble(), 3.25);
    EXPECT_DOUBLE_EQ(parseOrDie("1e3").asDouble(), 1000.0);
    EXPECT_DOUBLE_EQ(parseOrDie("-2.5E-2").asDouble(), -0.025);
    EXPECT_EQ(parseOrDie("\"hi\"").asString(), "hi");
}

TEST(JsonParseTest, IntAndDoubleAreDistinct)
{
    EXPECT_TRUE(parseOrDie("5").isInt());
    EXPECT_TRUE(parseOrDie("5.0").isDouble());
    EXPECT_FALSE(parseOrDie("5") == parseOrDie("5.0"));
}

TEST(JsonParseTest, LargeIntegerPreserved)
{
    EXPECT_EQ(parseOrDie("9007199254740993").asInt(), 9007199254740993LL);
}

TEST(JsonParseTest, StringEscapes)
{
    EXPECT_EQ(parseOrDie(R"("a\nb\tc\"d\\e\/f")").asString(),
              "a\nb\tc\"d\\e/f");
    EXPECT_EQ(parseOrDie(R"("Aé")").asString(), "A\xc3\xa9");
}

TEST(JsonParseTest, NestedStructures)
{
    const Value v = parseOrDie(R"({"a": [1, 2, {"b": null}], "c": true})");
    ASSERT_TRUE(v.isObject());
    const Value* a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    EXPECT_EQ(a->asArray().size(), 3u);
    EXPECT_EQ(a->asArray()[0].asInt(), 1);
    EXPECT_TRUE(a->asArray()[2].find("b")->isNull());
    EXPECT_TRUE(v.getOr("c", false));
}

TEST(JsonParseTest, EmptyContainers)
{
    EXPECT_TRUE(parseOrDie("[]").asArray().empty());
    EXPECT_TRUE(parseOrDie("{}").asObject().empty());
    EXPECT_TRUE(parseOrDie(" [ ] ").asArray().empty());
}

TEST(JsonParseTest, ObjectPreservesInsertionOrder)
{
    const Value v = parseOrDie(R"({"z": 1, "a": 2, "m": 3})");
    const Object& obj = v.asObject();
    EXPECT_EQ(obj[0].first, "z");
    EXPECT_EQ(obj[1].first, "a");
    EXPECT_EQ(obj[2].first, "m");
}

TEST(JsonParseTest, WhitespaceTolerant)
{
    const Value v = parseOrDie("  {\n\t\"a\" :\r [ 1 ,2 ]\n}  ");
    EXPECT_EQ(v.find("a")->asArray().size(), 2u);
}

struct BadInput
{
    const char* text;
    const char* why;
};

// Each case prints as, and is named by, its `why` text, so test names
// never carry the addresses of the string literals.
void
PrintTo(const BadInput& c, std::ostream* os)
{
    *os << c.why;
}

std::string
caseName(const ::testing::TestParamInfo<BadInput>& info)
{
    std::string name = info.param.why;
    for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return name;
}

class JsonErrorTest : public ::testing::TestWithParam<BadInput>
{
};

TEST_P(JsonErrorTest, RejectsMalformedInput)
{
    const ParseResult r = parse(GetParam().text);
    EXPECT_FALSE(r.ok()) << GetParam().why;
    EXPECT_FALSE(r.error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, JsonErrorTest,
    ::testing::Values(
        BadInput{"", "empty input"}, BadInput{"{", "unterminated object"},
        BadInput{"[1,", "unterminated array"},
        BadInput{"[1 2]", "missing comma"},
        BadInput{"{\"a\" 1}", "missing colon"},
        BadInput{"{a: 1}", "unquoted key"},
        BadInput{"\"abc", "unterminated string"},
        BadInput{"tru", "bad literal"}, BadInput{"01x", "trailing junk"},
        BadInput{"1.2.3", "double dots"}, BadInput{"- 5", "space in number"},
        BadInput{"[1] []", "two documents"},
        BadInput{"\"\\q\"", "bad escape"},
        BadInput{"\"\\u12g4\"", "bad hex"},
        BadInput{"{\"a\":1,}", "trailing comma"}),
    caseName);

TEST(JsonDumpTest, CompactRoundTrip)
{
    const char* docs[] = {
        "null", "true", "42", "\"x\"", "[1,2,3]",
        R"({"a":[1,{"b":"c"}],"d":null})",
    };
    for (const char* doc : docs) {
        const Value v = parseOrDie(doc);
        const Value round = parseOrDie(v.dump());
        EXPECT_TRUE(v == round) << doc;
    }
}

TEST(JsonDumpTest, PrettyPrintIndents)
{
    const Value v = parseOrDie(R"({"a": [1, 2]})");
    const std::string pretty = v.dump(2);
    EXPECT_NE(pretty.find("\n  \"a\""), std::string::npos);
    EXPECT_TRUE(parseOrDie(pretty) == v);
}

TEST(JsonDumpTest, EscapesControlCharacters)
{
    const Value v(std::string("a\nb\x01"));
    EXPECT_EQ(v.dump(), "\"a\\nb\\u0001\"");
}

TEST(JsonValueTest, AccessorsAndMutators)
{
    Value obj = Value::object();
    obj.set("k", Value(int64_t{1}));
    obj.set("k", Value(int64_t{2}));  // overwrite
    EXPECT_EQ(obj.find("k")->asInt(), 2);
    EXPECT_EQ(obj.asObject().size(), 1u);

    Value arr = Value::array();
    arr.push(Value("a"));
    arr.push(Value("b"));
    EXPECT_EQ(arr.asArray().size(), 2u);
}

TEST(JsonValueTest, GetOrDefaults)
{
    const Value v = parseOrDie(R"({"i": 3, "d": 2.5, "s": "x", "b": true})");
    EXPECT_EQ(v.getOr("i", int64_t{0}), 3);
    EXPECT_DOUBLE_EQ(v.getOr("d", 0.0), 2.5);
    EXPECT_DOUBLE_EQ(v.getOr("i", 0.0), 3.0);  // int widens for numeric get
    EXPECT_EQ(v.getOr("s", std::string("y")), "x");
    EXPECT_TRUE(v.getOr("b", false));
    EXPECT_EQ(v.getOr("missing", int64_t{9}), 9);
    EXPECT_EQ(v.getOr("s", int64_t{9}), 9);  // type mismatch -> default
}

TEST(JsonValueTest, TryAccessors)
{
    const Value v = parseOrDie("7");
    EXPECT_EQ(v.tryInt().value(), 7);
    EXPECT_EQ(v.tryDouble().value(), 7.0);
    EXPECT_FALSE(v.tryString().has_value());
    EXPECT_FALSE(v.tryBool().has_value());
}

TEST(JsonValueTest, FindOnNonObjectIsNull)
{
    EXPECT_EQ(parseOrDie("[1]").find("a"), nullptr);
    EXPECT_EQ(parseOrDie("3").find("a"), nullptr);
}

TEST(JsonValueTest, EqualityIsStructural)
{
    EXPECT_TRUE(parseOrDie(R"({"a":[1,2]})") == parseOrDie(R"({"a":[1,2]})"));
    EXPECT_FALSE(parseOrDie(R"({"a":[1,2]})") ==
                 parseOrDie(R"({"a":[2,1]})"));
}

TEST(JsonErrorLineTest, ReportsLineNumber)
{
    const ParseResult r = parse("{\n\"a\": 1,\n bad\n}");
    EXPECT_FALSE(r.ok());
    EXPECT_GE(r.line, 3u);
}

}  // namespace
}  // namespace faasflow::json
