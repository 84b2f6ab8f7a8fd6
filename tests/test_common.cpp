/** @file Tests for the common substrate: time, units, RNG, stats,
 *  strings, tables. */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/units.h"

namespace faasflow {
namespace {

// ---------------------------------------------------------------- SimTime

TEST(SimTimeTest, FactoriesProduceMicroseconds)
{
    EXPECT_EQ(SimTime::micros(42).micros(), 42);
    EXPECT_EQ(SimTime::millis(1.5).micros(), 1500);
    EXPECT_EQ(SimTime::seconds(2.0).micros(), 2000000);
    EXPECT_EQ(SimTime::zero().micros(), 0);
}

TEST(SimTimeTest, ArithmeticAndComparison)
{
    const SimTime a = SimTime::millis(10);
    const SimTime b = SimTime::millis(3);
    EXPECT_EQ((a + b).micros(), 13000);
    EXPECT_EQ((a - b).micros(), 7000);
    EXPECT_LT(b, a);
    EXPECT_GT(a, b);
    EXPECT_EQ(a, SimTime::micros(10000));
    EXPECT_DOUBLE_EQ(a / b, 10.0 / 3.0);
    EXPECT_EQ((a * 2.5).micros(), 25000);
}

TEST(SimTimeTest, CompoundAssignment)
{
    SimTime t = SimTime::millis(1);
    t += SimTime::millis(2);
    EXPECT_EQ(t.micros(), 3000);
    t -= SimTime::millis(1);
    EXPECT_EQ(t.micros(), 2000);
}

TEST(SimTimeTest, ConversionsRoundTrip)
{
    const SimTime t = SimTime::micros(1234567);
    EXPECT_DOUBLE_EQ(t.millisF(), 1234.567);
    EXPECT_DOUBLE_EQ(t.secondsF(), 1.234567);
}

TEST(SimTimeTest, StringRendering)
{
    EXPECT_EQ(SimTime::micros(500).str(), "500us");
    EXPECT_EQ(SimTime::millis(1.5).str(), "1.50ms");
    EXPECT_EQ(SimTime::seconds(2).str(), "2.00s");
}

TEST(SimTimeTest, MaxIsLargerThanEverything)
{
    EXPECT_GT(SimTime::max(), SimTime::seconds(1e9));
}

// ------------------------------------------------------------------ Units

TEST(UnitsTest, Constants)
{
    EXPECT_EQ(kKiB, 1024);
    EXPECT_EQ(kMiB, 1024 * 1024);
    EXPECT_EQ(kMB, 1000000);
    EXPECT_DOUBLE_EQ(toMB(5 * kMB), 5.0);
}

TEST(UnitsTest, FormatBytesPicksUnit)
{
    EXPECT_EQ(formatBytes(512), "512B");
    EXPECT_EQ(formatBytes(2 * kKB), "2.00KB");
    EXPECT_EQ(formatBytes(3 * kMB), "3.00MB");
    EXPECT_EQ(formatBytes(4 * kGB), "4.00GB");
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformIntCoversRangeInclusive)
{
    Rng rng(11);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSingleton)
{
    Rng rng(5);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(9, 9), 9);
}

TEST(RngTest, ExponentialMeanConverges)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, NormalMeanAndStddevConverge)
{
    Rng rng(17);
    Summary s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RngTest, LognormalMeanMatchesTarget)
{
    Rng rng(19);
    Summary s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.lognormal(100.0, 0.25));
    EXPECT_NEAR(s.mean(), 100.0, 1.5);
}

TEST(RngTest, PermutationIsAPermutation)
{
    Rng rng(23);
    for (const size_t n : {0u, 1u, 2u, 10u, 100u}) {
        const auto p = rng.permutation(n);
        ASSERT_EQ(p.size(), n);
        std::set<size_t> seen(p.begin(), p.end());
        EXPECT_EQ(seen.size(), n);
        for (const size_t x : p)
            EXPECT_LT(x, n);
    }
}

TEST(RngTest, SplitProducesIndependentStream)
{
    Rng a(31);
    Rng b = a.split();
    // The split stream should not track the parent.
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

// ------------------------------------------------------------------ Stats

TEST(SummaryTest, BasicMoments)
{
    Summary s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryTest, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SummaryTest, MergeMatchesSequential)
{
    Rng rng(37);
    Summary all, left, right;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(0, 100);
        all.add(x);
        (i % 2 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(SummaryTest, MergeWithEmpty)
{
    Summary a, b;
    a.add(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(PercentilesTest, ExactQuantiles)
{
    Percentiles p;
    for (int i = 1; i <= 100; ++i)
        p.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(p.percentile(100), 100.0);
    EXPECT_NEAR(p.p50(), 50.5, 1e-9);
    EXPECT_NEAR(p.p99(), 99.01, 1e-9);
    EXPECT_DOUBLE_EQ(p.min(), 1.0);
    EXPECT_DOUBLE_EQ(p.max(), 100.0);
    EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(PercentilesTest, SingleSample)
{
    Percentiles p;
    p.add(42.0);
    EXPECT_DOUBLE_EQ(p.p50(), 42.0);
    EXPECT_DOUBLE_EQ(p.p99(), 42.0);
}

TEST(PercentilesTest, EmptyReturnsZero)
{
    Percentiles p;
    EXPECT_DOUBLE_EQ(p.p99(), 0.0);
    EXPECT_TRUE(p.empty());
}

TEST(PercentilesTest, MergeCombinesSamples)
{
    Percentiles a, b;
    a.add(1.0);
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.p50(), 2.0);
}

// ---------------------------------------------------------------- Strings

TEST(StringUtilTest, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
    EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringUtilTest, Trim)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("\t\r\n a b \n"), "a b");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StringUtilTest, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("foobar", "foo"));
    EXPECT_FALSE(startsWith("fo", "foo"));
    EXPECT_TRUE(endsWith("foobar", "bar"));
    EXPECT_FALSE(endsWith("ar", "bar"));
    EXPECT_TRUE(startsWith("x", ""));
}

TEST(StringUtilTest, Format)
{
    EXPECT_EQ(strFormat("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strFormat("%.2f", 1.2345), "1.23");
}

TEST(StringUtilTest, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, Fnv1aIsStable)
{
    // Known FNV-1a vectors.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_NE(fnv1a("node-1"), fnv1a("node-2"));
}

// ------------------------------------------------------------------ Table

TEST(TextTableTest, AlignsColumns)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "22"});
    const std::string s = t.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer-name"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

// Parameterized sanity sweep: Percentiles::percentile is monotone in p for
// arbitrary sample sets.
class PercentileMonotoneTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PercentileMonotoneTest, MonotoneInP)
{
    Rng rng(GetParam());
    Percentiles p;
    const int n = 1 + static_cast<int>(rng.uniformInt(0, 200));
    for (int i = 0; i < n; ++i)
        p.add(rng.uniform(-100, 100));
    double prev = p.percentile(0);
    for (double q = 5; q <= 100; q += 5) {
        const double cur = p.percentile(q);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace faasflow
