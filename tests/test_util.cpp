/**
 * @file
 * Unit tests for the util library: RNG, Zipf sampling, rationals,
 * bit helpers and string/statistic helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bitutil.hh"
#include "util/rational.hh"
#include "util/rng.hh"
#include "util/strutil.hh"

namespace emissary
{
namespace
{

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(BitUtil, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1ULL << 40), 40u);
}

TEST(BitUtil, Alignment)
{
    EXPECT_EQ(alignDown(127, 64), 64u);
    EXPECT_EQ(alignUp(127, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
    EXPECT_EQ(alignDown(128, 64), 128u);
}

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xF0F0, 4, 4), 0xFu);
    EXPECT_EQ(bits(0xF0F0, 0, 4), 0x0u);
    EXPECT_EQ(bits(~0ULL, 0, 64), ~0ULL);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, OneInThirtyTwoRate)
{
    Rng rng(11);
    int hits = 0;
    const int trials = 320000;
    for (int i = 0; i < trials; ++i)
        if (rng.oneIn(32))
            ++hits;
    const double rate = static_cast<double>(hits) / trials;
    EXPECT_NEAR(rate, 1.0 / 32.0, 0.004);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(0.0));
    }
}

TEST(Zipf, MostPopularIsRankZero)
{
    Rng rng(5);
    ZipfSampler sampler(1000, 1.0);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 200000; ++i)
        ++counts[sampler.sample(rng)];
    // Rank 0 must dominate rank 100 by roughly 100x (s = 1).
    EXPECT_GT(counts[0], counts[100] * 20);
    EXPECT_GT(counts[0], counts[500] * 50);
}

TEST(Zipf, UniformWhenSkewZero)
{
    Rng rng(6);
    ZipfSampler sampler(16, 0.0);
    std::vector<int> counts(16, 0);
    for (int i = 0; i < 160000; ++i)
        ++counts[sampler.sample(rng)];
    for (const int c : counts)
        EXPECT_NEAR(c, 10000, 700);
}

TEST(Rational, ParseAndFormat)
{
    const Rational r = Rational::parse("1/32");
    EXPECT_EQ(r.numerator(), 1u);
    EXPECT_EQ(r.denominator(), 32u);
    EXPECT_EQ(r.toString(), "1/32");
    EXPECT_DOUBLE_EQ(r.value(), 1.0 / 32.0);
}

TEST(Rational, Reduction)
{
    const Rational r(4, 64);
    EXPECT_EQ(r.numerator(), 1u);
    EXPECT_EQ(r.denominator(), 16u);
}

TEST(Rational, ParseWhole)
{
    const Rational one = Rational::parse("1");
    EXPECT_TRUE(one.isOne());
    const Rational zero(0, 5);
    EXPECT_TRUE(zero.isZero());
}

TEST(Rational, InvalidInputsThrow)
{
    EXPECT_THROW(Rational(1, 0), std::invalid_argument);
    EXPECT_THROW(Rational(3, 2), std::invalid_argument);
    EXPECT_THROW(Rational::parse("x/y"), std::invalid_argument);
}

TEST(Rational, ParseTakesOnlyPlainDecimals)
{
    for (const char *text : {"", "/", "1/", "/2", "-1/-1", "+1/2",
                             " 1/2", "1/2 ", "1/32x", "1/2/3",
                             "1/18446744073709551616"})
        EXPECT_THROW(Rational::parse(text), std::invalid_argument)
            << '"' << text << '"';
    EXPECT_EQ(Rational::parse("2/64").toString(), "1/32");
}

TEST(Rational, DrawRate)
{
    Rng rng(17);
    const Rational r(1, 8);
    int hits = 0;
    const int trials = 160000;
    for (int i = 0; i < trials; ++i)
        if (r.draw(rng))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.125, 0.005);
}

TEST(StrUtil, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(StrUtil, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StrUtil, ParseDecimal)
{
    std::uint64_t out = 7;
    EXPECT_TRUE(parseDecimal("0", 10, out));
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(parseDecimal("0010", 10, out));
    EXPECT_EQ(out, 10u);
    EXPECT_TRUE(parseDecimal("18446744073709551615",
                             ~std::uint64_t{0}, out));
    EXPECT_EQ(out, ~std::uint64_t{0});
    out = 7;
    for (const char *text : {"", "11", "-1", "+1", " 1", "1 ", "1x",
                             "0x1", "1.0", "18446744073709551616"})
        EXPECT_FALSE(parseDecimal(text, 10, out)) << text;
    EXPECT_EQ(out, 7u);
}

TEST(StrUtil, Formatting)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatPercent(0.0324), "+3.24%");
    EXPECT_EQ(formatPercent(-0.01, 1), "-1.0%");
}

TEST(StrUtil, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({1.02, 1.04}), 1.0299, 1e-3);
}

TEST(StrUtil, Mean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

} // namespace
} // namespace emissary
