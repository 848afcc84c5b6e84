/**
 * @file
 * Tests for mode selection (Table 1) and the policy-notation parser
 * (Table 3).
 */

#include <gtest/gtest.h>

#include "replacement/mode.hh"
#include "replacement/spec.hh"
#include "util/rng.hh"

namespace emissary::replacement
{
namespace
{

MissContext
instrCtx(bool starved, bool iq_empty)
{
    MissContext ctx;
    ctx.isInstruction = true;
    ctx.causedStarvation = starved;
    ctx.issueQueueEmpty = iq_empty;
    return ctx;
}

TEST(ModeSelector, ConstantOne)
{
    Rng rng(1);
    const auto sel = ModeSelector::parse("1");
    EXPECT_TRUE(sel.select(instrCtx(false, false), rng));
    EXPECT_EQ(sel.toString(), "1");
}

TEST(ModeSelector, ConstantZero)
{
    Rng rng(1);
    const auto sel = ModeSelector::parse("0");
    EXPECT_FALSE(sel.select(instrCtx(true, true), rng));
    EXPECT_EQ(sel.toString(), "0");
}

TEST(ModeSelector, StarvationOnly)
{
    Rng rng(1);
    const auto sel = ModeSelector::parse("S");
    EXPECT_TRUE(sel.select(instrCtx(true, false), rng));
    EXPECT_FALSE(sel.select(instrCtx(false, true), rng));
    EXPECT_TRUE(sel.usesStarvation());
    EXPECT_FALSE(sel.usesIssueQueue());
}

TEST(ModeSelector, StarvationAndEmpty)
{
    Rng rng(1);
    const auto sel = ModeSelector::parse("S&E");
    EXPECT_TRUE(sel.select(instrCtx(true, true), rng));
    EXPECT_FALSE(sel.select(instrCtx(true, false), rng));
    EXPECT_FALSE(sel.select(instrCtx(false, true), rng));
    EXPECT_EQ(sel.toString(), "S&E");
}

TEST(ModeSelector, RandomFilterRate)
{
    Rng rng(21);
    const auto sel = ModeSelector::parse("S&E&R(1/32)");
    int hits = 0;
    const int trials = 320000;
    for (int i = 0; i < trials; ++i)
        if (sel.select(instrCtx(true, true), rng))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 1.0 / 32, 0.004);
    // Random term never rescues a failed S/E conjunct.
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(sel.select(instrCtx(true, false), rng));
}

TEST(ModeSelector, TermOrderIrrelevant)
{
    const auto a = ModeSelector::parse("S&E&R(1/32)");
    const auto b = ModeSelector::parse("R(1/32)&E&S");
    EXPECT_TRUE(a == b);
}

TEST(ModeSelector, MalformedThrows)
{
    EXPECT_THROW(ModeSelector::parse(""), std::invalid_argument);
    EXPECT_THROW(ModeSelector::parse("S&S"), std::invalid_argument);
    EXPECT_THROW(ModeSelector::parse("Q"), std::invalid_argument);
    EXPECT_THROW(ModeSelector::parse("R()"), std::invalid_argument);
    EXPECT_THROW(ModeSelector::parse("R(2/1)"), std::invalid_argument);
}

TEST(PolicySpec, ParseAliases)
{
    EXPECT_EQ(PolicySpec::parse("LRU").toString(), "M:1");
    EXPECT_EQ(PolicySpec::parse("LIP").toString(), "M:0");
    EXPECT_EQ(PolicySpec::parse("BIP").toString(), "M:R(1/32)");
}

TEST(PolicySpec, ParseEmissary)
{
    const auto spec = PolicySpec::parse("P(8):S&E&R(1/32)");
    EXPECT_EQ(spec.family, PolicyFamily::EmissaryP);
    EXPECT_EQ(spec.protectN, 8u);
    EXPECT_EQ(spec.toString(), "P(8):S&E&R(1/32)");
    EXPECT_TRUE(spec.usesStarvation());

    const auto p14 = PolicySpec::parse("P(14):S");
    EXPECT_EQ(p14.protectN, 14u);
}

TEST(PolicySpec, ParseComparators)
{
    for (const char *name :
         {"TPLRU", "SRRIP", "BRRIP", "DRRIP", "PDP", "DCLIP"}) {
        const auto spec = PolicySpec::parse(name);
        EXPECT_EQ(spec.toString(), name);
        EXPECT_FALSE(spec.usesStarvation());
    }
}

TEST(PolicySpec, RoundTripFigure7Set)
{
    for (const auto &name : figure7PolicyNames()) {
        const auto spec = PolicySpec::parse(name);
        EXPECT_EQ(spec.toString(), name) << name;
    }
}

TEST(PolicySpec, MalformedThrows)
{
    EXPECT_THROW(PolicySpec::parse("X:1"), std::invalid_argument);
    EXPECT_THROW(PolicySpec::parse("P():S"), std::invalid_argument);
    EXPECT_THROW(PolicySpec::parse("P(x):S"), std::invalid_argument);
    EXPECT_THROW(PolicySpec::parse("garbage"), std::invalid_argument);
}

TEST(PolicySpec, NumbersArePlainDecimalsThatFit)
{
    // Signs, spaces, suffixes and values past the target type were
    // once accepted and wrapped (P(-1) -> P(4294967295)).
    for (const char *text :
         {"P(-1):S&E", "P(4294967296):S&E", "P(8x):S&E", "P(+8):S&E",
          "P( 8):S&E", "P(0x8):S&E", "M:R(1/32x)", "M:R(-1/-1)",
          "M:R( 1/32)", "M:R(1/+32)", "M:R(/32)", "M:R(1/)",
          "M:R(1/18446744073709551616)"})
        EXPECT_THROW(PolicySpec::parse(text), std::invalid_argument)
            << text;
    EXPECT_EQ(PolicySpec::parse("P(4294967295):S&E").protectN,
              4294967295u);
    EXPECT_EQ(PolicySpec::parse("P(08):S&E").toString(), "P(8):S&E");
    EXPECT_EQ(PolicySpec::parse("M:R(1/18446744073709551615)")
                  .toString(),
              "M:R(1/18446744073709551615)");
}

TEST(PolicySpec, PriorityScopingInstructionOnly)
{
    Rng rng(3);
    // Data lines stay MRU under M: policies (conventional LRU
    // insertion) regardless of starvation signals...
    const auto m = PolicySpec::parse("M:S&E");
    MissContext data;
    data.isInstruction = false;
    EXPECT_TRUE(m.computePriority(data, rng));
    // ...and are always low-priority under P(N) policies.
    const auto p = PolicySpec::parse("P(8):S&E");
    EXPECT_FALSE(p.computePriority(data, rng));

    // Instruction lines evaluate the selector.
    EXPECT_TRUE(m.computePriority(instrCtx(true, true), rng));
    EXPECT_FALSE(m.computePriority(instrCtx(true, false), rng));
    EXPECT_TRUE(p.computePriority(instrCtx(true, true), rng));
    EXPECT_FALSE(p.computePriority(instrCtx(false, true), rng));
}

TEST(PolicySpec, FactoryProducesNamedPolicies)
{
    for (const auto &name : figure7PolicyNames()) {
        const auto spec = PolicySpec::parse(name);
        const auto policy = makePolicy(spec, 64, 16);
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_EQ(policy->numSets(), 64u);
        EXPECT_EQ(policy->numWays(), 16u);
    }
}

} // namespace
} // namespace emissary::replacement
