/**
 * @file
 * Generic property tests instantiated over every policy in the
 * Table 3 comparison set: victims stay in range, state survives
 * arbitrary event interleavings, and per-set metadata stays
 * consistent across invalidation and refill.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "replacement/spec.hh"
#include "util/rng.hh"

namespace emissary::replacement
{
namespace
{

class PolicyProperty : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<ReplacementPolicy>
    make(unsigned sets, unsigned ways)
    {
        return makePolicy(PolicySpec::parse(GetParam()), sets, ways,
                          0xABCDEF);
    }
};

TEST_P(PolicyProperty, VictimAlwaysInRange)
{
    auto policy = make(8, 16);
    Rng rng(31);
    LineInfo li;
    for (unsigned set = 0; set < 8; ++set)
        for (unsigned w = 0; w < 16; ++w) {
            li.isInstruction = rng.oneIn(2);
            li.highPriority = rng.oneIn(4);
            policy->onInsert(set, w, li);
        }
    for (int i = 0; i < 5000; ++i) {
        const unsigned set = static_cast<unsigned>(rng.nextBelow(8));
        const unsigned v = policy->selectVictim(set);
        ASSERT_LT(v, 16u);
        policy->onInvalidate(set, v);
        li.isInstruction = rng.oneIn(2);
        li.highPriority = rng.oneIn(4);
        li.insertMru = rng.oneIn(8);
        policy->onInsert(set, v, li);
    }
}

TEST_P(PolicyProperty, SurvivesRandomEventSoup)
{
    auto policy = make(4, 8);
    Rng rng(77);
    LineInfo li;
    std::vector<std::vector<bool>> valid(4, std::vector<bool>(8, false));

    for (int i = 0; i < 20000; ++i) {
        const unsigned set = static_cast<unsigned>(rng.nextBelow(4));
        const unsigned way = static_cast<unsigned>(rng.nextBelow(8));
        li.isInstruction = rng.oneIn(2);
        li.highPriority = rng.oneIn(4);
        switch (rng.nextBelow(5)) {
          case 0:
            if (!valid[set][way]) {
                policy->onInsert(set, way, li);
                valid[set][way] = true;
            }
            break;
          case 1:
            if (valid[set][way])
                policy->onHit(set, way, li);
            break;
          case 2:
            if (valid[set][way]) {
                policy->onInvalidate(set, way);
                valid[set][way] = false;
            }
            break;
          case 3:
            policy->onMiss(set);
            break;
          default: {
            bool full = true;
            for (unsigned w = 0; w < 8; ++w)
                full = full && valid[set][w];
            if (full) {
                ASSERT_LT(policy->selectVictim(set), 8u);
            }
            break;
          }
        }
    }
}

TEST_P(PolicyProperty, ResetAndPriorityHooksAreSafe)
{
    auto policy = make(4, 8);
    LineInfo li;
    li.isInstruction = true;
    for (unsigned w = 0; w < 8; ++w)
        policy->onInsert(0, w, li);
    // These EMISSARY hooks do nothing under the other families; they
    // must be harmless for every policy.
    policy->setPriority(0, 3, true);
    EXPECT_LE(policy->protectedCount(0), 8u);
    policy->resetPriorities();
    EXPECT_LT(policy->selectVictim(0), 8u);
}

TEST_P(PolicyProperty, NameIsStable)
{
    auto policy = make(2, 4);
    EXPECT_FALSE(policy->name().empty());
    EXPECT_EQ(policy->numSets(), 2u);
    EXPECT_EQ(policy->numWays(), 4u);
}

// emissary() reaches P(N)'s own state, and only P(N) has it.
TEST_P(PolicyProperty, EmissaryStateOnlyUnderPN)
{
    auto policy = make(2, 4);
    const bool pn = PolicySpec::parse(GetParam()).family ==
                    PolicyFamily::EmissaryP;
    ASSERT_EQ(policy->emissary() != nullptr, pn);
    if (pn) {
        EXPECT_EQ(policy->emissary()->name(), policy->name());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table3Policies, PolicyProperty,
    ::testing::Values("M:1", "M:0", "M:R(1/32)", "M:S&E",
                      "M:S&E&R(1/32)", "TPLRU", "P(2):S", "P(8):S&E",
                      "P(8):S&E&R(1/32)", "P(14):R(1/16)", "SRRIP",
                      "BRRIP", "DRRIP", "PDP", "DCLIP"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string out;
        for (const char c : info.param)
            out += std::isalnum(static_cast<unsigned char>(c))
                       ? c
                       : '_';
        return out;
    });

} // namespace
} // namespace emissary::replacement
