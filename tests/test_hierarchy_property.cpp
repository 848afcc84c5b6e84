/**
 * @file
 * Randomized invariant tests for the full hierarchy: a storm of
 * instruction/data requests with interleaved ticks and starvation
 * notes must preserve the structural invariants the EMISSARY
 * plumbing relies on, under every L2 policy family.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "util/rng.hh"

namespace emissary::cache
{
namespace
{

Hierarchy::Config
stormConfig(const std::string &l2_policy)
{
    Hierarchy::Config config;
    config.l1i = {"l1i", 2048, 2, 64, 2,
                  replacement::PolicySpec::parse("TPLRU"), 1};
    config.l1d = {"l1d", 2048, 2, 64, 2,
                  replacement::PolicySpec::parse("TPLRU"), 2};
    config.l2 = {"l2", 16384, 4, 64, 12,
                 replacement::PolicySpec::parse(l2_policy), 3};
    config.l3 = {"l3", 32768, 4, 64, 32,
                 replacement::PolicySpec::parse("DRRIP"), 4};
    config.nextLinePrefetch = true;
    return config;
}

class HierarchyStorm : public ::testing::TestWithParam<std::string>
{
};

TEST_P(HierarchyStorm, InvariantsSurviveRandomTraffic)
{
    Hierarchy h(stormConfig(GetParam()));
    Rng rng(0xD15EA5E);
    std::uint64_t now = 0;

    // Instruction and data line populations (disjoint, like real
    // address spaces).
    constexpr std::uint64_t kInstLines = 1024;
    constexpr std::uint64_t kDataBase = 1 << 20;
    constexpr std::uint64_t kDataLines = 1024;

    for (int step = 0; step < 30000; ++step) {
        h.tick(now);
        switch (rng.nextBelow(8)) {
          case 0:
          case 1:
          case 2: {
            const std::uint64_t line = rng.nextBelow(kInstLines);
            const std::uint64_t ready = h.requestInstruction(
                line, now,
                rng.oneIn(2) ? RequestKind::Demand
                             : RequestKind::Fdip);
            ASSERT_GT(ready, now);
            break;
          }
          case 3:
          case 4: {
            const std::uint64_t line =
                kDataBase + rng.nextBelow(kDataLines);
            h.requestData(line, now, rng.oneIn(3));
            break;
          }
          case 5: {
            // Starvation note for a random line; must be harmless
            // whether or not a miss is outstanding.
            h.noteStarvation(rng.nextBelow(kInstLines),
                             rng.oneIn(2), now);
            break;
          }
          default:
            break;
        }
        now += 1 + rng.nextBelow(3);

        const auto &spec = h.l2().spec();
        if (step % 1024 == 0 &&
            spec.family == replacement::PolicyFamily::EmissaryP) {
            // Invariant 1 (EMISSARY): priority accounting matches
            // between the cache lines and the policy's per-set
            // counters. (M: policies reuse LineInfo::highPriority as
            // an insertion-position flag, so the sync contract is
            // EMISSARY-specific.)
            std::uint64_t policy_total = 0;
            for (unsigned set = 0; set < h.l2().numSets(); ++set)
                policy_total += h.l2().policy().protectedCount(set);
            ASSERT_EQ(policy_total, h.l2().highPriorityLineCount());

            // Invariant 2 (EMISSARY): per-set protected population
            // never exceeds N.
            for (unsigned set = 0; set < h.l2().numSets(); ++set)
                ASSERT_LE(h.l2().policy().protectedCount(set),
                          spec.protectN);
        }
    }
    h.drain();
    EXPECT_EQ(h.outstanding(), 0u);

    // Invariant 3 (inclusion): after the storm settles, every valid
    // L1 line is present in the L2.
    std::uint64_t missing = 0;
    for (std::uint64_t line = 0; line < kInstLines; ++line)
        if (h.l1i().peek(line) && !h.l2().peek(line))
            ++missing;
    for (std::uint64_t line = kDataBase;
         line < kDataBase + kDataLines; ++line)
        if (h.l1d().peek(line) && !h.l2().peek(line))
            ++missing;
    EXPECT_EQ(missing, 0u) << "inclusion violated";

    // Invariant 4 (exclusion): no line lives in both L2 and L3.
    std::uint64_t duplicated = 0;
    for (std::uint64_t line = 0; line < kInstLines; ++line)
        if (h.l2().peek(line) && h.l3().peek(line))
            ++duplicated;
    EXPECT_EQ(duplicated, 0u) << "L2/L3 exclusivity violated";
}

INSTANTIATE_TEST_SUITE_P(
    PolicyFamilies, HierarchyStorm,
    ::testing::Values("TPLRU", "M:1", "M:0", "M:S&E&R(1/32)",
                      "P(2):S&E", "P(4):S&E&R(1/8)", "SRRIP",
                      "DRRIP", "PDP", "DCLIP"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string out;
        for (const char c : info.param)
            out += std::isalnum(static_cast<unsigned char>(c))
                       ? c
                       : '_';
        return out;
    });

} // namespace
} // namespace emissary::cache
