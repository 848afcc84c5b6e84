/**
 * @file
 * Tests for the three-level hierarchy: latency composition, MSHR
 * merging, inclusive back-invalidation, the exclusive L3 victim path
 * with the SFL bit, EMISSARY priority plumbing from starvation to
 * protection, the §5.6 ideal-L2I model, and the order in which tick()
 * and drain() apply fills.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/hierarchy.hh"

namespace emissary::cache
{
namespace
{

Hierarchy::Config
tinyConfig(const std::string &l2_policy = "TPLRU")
{
    Hierarchy::Config config;
    config.l1i = {"l1i", 1024, 2, 64, 2,
                  replacement::PolicySpec::parse("TPLRU"), 1};
    config.l1d = {"l1d", 1024, 2, 64, 2,
                  replacement::PolicySpec::parse("TPLRU"), 2};
    config.l2 = {"l2", 8192, 4, 64, 12,
                 replacement::PolicySpec::parse(l2_policy), 3};
    config.l3 = {"l3", 16384, 4, 64, 32,
                 replacement::PolicySpec::parse("DRRIP"), 4};
    config.dramLatency = 200;
    config.nextLinePrefetch = false;
    return config;
}

/** Run ticks until cycle @p until. */
void
runTo(Hierarchy &h, std::uint64_t until)
{
    for (std::uint64_t c = 0; c <= until; ++c)
        h.tick(c);
}

TEST(Hierarchy, ColdMissPaysFullLatency)
{
    Hierarchy h(tinyConfig());
    const std::uint64_t ready =
        h.requestInstruction(100, 0, RequestKind::Demand);
    // L1(2) + L2(12) + L3(32) + DRAM(200).
    EXPECT_EQ(ready, 2u + 12 + 32 + 200);
    EXPECT_EQ(h.stats().l1iMisses, 1u);
    EXPECT_EQ(h.stats().l2InstMisses, 1u);
    EXPECT_EQ(h.stats().l3Misses, 1u);
    EXPECT_EQ(h.stats().dramReads, 1u);
}

TEST(Hierarchy, HitAfterFillCostsL1Latency)
{
    Hierarchy h(tinyConfig());
    const std::uint64_t ready =
        h.requestInstruction(100, 0, RequestKind::Demand);
    runTo(h, ready);
    const std::uint64_t again =
        h.requestInstruction(100, ready, RequestKind::Demand);
    EXPECT_EQ(again, ready + 2);
    EXPECT_EQ(h.stats().l1iMisses, 1u);
}

TEST(Hierarchy, MshrMergesConcurrentRequests)
{
    Hierarchy h(tinyConfig());
    const std::uint64_t r1 =
        h.requestInstruction(100, 0, RequestKind::Fdip);
    const std::uint64_t r2 =
        h.requestInstruction(100, 5, RequestKind::Demand);
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(h.outstanding(), 1u);
    // Both fetch-path probes count as misses (the second is a late
    // hit-under-miss).
    EXPECT_EQ(h.stats().l1iMisses, 2u);
    // But only one L2 probe happened.
    EXPECT_EQ(h.stats().l2InstMisses, 1u);
}

TEST(Hierarchy, L2HitServesWithoutL3)
{
    Hierarchy h(tinyConfig());
    const std::uint64_t ready =
        h.requestInstruction(100, 0, RequestKind::Demand);
    runTo(h, ready);
    // Push the line out of tiny L1I (2 ways/set, 8 sets) but keep L2.
    const std::uint64_t s = 100 % 8;
    h.requestInstruction(100 + 8 * (s + 1), ready,
                         RequestKind::Demand);
    h.requestInstruction(100 + 8 * (s + 50), ready,
                         RequestKind::Demand);
    runTo(h, ready + 300);
    const std::uint64_t l3_before = h.stats().l3Accesses;
    const std::uint64_t again =
        h.requestInstruction(100, ready + 300, RequestKind::Demand);
    EXPECT_EQ(again, ready + 300 + 2 + 12);
    EXPECT_EQ(h.stats().l3Accesses, l3_before);
}

TEST(Hierarchy, ExclusiveL3VictimPathAndSfl)
{
    Hierarchy h(tinyConfig());
    // Fill a line, then thrash its L2 set (4 ways, 32 sets) so it is
    // evicted into L3.
    const std::uint64_t target = 64;
    std::uint64_t now = 0;
    now = h.requestInstruction(target, now, RequestKind::Demand);
    runTo(h, now);
    for (int i = 1; i <= 4; ++i) {
        now = h.requestInstruction(target + 32 * i, now,
                                   RequestKind::Demand);
        runTo(h, now);
    }
    // The target must now live in L3 only (exclusive).
    EXPECT_EQ(h.l2().peek(target), nullptr);
    ASSERT_NE(h.l3().peek(target), nullptr);

    // Re-fetch: the L3 copy moves back to L2 with the SFL bit set.
    const std::uint64_t ready =
        h.requestInstruction(target, now, RequestKind::Demand);
    EXPECT_EQ(ready, now + 2 + 12 + 32);  // L3 hit latency path.
    runTo(h, ready);
    EXPECT_EQ(h.l3().peek(target), nullptr);
    ASSERT_NE(h.l2().peek(target), nullptr);
    EXPECT_TRUE(h.l2().peek(target)->sfl);
}

TEST(Hierarchy, InclusiveBackInvalidation)
{
    Hierarchy h(tinyConfig());
    const std::uint64_t target = 64;
    std::uint64_t now = h.requestInstruction(target, 0,
                                             RequestKind::Demand);
    runTo(h, now);
    ASSERT_NE(h.l1i().peek(target), nullptr);
    // Evict from L2 by filling its set; the L1I copy must go too.
    for (int i = 1; i <= 4; ++i) {
        now = h.requestInstruction(target + 32 * i, now,
                                   RequestKind::Demand);
        runTo(h, now);
    }
    EXPECT_EQ(h.l2().peek(target), nullptr);
    EXPECT_EQ(h.l1i().peek(target), nullptr);
}

TEST(Hierarchy, StarvationDrivesEmissarySelection)
{
    Hierarchy h(tinyConfig("P(2):S&E"));
    const std::uint64_t target = 100;
    h.requestInstruction(target, 0, RequestKind::Demand);
    h.noteStarvation(target, /*iq_empty=*/true, /*now=*/1);
    runTo(h, 300);
    // The L1I copy carries P=1; the L2 copy stays P=0 until the L1I
    // eviction communicates it.
    ASSERT_NE(h.l1i().peek(target), nullptr);
    EXPECT_TRUE(h.l1i().peek(target)->priority);
    ASSERT_NE(h.l2().peek(target), nullptr);
    EXPECT_FALSE(h.l2().peek(target)->priority);
    EXPECT_EQ(h.stats().highPriorityFills, 1u);

    // Push the line out of L1I: the L2 copy is upgraded.
    const std::uint64_t s = target % 8;
    std::uint64_t now = 300;
    for (int i = 1; i <= 2; ++i) {
        now = h.requestInstruction(target + 8 * (s * 0 + 32 * i), now,
                                   RequestKind::Demand);
        runTo(h, now);
    }
    if (h.l1i().peek(target) == nullptr) {
        EXPECT_TRUE(h.l2().peek(target)->priority);
        EXPECT_EQ(h.stats().priorityUpgrades, 1u);
    }
}

TEST(Hierarchy, NoSelectionWithoutStarvation)
{
    Hierarchy h(tinyConfig("P(2):S&E"));
    h.requestInstruction(100, 0, RequestKind::Demand);
    runTo(h, 300);
    EXPECT_FALSE(h.l1i().peek(100)->priority);
    EXPECT_EQ(h.stats().highPriorityFills, 0u);
}

TEST(Hierarchy, StarvationWithoutIqEmptyFailsSAndE)
{
    Hierarchy h(tinyConfig("P(2):S&E"));
    h.requestInstruction(100, 0, RequestKind::Demand);
    h.noteStarvation(100, /*iq_empty=*/false, /*now=*/1);
    runTo(h, 300);
    EXPECT_FALSE(h.l1i().peek(100)->priority);
}

TEST(Hierarchy, IdealL2InstHidesCapacityMisses)
{
    auto config = tinyConfig();
    config.idealL2Inst = true;
    Hierarchy h(config);
    const std::uint64_t target = 64;
    // Compulsory miss: full latency.
    std::uint64_t now = h.requestInstruction(target, 0,
                                             RequestKind::Demand);
    EXPECT_EQ(now, 2u + 12 + 32 + 200);
    runTo(h, now);
    // Evict it everywhere by thrashing L2 and L3 sets.
    for (int i = 1; i <= 12; ++i) {
        now = h.requestInstruction(target + 32 * i, now,
                                   RequestKind::Demand);
        runTo(h, now);
    }
    ASSERT_EQ(h.l2().peek(target), nullptr);
    // Second (capacity) miss: collapses to L2-hit latency.
    const std::uint64_t ready =
        h.requestInstruction(target, now, RequestKind::Demand);
    EXPECT_EQ(ready, now + 2 + 12);
    EXPECT_EQ(h.stats().idealHiddenMisses, 1u);
}

TEST(Hierarchy, DataPathFillsL1dAndDirtyWriteback)
{
    Hierarchy h(tinyConfig());
    const std::uint64_t ready = h.requestData(500, 0, /*write=*/true);
    runTo(h, ready);
    ASSERT_NE(h.l1d().peek(500), nullptr);
    EXPECT_TRUE(h.l1d().peek(500)->dirty);
    // Store hit marks dirty too.
    const std::uint64_t r2 = h.requestData(500, ready, true);
    EXPECT_EQ(r2, ready + 2);
}

TEST(Hierarchy, NlpIssuesNextLine)
{
    auto config = tinyConfig();
    config.nextLinePrefetch = true;
    Hierarchy h(config);
    h.requestData(500, 0, false);
    EXPECT_EQ(h.stats().nlpIssued, 1u);
    // Line 501 is in flight: a demand request merges with it.
    EXPECT_EQ(h.outstanding(), 2u);
    const std::uint64_t before = h.stats().l2DataMisses;
    h.requestData(501, 1, false);
    EXPECT_EQ(h.stats().l2DataMisses, before);
}

TEST(Hierarchy, DrainCompletesEverything)
{
    Hierarchy h(tinyConfig());
    h.requestInstruction(1, 0, RequestKind::Demand);
    h.requestData(1000, 0, false);
    EXPECT_EQ(h.outstanding(), 2u);
    h.drain();
    EXPECT_EQ(h.outstanding(), 0u);
    EXPECT_NE(h.l1i().peek(1), nullptr);
    EXPECT_NE(h.l1d().peek(1000), nullptr);
}

TEST(Hierarchy, EqualReadyFillsApplyInAscendingLineOrder)
{
    // Three cold lines of one 2-way L1I set, requested in descending
    // order in one cycle, all ready together. Fills apply in
    // ascending line order, so the third fill evicts the lowest line.
    Hierarchy h(tinyConfig());
    const std::uint64_t a = 8;
    const std::uint64_t b = 16;
    const std::uint64_t c = 24;
    const std::uint64_t ready =
        h.requestInstruction(c, 0, RequestKind::Demand);
    EXPECT_EQ(h.requestInstruction(b, 0, RequestKind::Demand), ready);
    EXPECT_EQ(h.requestInstruction(a, 0, RequestKind::Demand), ready);
    h.tick(ready - 1);
    EXPECT_EQ(h.outstanding(), 3u);
    h.tick(ready);
    EXPECT_EQ(h.outstanding(), 0u);
    EXPECT_EQ(h.l1i().peek(a), nullptr);
    EXPECT_NE(h.l1i().peek(b), nullptr);
    EXPECT_NE(h.l1i().peek(c), nullptr);
}

/** Presence and state bits of @p line in @p cache, for comparison. */
std::vector<int>
lineState(Cache &cache, std::uint64_t line)
{
    const CacheLine *l = cache.peek(line);
    if (l == nullptr)
        return {0};
    return {1, l->dirty, l->isInstruction, l->priority, l->sfl};
}

/** Issue a mix of fills with distinct and equal ready cycles, served
 *  from L2, L3 and memory, several of them conflicting in a set. */
std::uint64_t
issueMixedFills(Hierarchy &h)
{
    // Seed L2/L3 so some misses below are served from there: fill
    // lines, then push them out of the tiny L1s (and some out of L2).
    std::uint64_t now = 0;
    for (std::uint64_t line = 0; line < 96; line += 4) {
        h.requestInstruction(line, now, RequestKind::Demand);
        h.requestData(1000 + line, now, line % 8 == 0);
        now += 3;
    }
    runTo(h, now + 300);
    now += 301;

    std::uint64_t last_ready = 0;
    for (std::uint64_t line = 96; line > 0; line -= 8) {
        last_ready = std::max(
            last_ready,
            h.requestInstruction(line, now, RequestKind::Demand));
        h.noteStarvation(line, line % 16 == 0, now);
        last_ready = std::max(
            last_ready, h.requestData(1000 + line, now, line % 24 == 0));
    }
    for (std::uint64_t line = 200; line < 216; ++line)
        last_ready = std::max(
            last_ready,
            h.requestInstruction(line, now + (line % 3),
                                 RequestKind::Demand));
    return last_ready;
}

TEST(Hierarchy, DrainMatchesTickingToTheLastFill)
{
    for (const char *policy : {"TPLRU", "P(2):S&E", "SRRIP"}) {
        SCOPED_TRACE(policy);
        Hierarchy drained(tinyConfig(policy));
        Hierarchy ticked(tinyConfig(policy));
        const std::uint64_t last = issueMixedFills(drained);
        ASSERT_EQ(issueMixedFills(ticked), last);
        ASSERT_GT(drained.outstanding(), 20u);

        drained.drain();
        for (std::uint64_t now = 0; now <= last; ++now)
            ticked.tick(now);
        ASSERT_EQ(drained.outstanding(), 0u);
        ASSERT_EQ(ticked.outstanding(), 0u);

        for (std::uint64_t line = 0; line < 1300; ++line) {
            EXPECT_EQ(lineState(drained.l1i(), line),
                      lineState(ticked.l1i(), line)) << line;
            EXPECT_EQ(lineState(drained.l1d(), line),
                      lineState(ticked.l1d(), line)) << line;
            EXPECT_EQ(lineState(drained.l2(), line),
                      lineState(ticked.l2(), line)) << line;
            EXPECT_EQ(lineState(drained.l3(), line),
                      lineState(ticked.l3(), line)) << line;
        }
        EXPECT_EQ(drained.stats().l2Fills, ticked.stats().l2Fills);
        EXPECT_EQ(drained.stats().l2Evictions,
                  ticked.stats().l2Evictions);
        EXPECT_EQ(drained.stats().dramWrites,
                  ticked.stats().dramWrites);
        EXPECT_EQ(drained.stats().highPriorityFills,
                  ticked.stats().highPriorityFills);
    }
}

TEST(Hierarchy, ResetPrioritiesClearsBothLevels)
{
    Hierarchy h(tinyConfig("P(2):S"));
    h.requestInstruction(100, 0, RequestKind::Demand);
    h.noteStarvation(100, true, 1);
    runTo(h, 300);
    ASSERT_TRUE(h.l1i().peek(100)->priority);
    h.resetPriorities();
    EXPECT_FALSE(h.l1i().peek(100)->priority);
    EXPECT_EQ(h.l2().highPriorityLineCount(), 0u);
}

} // namespace
} // namespace emissary::cache
