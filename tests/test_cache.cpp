/**
 * @file
 * Tests for the set-associative cache array: fills, evictions,
 * invalidation, dirty tracking, the EMISSARY priority bit, and the
 * Fig. 8 distribution helper.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"

namespace emissary::cache
{
namespace
{

Cache::Config
smallConfig(const std::string &policy = "TPLRU")
{
    Cache::Config config;
    config.name = "test";
    config.sizeBytes = 4 * 1024;  // 64 lines.
    config.ways = 4;              // 16 sets.
    config.hitLatency = 2;
    config.policy = replacement::PolicySpec::parse(policy);
    return config;
}

replacement::LineInfo
instrInfo(bool high = false)
{
    replacement::LineInfo li;
    li.isInstruction = true;
    li.highPriority = high;
    return li;
}

TEST(Cache, GeometryChecks)
{
    const Cache cache(smallConfig());
    EXPECT_EQ(cache.numSets(), 16u);
    EXPECT_EQ(cache.numWays(), 4u);

    Cache::Config bad = smallConfig();
    bad.ways = 7;
    EXPECT_THROW(Cache{bad}, std::invalid_argument);
}

TEST(Cache, InsertThenPeek)
{
    Cache cache(smallConfig());
    EXPECT_EQ(cache.peek(100), nullptr);
    const auto ev = cache.insert(100, instrInfo(), true, false, false,
                                 false);
    EXPECT_FALSE(ev.valid);
    const CacheLine *line = cache.peek(100);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->isInstruction);
    EXPECT_FALSE(line->dirty);
}

TEST(Cache, EvictionOnFullSet)
{
    Cache cache(smallConfig());
    // Lines 0, 16, 32, 48, 64 all map to set 0 (16 sets).
    for (std::uint64_t i = 0; i < 4; ++i)
        cache.insert(i * 16, instrInfo(), true, false, false, false);
    const auto ev =
        cache.insert(4 * 16, instrInfo(), true, false, false, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr % 16, 0u);
    // The evicted line is gone; the new one is present.
    EXPECT_EQ(cache.peek(ev.lineAddr), nullptr);
    EXPECT_NE(cache.peek(4 * 16), nullptr);
}

TEST(Cache, TouchKeepsLineResident)
{
    Cache cache(smallConfig());
    for (std::uint64_t i = 0; i < 4; ++i)
        cache.insert(i * 16, instrInfo(), true, false, false, false);
    // Touch line 0 repeatedly; filling the set evicts someone else.
    cache.touch(0);
    const auto ev =
        cache.insert(4 * 16, instrInfo(), true, false, false, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_NE(ev.lineAddr, 0u);
    EXPECT_NE(cache.peek(0), nullptr);
}

TEST(Cache, InvalidateReturnsState)
{
    Cache cache(smallConfig());
    cache.insert(42, instrInfo(true), true, false, true, false);
    const auto out = cache.invalidate(42);
    ASSERT_TRUE(out.valid);
    EXPECT_TRUE(out.line.priority);
    EXPECT_TRUE(out.line.sfl);
    EXPECT_EQ(cache.peek(42), nullptr);
    // Second invalidation is a no-op.
    EXPECT_FALSE(cache.invalidate(42).valid);
}

TEST(Cache, DirtyTracking)
{
    Cache cache(smallConfig());
    cache.insert(7, instrInfo(), false, false, false, false);
    cache.markDirty(cache.lookup(7));
    EXPECT_TRUE(cache.peek(7)->dirty);
}

TEST(Cache, RaisePriorityOnResidentLine)
{
    Cache cache(smallConfig("P(2):S"));
    cache.insert(9, instrInfo(false), true, false, false, false);
    EXPECT_FALSE(cache.peek(9)->priority);
    cache.raisePriority(9);
    EXPECT_TRUE(cache.peek(9)->priority);
    EXPECT_EQ(cache.policy().protectedCount(cache.setIndex(9)), 1u);
    // Absent lines are ignored.
    cache.raisePriority(0xDEAD);
}

TEST(Cache, ResetPrioritiesClearsLinesAndPolicy)
{
    Cache cache(smallConfig("P(2):S"));
    cache.insert(9, instrInfo(true), true, false, false, false);
    cache.insert(25, instrInfo(true), true, false, false, false);
    EXPECT_EQ(cache.highPriorityLineCount(), 2u);
    cache.resetPriorities();
    EXPECT_EQ(cache.highPriorityLineCount(), 0u);
    EXPECT_FALSE(cache.peek(9)->priority);
    EXPECT_EQ(cache.policy().protectedCount(cache.setIndex(9)), 0u);
}

TEST(Cache, PriorityDistribution)
{
    Cache cache(smallConfig("P(2):S"));
    // Set 0: two high-priority lines; set 1: one.
    cache.insert(0, instrInfo(true), true, false, false, false);
    cache.insert(16, instrInfo(true), true, false, false, false);
    cache.insert(1, instrInfo(true), true, false, false, false);
    cache.insert(17, instrInfo(false), true, false, false, false);
    const auto hist = cache.priorityDistribution();
    EXPECT_EQ(hist.domain(), 5u);  // 0..4 for 4 ways.
    EXPECT_EQ(hist.count(2), 1u);  // set 0.
    EXPECT_EQ(hist.count(1), 1u);  // set 1.
    EXPECT_EQ(hist.count(0), 14u); // all other sets.
}

TEST(Cache, PrefetchedFlagClearedOnTouch)
{
    Cache cache(smallConfig());
    cache.insert(5, instrInfo(), true, false, false, true);
    EXPECT_TRUE(cache.peek(5)->prefetched);
    cache.touch(5);
    EXPECT_FALSE(cache.peek(5)->prefetched);
}

} // namespace
} // namespace emissary::cache
