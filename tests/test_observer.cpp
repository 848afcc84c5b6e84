/**
 * @file
 * Tests for the hierarchy's event-time observer (used by the Fig. 2
 * harness and the Bélády analysis).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/hierarchy.hh"

namespace emissary::cache
{
namespace
{

Hierarchy::Config
tinyConfig()
{
    Hierarchy::Config config;
    config.l1i = {"l1i", 1024, 2, 64, 2,
                  replacement::PolicySpec::parse("TPLRU"), 1};
    config.l1d = {"l1d", 1024, 2, 64, 2,
                  replacement::PolicySpec::parse("TPLRU"), 2};
    config.l2 = {"l2", 8192, 4, 64, 12,
                 replacement::PolicySpec::parse("TPLRU"), 3};
    config.l3 = {"l3", 16384, 4, 64, 32,
                 replacement::PolicySpec::parse("DRRIP"), 4};
    config.nextLinePrefetch = false;
    return config;
}

class Recorder : public HierarchyObserver
{
  public:
    void
    onL2InstMiss(std::uint64_t line) override
    {
        misses.push_back(line);
    }
    void
    onStarvationCycle(std::uint64_t line, std::uint64_t cycle) override
    {
        starved.push_back(line);
        starvedAt.push_back(cycle);
    }
    void
    onL2InstAccess(std::uint64_t line) override
    {
        accesses.push_back(line);
    }

    std::vector<std::uint64_t> misses;
    std::vector<std::uint64_t> starved;
    std::vector<std::uint64_t> starvedAt;
    std::vector<std::uint64_t> accesses;
};

TEST(Observer, SeesMissesAccessesAndStarvation)
{
    Hierarchy h(tinyConfig());
    Recorder rec;
    h.setObserver(&rec);

    h.requestInstruction(100, 0, RequestKind::Demand);
    h.noteStarvation(100, true, 1);
    h.noteStarvation(100, true, 2);
    for (std::uint64_t c = 0; c <= 300; ++c)
        h.tick(c);

    ASSERT_EQ(rec.misses.size(), 1u);
    EXPECT_EQ(rec.misses[0], 100u);
    ASSERT_EQ(rec.accesses.size(), 1u);
    EXPECT_EQ(rec.accesses[0], 100u);
    ASSERT_EQ(rec.starved.size(), 2u);
    EXPECT_EQ(rec.starved[0], 100u);
    EXPECT_EQ(rec.starvedAt, (std::vector<std::uint64_t>{1, 2}));

    // L1I hit: no new L2 events.
    h.requestInstruction(100, 301, RequestKind::Demand);
    EXPECT_EQ(rec.accesses.size(), 1u);
}

TEST(Observer, BulkStarvationFiresOncePerCycle)
{
    Hierarchy h(tinyConfig());
    Recorder rec;
    h.setObserver(&rec);

    h.requestInstruction(100, 0, RequestKind::Demand);
    h.noteStarvation(100, false, 5, 3);
    h.noteStarvation(7, true, 8, 4);  // No miss outstanding: no-op.
    EXPECT_EQ(rec.starved, (std::vector<std::uint64_t>{100, 100, 100}));
    EXPECT_EQ(rec.starvedAt, (std::vector<std::uint64_t>{5, 6, 7}));
    EXPECT_EQ(h.stats().starvationNotes, 3u);
    for (std::uint64_t c = 0; c <= 300; ++c)
        h.tick(c);
    EXPECT_EQ(h.stats().starveCyclesL2 + h.stats().starveCyclesL3 +
                  h.stats().starveCyclesMem,
              3u);
}

TEST(Observer, AccessWithoutMissOnL2Hit)
{
    Hierarchy h(tinyConfig());
    Recorder rec;
    h.setObserver(&rec);

    std::uint64_t now =
        h.requestInstruction(64, 0, RequestKind::Demand);
    for (std::uint64_t c = 0; c <= now; ++c)
        h.tick(c);
    // Evict from the tiny L1I but not from L2.
    now = h.requestInstruction(64 + 8, now, RequestKind::Demand);
    now = h.requestInstruction(64 + 16, now, RequestKind::Demand);
    for (std::uint64_t c = 0; c <= now + 300; ++c)
        h.tick(c);
    rec.misses.clear();
    rec.accesses.clear();

    h.requestInstruction(64, now + 300, RequestKind::Demand);
    EXPECT_EQ(rec.accesses.size(), 1u);
    EXPECT_TRUE(rec.misses.empty());
}

TEST(Observer, DetachStopsEvents)
{
    Hierarchy h(tinyConfig());
    Recorder rec;
    h.setObserver(&rec);
    h.requestInstruction(100, 0, RequestKind::Demand);
    h.setObserver(nullptr);
    h.requestInstruction(200, 0, RequestKind::Demand);
    EXPECT_EQ(rec.accesses.size(), 1u);
}

TEST(Observer, NlpDoesNotCount)
{
    auto config = tinyConfig();
    config.nextLinePrefetch = true;
    Hierarchy h(config);
    Recorder rec;
    h.setObserver(&rec);
    h.requestInstruction(100, 0, RequestKind::Demand);
    // The NLP probe for line 101 is not a fetch-path access.
    EXPECT_EQ(rec.accesses.size(), 1u);
}

} // namespace
} // namespace emissary::cache
