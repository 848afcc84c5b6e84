/**
 * @file
 * Stress test for the cache array's flattened lookup path: the
 * struct-of-arrays tag lane (Cache::tags_) must stay a perfect
 * mirror of the per-line state through long random sequences of
 * insert/touch/invalidate, including heavy set aliasing. Every
 * operation is cross-checked against a reference model (a plain
 * per-set address set), so any desynchronisation — a stale tag
 * matching after invalidate, an empty-way probe missing a free way,
 * an eviction the model did not predict possible — fails here.
 *
 * The slot operations (touch and dirty marking by slot, an insert of
 * a resident line) are checked the same way, against a twin array.
 *
 * Runs for every alternative of replacement::ReplacementPolicy, the
 * one dispatch every array calls: TPLRU, EMISSARY on its dual trees
 * and on true LRU, the M: family (LRU, BIP), SRRIP, BRRIP, DRRIP,
 * PDP and DCLIP. It is part of the ASan + UBSan CI stage, which
 * catches out-of-bounds tag-lane indexing the assertions cannot.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "replacement/policy.hh"
#include "replacement/spec.hh"
#include "util/rng.hh"

namespace emissary::cache
{
namespace
{

/** Reference residency model: the set of line addresses per set. */
class ReferenceModel
{
  public:
    ReferenceModel(unsigned sets, unsigned ways)
        : sets_(sets), ways_(ways), resident_(sets)
    {
    }

    bool
    contains(std::uint64_t line_addr) const
    {
        const auto &set = resident_[setOf(line_addr)];
        return set.count(line_addr) != 0;
    }

    bool
    setFull(std::uint64_t line_addr) const
    {
        return resident_[setOf(line_addr)].size() == ways_;
    }

    void
    insert(std::uint64_t line_addr)
    {
        resident_[setOf(line_addr)].insert(line_addr);
    }

    void
    erase(std::uint64_t line_addr)
    {
        resident_[setOf(line_addr)].erase(line_addr);
    }

    std::uint64_t
    residentLines() const
    {
        std::uint64_t count = 0;
        for (const auto &set : resident_)
            count += set.size();
        return count;
    }

  private:
    unsigned setOf(std::uint64_t line_addr) const
    {
        return static_cast<unsigned>(line_addr & (sets_ - 1));
    }

    unsigned sets_;
    unsigned ways_;
    std::vector<std::set<std::uint64_t>> resident_;
};

/**
 * Random alias-heavy workout of one policy configuration. Addresses
 * are drawn from a pool that is a small multiple of one set's worth
 * of aliases, so sets fill, evict and reuse tags constantly.
 *
 * The slot operations ride along: a hit touches by slot or by
 * address, a store marks dirty by slot, and an insert of a resident
 * line must report that line's slot and state and change nothing. A
 * twin array gets every operation except those inserts, so any state
 * they changed would show as a later decision of the two arrays
 * that differs.
 */
void
stressPolicy(const std::string &policy, std::uint64_t seed,
             bool emissary_tree_plru = true)
{
    SCOPED_TRACE(policy);
    SCOPED_TRACE(emissary_tree_plru ? "tree PLRU" : "true LRU");

    Cache::Config config;
    config.name = "stress";
    config.sizeBytes = 64 * 1024;  // 64 sets x 16 ways x 64 B.
    config.ways = 16;
    config.lineBytes = 64;
    config.policy = replacement::PolicySpec::parse(policy);
    config.policy.emissaryTreePlru = emissary_tree_plru;
    config.seed = seed;
    Cache cache(config);
    Cache twin(config);

    const unsigned sets = cache.numSets();
    const unsigned ways = cache.numWays();
    ReferenceModel model(sets, ways);
    std::set<std::uint64_t> dirty;  // The model's dirty lines.

    // 40 aliases per set: 2.5x associativity, so roughly every other
    // insert into a warm set evicts.
    const unsigned aliases = 40;
    Rng rng(seed ^ 0xA11A5ULL);

    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resident_inserts = 0;
    for (int op = 0; op < 200'000; ++op) {
        const unsigned set =
            static_cast<unsigned>(rng.nextBelow(sets));
        const std::uint64_t alias = rng.nextBelow(aliases);
        // line_addr maps to `set` and carries a distinct tag per
        // alias (bits above the set index).
        const std::uint64_t line_addr = (alias << 20) | set;

        const bool present_model = model.contains(line_addr);
        const CacheLine *peeked = cache.peek(line_addr);
        ASSERT_EQ(peeked != nullptr, present_model)
            << "op " << op << " addr " << line_addr;
        const Cache::Slot slot = cache.lookup(line_addr);
        ASSERT_EQ(static_cast<bool>(slot), present_model);
        ASSERT_EQ(slot.set, cache.setIndex(line_addr));
        if (slot) {
            ASSERT_LT(slot.way, ways);
            ASSERT_EQ(&cache.line(slot), peeked);
            ASSERT_EQ(cache.line(slot).dirty, dirty.count(line_addr) != 0)
                << "op " << op;
        }

        replacement::LineInfo info;
        const std::uint64_t action = rng.nextBelow(12);
        if (action < 6) {
            info.isInstruction = (action % 2) == 0;
            info.highPriority = (action % 3) == 0;
            if (present_model) {
                // Access hit: touch by slot, by address, or re-insert.
                if (action % 3 == 0) {
                    cache.touch(slot);
                } else if (action % 3 == 1) {
                    cache.touch(line_addr);
                } else {
                    const Cache::Eviction again = cache.insert(
                        line_addr, info, info.isInstruction, false,
                        false, false);
                    ++resident_inserts;
                    ASSERT_TRUE(again.resident) << "op " << op;
                    ASSERT_FALSE(again.valid) << "op " << op;
                    ASSERT_EQ(again.lineAddr, line_addr);
                    ASSERT_EQ(again.slot.set, slot.set);
                    ASSERT_EQ(again.slot.way, slot.way);
                    ASSERT_EQ(again.line.dirty,
                              dirty.count(line_addr) != 0);
                    continue;  // The twin never sees it.
                }
                twin.touch(line_addr);
            } else {
                const bool was_full = model.setFull(line_addr);
                const Cache::Eviction evicted = cache.insert(
                    line_addr, info, info.isInstruction, false,
                    false, false);
                const Cache::Eviction twin_evicted = twin.insert(
                    line_addr, info, info.isInstruction, false,
                    false, false);
                ++inserts;
                ASSERT_FALSE(evicted.resident) << "op " << op;
                ASSERT_EQ(evicted.valid, was_full) << "op " << op;
                ASSERT_EQ(twin_evicted.valid, evicted.valid);
                ASSERT_EQ(twin_evicted.lineAddr, evicted.lineAddr)
                    << "op " << op;
                ASSERT_EQ(twin_evicted.slot.way, evicted.slot.way);
                ASSERT_EQ(cache.lookup(line_addr).way, evicted.slot.way);
                if (evicted.valid) {
                    ++evictions;
                    // The victim must be a line the model knows is
                    // resident in this very set, and must not be the
                    // line just inserted.
                    ASSERT_NE(evicted.lineAddr, line_addr);
                    ASSERT_TRUE(model.contains(evicted.lineAddr))
                        << "op " << op;
                    ASSERT_EQ(evicted.lineAddr & (sets - 1),
                              line_addr & (sets - 1));
                    ASSERT_EQ(evicted.line.dirty,
                              dirty.erase(evicted.lineAddr) != 0);
                    model.erase(evicted.lineAddr);
                    ASSERT_EQ(cache.peek(evicted.lineAddr), nullptr);
                }
                model.insert(line_addr);
                ASSERT_NE(cache.peek(line_addr), nullptr);
            }
        } else if (action < 8) {
            // Back-invalidate (present or not — both must work).
            const Cache::Eviction removed =
                cache.invalidate(line_addr);
            twin.invalidate(line_addr);
            ASSERT_EQ(removed.valid, present_model) << "op " << op;
            if (removed.valid) {
                ASSERT_EQ(removed.slot.way, slot.way);
                ASSERT_EQ(removed.line.dirty,
                          dirty.erase(line_addr) != 0);
            }
            model.erase(line_addr);
            ASSERT_EQ(cache.peek(line_addr), nullptr);
        } else if (action < 9) {
            if (present_model) {
                cache.raisePriority(line_addr);
                twin.raisePriority(line_addr);
            }
        } else if (action < 10) {
            // A store hit marks the line dirty by its slot.
            if (present_model) {
                cache.markDirty(slot);
                twin.markDirty(twin.lookup(line_addr));
                dirty.insert(line_addr);
                ASSERT_TRUE(cache.peek(line_addr)->dirty);
            }
        } else {
            cache.noteDemandMiss(line_addr);
            twin.noteDemandMiss(line_addr);
        }
    }

    // The workout must actually have exercised the eviction path and
    // the resident inserts.
    EXPECT_GT(inserts, 50'000u);
    EXPECT_GT(evictions, 10'000u);
    EXPECT_GT(resident_inserts, 5'000u);

    // Final census: every model-resident line is peekable, with the
    // twin's slot and flags, and the cache holds nothing beyond the
    // model.
    std::uint64_t peekable = 0;
    for (unsigned set = 0; set < sets; ++set) {
        for (std::uint64_t alias = 0; alias < aliases; ++alias) {
            const std::uint64_t line_addr = (alias << 20) | set;
            const Cache::Slot slot = cache.lookup(line_addr);
            ASSERT_EQ(static_cast<bool>(slot),
                      model.contains(line_addr))
                << "addr " << line_addr;
            const Cache::Slot twin_slot = twin.lookup(line_addr);
            ASSERT_EQ(twin_slot.way, slot.way) << "addr " << line_addr;
            if (!slot)
                continue;
            ++peekable;
            const CacheLine &line = cache.line(slot);
            const CacheLine &twin_line = twin.line(twin_slot);
            EXPECT_EQ(line.dirty, twin_line.dirty);
            EXPECT_EQ(line.isInstruction, twin_line.isInstruction);
            EXPECT_EQ(line.priority, twin_line.priority);
        }
    }
    EXPECT_EQ(peekable, model.residentLines());
}

TEST(CacheModel, TreePlruMatchesReferenceModel)
{
    stressPolicy("TPLRU", 0x7E57ULL);
}

TEST(CacheModel, EmissaryMatchesReferenceModel)
{
    stressPolicy("P(8):S&E&R(1/32)", 0x7E58ULL);
    stressPolicy("P(8):S&E", 0x7E5BULL, false);
}

TEST(CacheModel, InsertionLruMatchesReferenceModel)
{
    stressPolicy("M:R(1/32)", 0x7E5AULL);
    stressPolicy("LRU", 0x7E5CULL);
}

TEST(CacheModel, RripMatchesReferenceModel)
{
    stressPolicy("DRRIP", 0x7E59ULL);
    stressPolicy("SRRIP", 0x7E5DULL);
    stressPolicy("BRRIP", 0x7E5EULL);
}

TEST(CacheModel, PdpAndDclipMatchReferenceModel)
{
    stressPolicy("PDP", 0x7E5FULL);
    stressPolicy("DCLIP", 0x7E60ULL);
}

/**
 * A Cache is an ordinary value: a copy taken mid-run holds the
 * original's lines and policy state, so the two make the same
 * decisions from then on, and neither sees the other's.
 */
TEST(CacheModel, CopyContinuesLikeItsOriginal)
{
    for (const char *policy : {"TPLRU", "P(8):S&E", "LRU", "DRRIP",
                               "PDP", "DCLIP"}) {
        SCOPED_TRACE(policy);
        Cache::Config config;
        config.sizeBytes = 16 * 1024;  // 16 sets x 16 ways x 64 B.
        config.policy = replacement::PolicySpec::parse(policy);
        Cache cache(config);
        Rng rng(0xC0B1ULL);
        const auto step = [](Cache &array, Rng &draws) {
            const std::uint64_t line = draws.nextBelow(16 * 40);
            replacement::LineInfo info;
            info.isInstruction = draws.oneIn(2);
            info.highPriority = draws.oneIn(4);
            if (array.peek(line)) {
                array.touch(line);
                if (draws.oneIn(8))
                    array.raisePriority(line);
                return std::uint64_t{0};
            }
            array.noteDemandMiss(line);
            const Cache::Eviction out = array.insert(
                line, info, info.isInstruction, false, false, false);
            return out.valid ? out.lineAddr + 1 : 0;
        };
        for (int op = 0; op < 5'000; ++op)
            step(cache, rng);

        Cache copy = cache;
        Rng copy_rng = rng;
        for (int op = 0; op < 20'000; ++op)
            ASSERT_EQ(step(copy, copy_rng), step(cache, rng))
                << "op " << op;
        EXPECT_EQ(copy.highPriorityLineCount(),
                  cache.highPriorityLineCount());

        // A later change to the original leaves the copy alone.
        cache.resetPriorities();
        EXPECT_EQ(cache.highPriorityLineCount(), 0u);
        EXPECT_GT(copy.highPriorityLineCount(), 0u);
    }
}

/**
 * The vectorized tag compares (findWayVector, and findWayOrFree's
 * match-or-free pass) must agree with the portable scalar
 * reference on every lane shape the cache can produce: all
 * associativities 1..24 (covering remainders around the 2/4-lane
 * vector widths), hit at every way position, miss, and unaligned
 * lane bases. Runs under ASan in CI, which additionally proves the
 * vector loads never read past the lane.
 */
TEST(CacheModel, VectorFindWayMatchesScalar)
{
    constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
    Rng rng(0x51D0ULL);

    // Backing store larger than any lane so the test can probe
    // unaligned starting offsets within it.
    std::vector<std::uint64_t> store(64 + 3);

    for (unsigned ways = 1; ways <= 24; ++ways) {
        for (unsigned offset = 0; offset < 3; ++offset) {
            std::uint64_t *tags = store.data() + offset;

            // Deterministic sweep: hit at each way, with the other
            // ways a mix of distinct tags and invalid markers.
            for (unsigned hit = 0; hit < ways; ++hit) {
                for (unsigned w = 0; w < ways; ++w)
                    tags[w] = (w % 3 == 0) ? kInvalid
                                           : (0x1000ULL + w);
                const std::uint64_t probe = 0x9999ULL;
                tags[hit] = probe;
                ASSERT_EQ(Cache::findWayVector(tags, ways, probe),
                          Cache::findWayScalar(tags, ways, probe))
                    << "ways " << ways << " hit " << hit;
                ASSERT_EQ(Cache::findWayScalar(tags, ways, probe),
                          static_cast<int>(hit));
                // And a guaranteed miss on the same lane.
                ASSERT_EQ(
                    Cache::findWayVector(tags, ways, 0x8888ULL),
                    Cache::findWayScalar(tags, ways, 0x8888ULL));
                ASSERT_EQ(
                    Cache::findWayScalar(tags, ways, 0x8888ULL), -1);
            }

            // Randomized lanes, including duplicate tags: both
            // implementations must return the same (first) match.
            for (int trial = 0; trial < 2'000; ++trial) {
                for (unsigned w = 0; w < ways; ++w)
                    tags[w] = rng.nextBelow(8) == 0
                                  ? kInvalid
                                  : rng.nextBelow(ways + 4);
                const std::uint64_t probe = rng.nextBelow(ways + 4);
                const int expected =
                    Cache::findWayScalar(tags, ways, probe);
                ASSERT_EQ(Cache::findWayVector(tags, ways, probe),
                          expected)
                    << "ways " << ways << " trial " << trial;
                // insert()'s pass: the match, else the first free way.
                int free = -2;
                ASSERT_EQ(Cache::findWayOrFree(tags, ways, probe, free),
                          expected);
                if (expected < 0) {
                    ASSERT_EQ(free,
                              Cache::findWayScalar(tags, ways, kInvalid))
                        << "ways " << ways << " trial " << trial;
                }
            }
        }
    }
}

} // namespace
} // namespace emissary::cache
