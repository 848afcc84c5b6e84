/**
 * @file
 * Tests for the Tree-PLRU building block and policy.
 */

#include <gtest/gtest.h>

#include <set>

#include "replacement/tplru.hh"

namespace emissary::replacement
{
namespace
{

TEST(PlruTree, RejectsBadWays)
{
    EXPECT_THROW(PlruTree(3), std::invalid_argument);
    EXPECT_THROW(PlruTree(0), std::invalid_argument);
    EXPECT_THROW(PlruTree(1), std::invalid_argument);
    // A power of two past the inline word's 63 node bits.
    EXPECT_THROW(PlruTree(2 * PlruTree::kMaxWays), std::invalid_argument);
}

TEST(PlruTree, TouchedWayIsNotVictim)
{
    PlruTree tree(8);
    for (unsigned w = 0; w < 8; ++w) {
        tree.touch(w);
        EXPECT_NE(tree.victim(), w);
    }
}

TEST(PlruTree, RoundRobinSweepTouchesAll)
{
    // Touching ways in victim order cycles through every way: no way
    // is starved by the tree approximation.
    PlruTree tree(16);
    std::set<unsigned> seen;
    for (int i = 0; i < 16; ++i) {
        const unsigned v = tree.victim();
        seen.insert(v);
        tree.touch(v);
    }
    EXPECT_EQ(seen.size(), 16u);
}

TEST(PlruTree, VictimAmongRespectsEligibility)
{
    PlruTree tree(8);
    for (unsigned w = 0; w < 8; ++w)
        tree.touch(w);
    // Only odd ways eligible.
    const unsigned v =
        tree.victimAmong([](unsigned w) { return w % 2 == 1; });
    EXPECT_EQ(v % 2, 1u);

    // Single eligible way is always chosen, wherever the bits point.
    for (unsigned only = 0; only < 8; ++only) {
        const unsigned chosen = tree.victimAmong(
            [only](unsigned w) { return w == only; });
        EXPECT_EQ(chosen, only);
    }
}

TEST(PlruTree, VictimAmongMatchesVictimWhenAllEligible)
{
    PlruTree tree(16);
    tree.touch(3);
    tree.touch(9);
    tree.touch(14);
    EXPECT_EQ(tree.victimAmong([](unsigned) { return true; }),
              tree.victim());
}

TEST(TreePlru, BehavesLikeLruOnSequentialFill)
{
    TreePlru plru(1, 8);
    LineInfo li;
    for (unsigned w = 0; w < 8; ++w)
        plru.onInsert(0, w, li);
    // After inserting 0..7 in order, way 0 is the pseudo-LRU victim.
    EXPECT_EQ(plru.selectVictim(0), 0u);
}

TEST(TreePlru, HitProtects)
{
    TreePlru plru(1, 8);
    LineInfo li;
    for (unsigned w = 0; w < 8; ++w)
        plru.onInsert(0, w, li);
    plru.onHit(0, 0, li);
    EXPECT_NE(plru.selectVictim(0), 0u);
}

TEST(TreePlru, Name)
{
    TreePlru plru(4, 4);
    EXPECT_EQ(plru.name(), "TPLRU");
}

} // namespace
} // namespace emissary::replacement
