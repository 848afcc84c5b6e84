/**
 * @file
 * Tests for the EMISSARY P(N) replacement policy: Algorithm 1
 * semantics, priority persistence, the dual-tree TPLRU variant, the
 * §6 reset, and a randomized property test of the protection
 * invariants for both LRU bases. The N-equivalence range
 * (sameRunRange) is pinned case by case, against random event
 * streams, and end to end: whenever one suite run's range contains
 * another N, that N's run must reproduce its Metrics and registry.
 */

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/observability.hh"
#include "core/threadpool.hh"
#include "replacement/emissary.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "util/rng.hh"

namespace emissary::replacement
{
namespace
{

LineInfo
info(bool high)
{
    LineInfo li;
    li.isInstruction = true;
    li.highPriority = high;
    return li;
}

class EmissaryBase : public ::testing::TestWithParam<bool>
{
  protected:
    EmissaryPolicy
    make(unsigned sets, unsigned ways, unsigned n)
    {
        return EmissaryPolicy(sets, ways, n, GetParam(), "P(N):test");
    }
};

TEST_P(EmissaryBase, VictimComesFromLowClassWhenUnderLimit)
{
    auto policy = make(1, 8, 4);
    // Ways 0..2 high-priority, 3..7 low.
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(w < 3));
    EXPECT_EQ(policy.protectedCount(0), 3u);
    for (int i = 0; i < 20; ++i) {
        const unsigned v = policy.selectVictim(0);
        EXPECT_GE(v, 3u) << "protected line chosen as victim";
        // Simulate replacement with a low-priority line.
        policy.onInvalidate(0, v);
        policy.onInsert(0, v, info(false));
    }
    EXPECT_EQ(policy.protectedCount(0), 3u);
}

TEST_P(EmissaryBase, VictimComesFromHighClassWhenOverLimit)
{
    auto policy = make(1, 8, 4);
    // Oversubscription can only arise via high-priority insertions
    // (e.g. the L1I-EMISSARY ablation); upgrades are quota-capped.
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(w < 5));
    EXPECT_EQ(policy.protectedCount(0), 5u);
    const unsigned v = policy.selectVictim(0);
    EXPECT_LT(v, 5u)
        << "victim must be one of the high-priority lines";
    policy.onInvalidate(0, v);
    EXPECT_EQ(policy.protectedCount(0), 4u);
}

TEST_P(EmissaryBase, UpgradesRefusedAtQuota)
{
    // Fig. 8's per-set occupancy never exceeds N: once a set protects
    // N lines, further upgrade communications are dropped.
    auto policy = make(1, 8, 2);
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(false));
    EXPECT_TRUE(policy.setPriority(0, 0, true));
    EXPECT_TRUE(policy.setPriority(0, 1, true));
    EXPECT_FALSE(policy.setPriority(0, 2, true));
    EXPECT_EQ(policy.protectedCount(0), 2u);
    EXPECT_FALSE(policy.linePriority(0, 2));
    // Re-raising an already-protected line still succeeds.
    EXPECT_TRUE(policy.setPriority(0, 0, true));
}

TEST_P(EmissaryBase, LruOrderWithinLowClass)
{
    auto policy = make(1, 8, 8);
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(false));
    // Touch everything except way 2.
    for (unsigned w = 0; w < 8; ++w)
        if (w != 2)
            policy.onHit(0, w, info(false));
    if (GetParam()) {
        // Tree PLRU approximates: the guarantee is only that the most
        // recently touched way is never the victim.
        EXPECT_NE(policy.selectVictim(0), 7u);
    } else {
        // True LRU is exact: way 2 is least recently used.
        EXPECT_EQ(policy.selectVictim(0), 2u);
    }
}

TEST_P(EmissaryBase, PriorityIsSticky)
{
    auto policy = make(1, 4, 2);
    policy.onInsert(0, 0, info(true));
    policy.onInsert(0, 1, info(false));
    // setPriority(false) must not demote: priority persists for the
    // line's lifetime (§2).
    policy.setPriority(0, 0, false);
    EXPECT_TRUE(policy.linePriority(0, 0));
    EXPECT_EQ(policy.protectedCount(0), 1u);
    // Upgrades work and are idempotent.
    policy.setPriority(0, 1, true);
    policy.setPriority(0, 1, true);
    EXPECT_EQ(policy.protectedCount(0), 2u);
}

TEST_P(EmissaryBase, InvalidateClearsPriority)
{
    auto policy = make(1, 4, 2);
    policy.onInsert(0, 0, info(true));
    EXPECT_EQ(policy.protectedCount(0), 1u);
    policy.onInvalidate(0, 0);
    EXPECT_EQ(policy.protectedCount(0), 0u);
    EXPECT_FALSE(policy.linePriority(0, 0));
}

TEST_P(EmissaryBase, ResetClearsEverything)
{
    auto policy = make(2, 4, 2);
    policy.onInsert(0, 0, info(true));
    policy.onInsert(1, 3, info(true));
    policy.resetPriorities();
    EXPECT_EQ(policy.protectedCount(0), 0u);
    EXPECT_EQ(policy.protectedCount(1), 0u);
    EXPECT_FALSE(policy.linePriority(1, 3));
}

TEST_P(EmissaryBase, AllHighDegenerateGuard)
{
    // N >= ways: every line can be high-priority; the victim must
    // still be valid.
    auto policy = make(1, 4, 8);
    for (unsigned w = 0; w < 4; ++w)
        policy.onInsert(0, w, info(true));
    const unsigned v = policy.selectVictim(0);
    EXPECT_LT(v, 4u);
}

/**
 * Randomized protection invariant: run a random stream of insert /
 * hit / upgrade events through the policy and verify after every
 * eviction that (a) a low-priority victim is chosen whenever the
 * high-priority population is within N, and (b) protectedCount never
 * decreases except via over-limit eviction or reset.
 */
TEST_P(EmissaryBase, RandomizedProtectionInvariant)
{
    constexpr unsigned kWays = 16;
    constexpr unsigned kN = 8;
    auto policy = make(4, kWays, kN);
    Rng rng(2024);

    std::vector<std::vector<bool>> valid(4,
                                         std::vector<bool>(kWays, false));
    for (unsigned set = 0; set < 4; ++set)
        for (unsigned w = 0; w < kWays; ++w) {
            policy.onInsert(set, w, info(rng.oneIn(4)));
            valid[set][w] = true;
        }

    for (int step = 0; step < 20000; ++step) {
        const unsigned set = static_cast<unsigned>(rng.nextBelow(4));
        const unsigned before = policy.protectedCount(set);
        const auto action = rng.nextBelow(10);
        if (action < 5) {
            // Replacement: evict + insert.
            const unsigned v = policy.selectVictim(set);
            ASSERT_LT(v, kWays);
            const bool victim_high = policy.linePriority(set, v);
            if (before <= kN) {
                // Algorithm 1 line 2: low-priority victim unless the
                // set is entirely high-priority.
                bool any_low = false;
                for (unsigned w = 0; w < kWays; ++w)
                    if (!policy.linePriority(set, w))
                        any_low = true;
                if (any_low) {
                    EXPECT_FALSE(victim_high) << "step " << step;
                }
            } else {
                EXPECT_TRUE(victim_high) << "step " << step;
            }
            policy.onInvalidate(set, v);
            const bool high = rng.oneIn(8);
            policy.onInsert(set, v, info(high));
            const unsigned after = policy.protectedCount(set);
            const unsigned expected = before - (victim_high ? 1 : 0) +
                                      (high ? 1 : 0);
            EXPECT_EQ(after, expected);
        } else if (action < 8) {
            const unsigned w =
                static_cast<unsigned>(rng.nextBelow(kWays));
            policy.onHit(set, w, info(policy.linePriority(set, w)));
            EXPECT_EQ(policy.protectedCount(set), before);
        } else {
            const unsigned w =
                static_cast<unsigned>(rng.nextBelow(kWays));
            const bool was = policy.linePriority(set, w);
            const bool accepted = policy.setPriority(set, w, true);
            if (was) {
                EXPECT_TRUE(accepted);
                EXPECT_EQ(policy.protectedCount(set), before);
            } else if (before >= kN) {
                EXPECT_FALSE(accepted) << "upgrade past quota";
                EXPECT_EQ(policy.protectedCount(set), before);
            } else {
                EXPECT_TRUE(accepted);
                EXPECT_EQ(policy.protectedCount(set), before + 1);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    TrueLruAndTreePlru, EmissaryBase, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool> &info_param) {
        return info_param.param ? "TreePlru" : "TrueLru";
    });

TEST(EmissaryTreePlru, HitUpdatesOnlyOwnClassTree)
{
    // §4.2: a hit on a high-priority line must not disturb the
    // low-priority recency order. With true LRU this is not the case
    // (one global order), so this test pins the dual-tree behaviour.
    EmissaryPolicy policy(1, 8, 4, /*tree_plru=*/true, "P(4):S");
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(w >= 6));  // 6,7 high; 0..5 low.

    const unsigned low_victim_before = policy.selectVictim(0);
    ASSERT_LT(low_victim_before, 6u);
    // Hammer the high-priority lines; the low victim is unchanged.
    for (int i = 0; i < 10; ++i) {
        policy.onHit(0, 6, info(true));
        policy.onHit(0, 7, info(true));
    }
    EXPECT_EQ(policy.selectVictim(0), low_victim_before);
}

// ---------------------------------------------------------------
// sameRunRange: the N values whose run takes this run's path.
// ---------------------------------------------------------------

constexpr unsigned kUnbounded = ProtectRange::kUnbounded;

TEST_P(EmissaryBase, NoComparisonMeansEveryN)
{
    auto policy = make(2, 8, 4);
    // Fills, hits and invalidations never look at N.
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(w < 2));
    policy.onHit(0, 1, info(true));
    policy.onInvalidate(0, 0);
    // Re-raising a high line and lowering requests compare nothing.
    EXPECT_TRUE(policy.setPriority(0, 1, true));
    EXPECT_TRUE(policy.setPriority(0, 3, false));
    const ProtectRange range = policy.sameRunRange();
    EXPECT_EQ(range.lo, 0u);
    EXPECT_EQ(range.hi, kUnbounded);
}

TEST_P(EmissaryBase, UpgradeBoundsTheRangeAtItsCount)
{
    // Accepted upgrades at counts 0 and 1 (count < N): any n > 1
    // accepts them too.
    auto policy = make(1, 8, 4);
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(false));
    ASSERT_TRUE(policy.setPriority(0, 0, true));
    ASSERT_TRUE(policy.setPriority(0, 1, true));
    EXPECT_EQ(policy.sameRunRange().lo, 2u);
    EXPECT_EQ(policy.sameRunRange().hi, kUnbounded);

    // A refused upgrade at count 2 (count >= N): only n <= 2 refuses.
    auto tight = make(1, 8, 2);
    for (unsigned w = 0; w < 8; ++w)
        tight.onInsert(0, w, info(false));
    ASSERT_TRUE(tight.setPriority(0, 0, true));
    ASSERT_TRUE(tight.setPriority(0, 1, true));
    ASSERT_FALSE(tight.setPriority(0, 2, true));
    EXPECT_EQ(tight.sameRunRange().lo, 2u);
    EXPECT_EQ(tight.sameRunRange().hi, 2u);
}

TEST_P(EmissaryBase, VictimChoiceBoundsTheRangeAtItsCount)
{
    // h = 3 <= N: low class, as for every n >= 3.
    auto under = make(1, 8, 4);
    for (unsigned w = 0; w < 8; ++w)
        under.onInsert(0, w, info(w < 3));
    under.selectVictim(0);
    EXPECT_EQ(under.sameRunRange().lo, 3u);
    EXPECT_EQ(under.sameRunRange().hi, kUnbounded);

    // h = 5 > N: high class, as for every n <= 4.
    auto over = make(1, 8, 4);
    for (unsigned w = 0; w < 8; ++w)
        over.onInsert(0, w, info(w < 5));
    over.selectVictim(0);
    EXPECT_EQ(over.sameRunRange().lo, 0u);
    EXPECT_EQ(over.sameRunRange().hi, 4u);
}

TEST_P(EmissaryBase, AllHighGuardDoesNotBoundTheRange)
{
    // h == ways takes the high class whatever N is.
    auto policy = make(1, 4, 2);
    for (unsigned w = 0; w < 4; ++w)
        policy.onInsert(0, w, info(true));
    policy.selectVictim(0);
    EXPECT_EQ(policy.sameRunRange().lo, 0u);
    EXPECT_EQ(policy.sameRunRange().hi, kUnbounded);
}

TEST_P(EmissaryBase, ZeroProtectsNothing)
{
    // P(0) refuses every upgrade: only n = 0 refuses one at count 0.
    auto policy = make(1, 8, 0);
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(false));
    policy.selectVictim(0); // h = 0: low class for every n.
    EXPECT_EQ(policy.sameRunRange().lo, 0u);
    EXPECT_EQ(policy.sameRunRange().hi, kUnbounded);
    EXPECT_FALSE(policy.setPriority(0, 0, true));
    EXPECT_EQ(policy.sameRunRange().lo, 0u);
    EXPECT_EQ(policy.sameRunRange().hi, 0u);
}

TEST_P(EmissaryBase, NAtOrAboveWaysSharesWithEveryLargerN)
{
    // With N >= ways an upgrade is never refused and the high class
    // is only taken through the guard: every n >= 4 behaves alike.
    auto policy = make(1, 4, 8);
    for (unsigned w = 0; w < 4; ++w)
        policy.onInsert(0, w, info(false));
    for (unsigned w = 0; w < 4; ++w)
        ASSERT_TRUE(policy.setPriority(0, w, true));
    policy.selectVictim(0);
    EXPECT_EQ(policy.sameRunRange().lo, 4u);
    EXPECT_EQ(policy.sameRunRange().hi, kUnbounded);
}

TEST_P(EmissaryBase, ResetKeepsTheRecord)
{
    auto policy = make(1, 8, 4);
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(w < 6));
    policy.selectVictim(0); // h = 6 > 4.
    policy.resetPriorities();
    EXPECT_EQ(policy.sameRunRange().hi, 5u);
}

TEST(EmissaryPolicy, WideCachesReportOnlyTheirOwnN)
{
    EmissaryPolicy policy(1, 64, 8, true, "P(8):S");
    const ProtectRange range = policy.sameRunRange();
    EXPECT_EQ(range.lo, 8u);
    EXPECT_EQ(range.hi, 8u);
}

/**
 * The rule against the policy itself: drive one random event stream
 * through P(n) for every n in 0..ways+2 and check that whenever
 * P(a)'s range contains b, P(b) made every decision P(a) made.
 */
TEST_P(EmissaryBase, RangeMembersDecideIdentically)
{
    constexpr unsigned kWays = 8;
    constexpr unsigned kSets = 4;
    constexpr unsigned kMaxN = kWays + 2;
    std::vector<std::vector<unsigned>> decisions(kMaxN + 1);
    std::vector<ProtectRange> ranges;
    for (unsigned n = 0; n <= kMaxN; ++n) {
        auto policy = make(kSets, kWays, n);
        Rng rng(99);
        for (unsigned set = 0; set < kSets; ++set)
            for (unsigned w = 0; w < kWays; ++w)
                policy.onInsert(set, w, info(false));
        for (int step = 0; step < 4000; ++step) {
            const unsigned set =
                static_cast<unsigned>(rng.nextBelow(kSets));
            const unsigned w =
                static_cast<unsigned>(rng.nextBelow(kWays));
            const auto action = rng.nextBelow(10);
            if (action < 4) {
                const unsigned v = policy.selectVictim(set);
                decisions[n].push_back(v);
                policy.onInvalidate(set, v);
                policy.onInsert(set, v, info(rng.oneIn(16)));
            } else if (action < 7) {
                policy.onHit(set, w, info(policy.linePriority(set, w)));
            } else {
                decisions[n].push_back(
                    policy.setPriority(set, w, true) ? 1000u : 1001u);
            }
        }
        ranges.push_back(policy.sameRunRange());
    }
    unsigned shared = 0;
    for (unsigned a = 0; a <= kMaxN; ++a) {
        EXPECT_TRUE(ranges[a].contains(a));
        for (unsigned b = 0; b <= kMaxN; ++b) {
            if (!ranges[a].contains(b))
                continue;
            shared += a != b;
            EXPECT_EQ(decisions[a], decisions[b])
                << "P(" << a << ") range holds " << b;
        }
    }
    EXPECT_GT(shared, 0u) << "stream too short to exercise sharing";
}

/**
 * End to end on suite rows: for each row and selection, run P(N)
 * for every N of the list; whenever P(a)'s reported range contains
 * b, P(b)'s Metrics (policy name aside) and its full counter
 * registry must equal P(a)'s.
 */
TEST(EmissarySameRun, SuiteRunsInsideARangeAreIdentical)
{
    core::RunOptions options;
    options.warmupInstructions = 50'000;
    options.measureInstructions = 150'000;
    const std::vector<unsigned> ns = {0, 1, 2, 3, 6, 10, 14, 15, 16, 20};
    const std::vector<std::string> selections = {"S&E", "S&E&R(1/32)",
                                                 "S"};
    struct Run
    {
        std::string metrics;
        std::string registry;
        ProtectRange range;
    };
    const auto tplru = PolicySpec::parse("TPLRU");
    core::ThreadPool pool(4);
    unsigned shared_pairs = 0;
    unsigned distinct_pairs = 0;
    for (const char *row : {"tomcat", "kafka", "verilator"}) {
        const trace::SyntheticProgram program(
            trace::profileByName(row));
        for (const std::string &selection : selections) {
            std::vector<std::future<Run>> futures;
            for (const unsigned n : ns) {
                futures.push_back(pool.submit([&, n]() {
                    const PolicySpec spec = PolicySpec::parse(
                        "P(" + std::to_string(n) + "):" + selection);
                    core::RunTelemetry telemetry;
                    core::Metrics metrics =
                        core::run(program, spec, tplru, options, nullptr,
                                  nullptr, &telemetry);
                    EXPECT_EQ(metrics.policy, spec.toString());
                    metrics.policy.clear();
                    return Run{metrics.toJson().dump(0),
                               core::registryJson(
                                   telemetry.registry)
                                   .dump(0),
                               telemetry.l2SameRunRange};
                }));
            }
            std::vector<Run> runs;
            for (auto &future : futures)
                runs.push_back(future.get());
            for (std::size_t a = 0; a < ns.size(); ++a) {
                EXPECT_TRUE(runs[a].range.contains(ns[a]));
                for (std::size_t b = 0; b < ns.size(); ++b) {
                    if (a == b)
                        continue;
                    if (!runs[a].range.contains(ns[b])) {
                        distinct_pairs += runs[a].metrics !=
                                          runs[b].metrics;
                        continue;
                    }
                    ++shared_pairs;
                    EXPECT_EQ(runs[a].metrics, runs[b].metrics)
                        << row << " P(" << ns[a] << ") vs P(" << ns[b]
                        << "):" << selection;
                    EXPECT_EQ(runs[a].registry, runs[b].registry)
                        << row << " P(" << ns[a] << ") vs P(" << ns[b]
                        << "):" << selection;
                }
            }
        }
    }
    // Both outcomes must occur, or the test proves nothing.
    EXPECT_GT(shared_pairs, 0u);
    EXPECT_GT(distinct_pairs, 0u);
}

TEST(EmissaryPolicy, MaxProtectedAccessor)
{
    EmissaryPolicy policy(2, 16, 8, true, "P(8):S&E");
    EXPECT_EQ(policy.maxProtected(), 8u);
    EXPECT_EQ(policy.name(), "P(8):S&E");
}

} // namespace
} // namespace emissary::replacement
