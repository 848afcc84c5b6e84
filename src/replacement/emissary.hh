/**
 * @file
 * The EMISSARY P(N) replacement policy (paper §4.2, Algorithm 1).
 *
 * Each line carries a sticky priority bit P. On eviction:
 *
 *   if (number of P=1 lines in the set <= N)
 *       evict the LRU among the P=0 lines
 *   else
 *       evict the LRU among the P=1 lines
 *
 * so up to N MRU high-priority lines per set are protected from
 * eviction by low-priority insertions, for their entire lifetime in
 * the cache — the paper's "persistent bimodality". The LRU ordering
 * inside each priority class comes either from true LRU stamps (used
 * by the §2 overview experiments) or from two Tree-PLRU trees per
 * set, one per priority class (used by the paper's evaluation).
 *
 * N enters the policy in exactly two comparisons: an upgrade is
 * refused when the set already protects count >= N lines, and the
 * victim comes from the high class when the set holds h > N
 * high-priority lines (or h == ways). The policy records every count
 * it compares, so after a run sameRunRange() names the N values for
 * which each comparison — and therefore the whole run, with the same
 * lines, counters and RNG draws — comes out identically. The grid
 * engine simulates one P(N) per range and shares its result with
 * every other N inside it (docs/performance.md, N-equivalence
 * sharing).
 */

#ifndef EMISSARY_REPLACEMENT_EMISSARY_HH
#define EMISSARY_REPLACEMENT_EMISSARY_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "replacement/policy.hh"
#include "replacement/tplru.hh"

namespace emissary::replacement
{

/** A closed interval [lo, hi] of P(N)'s N. */
struct ProtectRange
{
    /** hi of a range with no upper limit. */
    static constexpr unsigned kUnbounded =
        std::numeric_limits<unsigned>::max();

    unsigned lo = 0;
    unsigned hi = kUnbounded;

    bool contains(unsigned n) const { return lo <= n && n <= hi; }
};

/** EMISSARY bimodal treatment P(N). */
class EmissaryPolicy
{
  public:
    /**
     * @param num_sets Number of sets.
     * @param num_ways Associativity.
     * @param max_protected The N of P(N): protect up to N MRU
     *        high-priority lines per set.
     * @param tree_plru Use the dual-tree TPLRU implementation (the
     *        evaluation configuration); false selects true LRU.
     * @param label Report name (e.g. "P(8):S&E&R(1/32)").
     */
    EmissaryPolicy(unsigned num_sets, unsigned num_ways,
                   unsigned max_protected, bool tree_plru,
                   std::string label);

    std::string name() const { return label_; }
    unsigned selectVictim(unsigned set);
    void onInsert(unsigned set, unsigned way, const LineInfo &info);
    void onHit(unsigned set, unsigned way, const LineInfo &info);
    void onInvalidate(unsigned set, unsigned way);

    /**
     * Update the sticky priority bit of a resident line (e.g. when an
     * L1I eviction communicates starvation history to the L2 copy,
     * §3).
     *
     * @return True when the update was accepted. Upgrades are refused
     *         once a set already protects its full quota of N lines —
     *         consistent with the paper's Fig. 8, whose per-set
     *         occupancy never exceeds N.
     */
    bool setPriority(unsigned set, unsigned way, bool high);

    /** Current number of high-priority lines in @p set. */
    unsigned protectedCount(unsigned set) const;

    /** Clear every priority bit (§6 reset mechanism). */
    void resetPriorities();

    /** The N parameter of P(N). */
    unsigned maxProtected() const { return maxProtected_; }

    /**
     * The N values for which every N comparison made so far (warm-up
     * and §6 resets included) decides as it did under this policy's
     * own N. A P(n) with n inside the range, fed the same access
     * stream, makes exactly the same decisions. [0, kUnbounded] when
     * no comparison was made; just {N} for caches of 64 ways or
     * more, whose counts the 64-bit records cannot hold.
     */
    ProtectRange sameRunRange() const;

    /** Priority bit of a resident line (testing/inspection). */
    bool linePriority(unsigned set, unsigned way) const;

    /**
     * Per-set P=1 line counts, maintained incrementally on
     * insert/invalidate/upgrade. The interval sampler's Fig. 8
     * occupancy probe reads this directly (O(sets)) instead of
     * scanning every line in the array.
     */
    const std::vector<std::uint16_t> &
    protectedCounts() const
    {
        return highCount_;
    }

  private:
    std::uint8_t &prio(unsigned set, unsigned way);
    unsigned victimTrueLru(unsigned set, bool among_high) const;
    unsigned victimTree(unsigned set, bool among_high);

    std::string label_;
    unsigned ways_;
    unsigned maxProtected_;
    bool treePlru_;

    /** Bit c set: an upgrade compared a set's count c against N. */
    std::uint64_t upgradeCounts_ = 0;
    /** Bit h set: a victim choice compared h against N. */
    std::uint64_t victimCounts_ = 0;

    /** Per-line priority bits (policy-side copy, kept in sync with
     *  the cache's line state via onInsert/setPriority). */
    std::vector<std::uint8_t> priority_;
    /** Cached count of P=1 lines per set. */
    std::vector<std::uint16_t> highCount_;

    // True-LRU implementation state.
    std::vector<std::int64_t> stamps_;
    std::int64_t clock_ = 0;

    // Dual-tree TPLRU implementation state (one pair per set).
    std::vector<PlruTree> lowTrees_;
    std::vector<PlruTree> highTrees_;
};

} // namespace emissary::replacement

#endif // EMISSARY_REPLACEMENT_EMISSARY_HH
