/**
 * @file
 * Tree pseudo-LRU (TPLRU), the baseline policy of the paper's
 * evaluation (Table 4) and the building block of the PLRU-based
 * EMISSARY implementation (§4.2). A tree of ways-1 bits per set
 * records, at each internal node, which half was touched less
 * recently.
 */

#ifndef EMISSARY_REPLACEMENT_TPLRU_HH
#define EMISSARY_REPLACEMENT_TPLRU_HH

#include <cstdint>
#include <vector>

#include "replacement/policy.hh"

namespace emissary::replacement
{

/**
 * A standalone TPLRU tree over @p ways leaves (ways must be a power
 * of two from 2 to kMaxWays). Its ways-1 node bits live inline in one
 * word, so a policy's per-set trees form one flat array. Exposed
 * separately so EMISSARY can keep one tree per priority class per
 * set.
 */
class PlruTree
{
  public:
    /** The widest tree whose node bits fit the word. */
    static constexpr unsigned kMaxWays = 64;

    explicit PlruTree(unsigned ways);

    /** Point every node on the path to @p way away from it. */
    void touch(unsigned way);

    /** Follow the tree to the pseudo-LRU leaf. */
    unsigned victim() const;

    /**
     * Follow the tree to the pseudo-LRU leaf among the ways for which
     * @p eligible returns true, skipping ineligible subtrees (the
     * "skipping any lines that do not match the priority criteria"
     * rule of §4.2). At least one way must be eligible.
     */
    template <typename Pred>
    unsigned
    victimAmong(Pred eligible) const
    {
        unsigned node = 0;
        unsigned lo = 0;
        unsigned hi = ways_;
        while (hi - lo > 1) {
            const unsigned mid = lo + (hi - lo) / 2;
            bool go_right = bit(node);
            const bool left_ok = anyEligible(lo, mid, eligible);
            const bool right_ok = anyEligible(mid, hi, eligible);
            if (go_right && !right_ok)
                go_right = false;
            else if (!go_right && !left_ok)
                go_right = true;
            if (go_right) {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        return lo;
    }

    unsigned ways() const { return ways_; }

  private:
    bool bit(unsigned node) const { return (bits_ >> node) & 1; }

    template <typename Pred>
    bool
    anyEligible(unsigned lo, unsigned hi, Pred &eligible) const
    {
        for (unsigned w = lo; w < hi; ++w)
            if (eligible(w))
                return true;
        return false;
    }

    /** Node n (heap order: children 2n+1, 2n+2) is bit n; a set bit
     *  points the node's victim search right. */
    std::uint64_t bits_ = 0;
    unsigned ways_;
};

/** Plain TPLRU replacement policy (the TPLRU + FDIP baseline).
 *  Sealed: Cache devirtualizes its per-access notifications. */
class TreePlru final : public ReplacementPolicy
{
  public:
    TreePlru(unsigned num_sets, unsigned num_ways,
             std::string label = "TPLRU");

    std::string name() const override { return label_; }
    unsigned selectVictim(unsigned set) override;
    void onInsert(unsigned set, unsigned way,
                  const LineInfo &info) override;
    void onHit(unsigned set, unsigned way, const LineInfo &info) override;
    void onInvalidate(unsigned set, unsigned way) override;

  private:
    std::string label_;
    std::vector<PlruTree> trees_;
};

} // namespace emissary::replacement

#endif // EMISSARY_REPLACEMENT_TPLRU_HH
