/**
 * @file
 * True-LRU based policies: classic LRU and the bimodal insertion
 * family M:<sel> covering LRU (M:1), LIP (M:0), BIP (M:R(1/32)) and
 * the starvation-aware insertion variants M:S&E, M:S&E&R(r) from the
 * paper (§4.2, treatment option M).
 */

#ifndef EMISSARY_REPLACEMENT_LRU_HH
#define EMISSARY_REPLACEMENT_LRU_HH

#include <cstdint>
#include <string>
#include <vector>

#include "replacement/policy.hh"

namespace emissary::replacement
{

/**
 * Bimodal-insertion true LRU.
 *
 * Hits always promote to MRU. Insertions go to MRU when the line was
 * selected high-priority (LineInfo::highPriority) and to LRU
 * otherwise; with the Always selector this is classic LRU, with the
 * Never selector it is LIP, with R(1/32) it is BIP [49].
 */
class InsertionLru
{
  public:
    /**
     * @param num_sets Number of sets.
     * @param num_ways Associativity.
     * @param label Report name (e.g. "M:R(1/32)").
     */
    InsertionLru(unsigned num_sets, unsigned num_ways,
                 std::string label = "M:1");

    std::string name() const { return label_; }
    unsigned selectVictim(unsigned set);
    void onInsert(unsigned set, unsigned way, const LineInfo &info);
    void onHit(unsigned set, unsigned way, const LineInfo &info);
    void onInvalidate(unsigned set, unsigned way);

    /** Recency rank of a way: 0 = LRU ... ways-1 = MRU (testing). */
    unsigned recencyRank(unsigned set, unsigned way) const;

  private:
    std::int64_t &stamp(unsigned set, unsigned way);
    const std::int64_t &stamp(unsigned set, unsigned way) const;

    std::string label_;
    unsigned ways_;
    std::vector<std::int64_t> stamps_;
    std::int64_t clock_ = 0;
};

} // namespace emissary::replacement

#endif // EMISSARY_REPLACEMENT_LRU_HH
