/**
 * @file
 * Static Protecting-Distance Policy (PDP) [20], a Fig. 7 comparator.
 *
 * Each line is protected for PD set-accesses after its last touch: a
 * per-line saturating counter is set to PD on insert and on hit and
 * decremented on every access to the set. Victims are chosen among
 * unprotected lines (counter == 0); when every line is protected the
 * line closest to expiry is evicted (the cache is inclusive, so the
 * original policy's bypass option is not available).
 */

#ifndef EMISSARY_REPLACEMENT_PDP_HH
#define EMISSARY_REPLACEMENT_PDP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "replacement/policy.hh"

namespace emissary::replacement
{

/** Static protecting-distance replacement. */
class PdpPolicy
{
  public:
    /**
     * @param num_sets Number of sets.
     * @param num_ways Associativity.
     * @param protecting_distance PD in set-accesses; the paper's
     *        static variant uses a fixed distance (default 64, i.e.
     *        4x the associativity of the evaluated L2).
     */
    PdpPolicy(unsigned num_sets, unsigned num_ways,
              unsigned protecting_distance = 64);

    std::string name() const { return "PDP"; }
    unsigned selectVictim(unsigned set);
    void onInsert(unsigned set, unsigned way, const LineInfo &info);
    void onHit(unsigned set, unsigned way, const LineInfo &info);
    void onInvalidate(unsigned set, unsigned way);

    /** Remaining protecting distance of a line, for tests. */
    unsigned remaining(unsigned set, unsigned way) const;

  private:
    void ageSet(unsigned set);
    std::uint16_t &rpd(unsigned set, unsigned way);

    unsigned ways_;
    unsigned distance_;
    std::vector<std::uint16_t> rpd_;
};

} // namespace emissary::replacement

#endif // EMISSARY_REPLACEMENT_PDP_HH
