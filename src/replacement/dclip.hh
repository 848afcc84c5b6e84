/**
 * @file
 * DCLIP — Dynamic Code Line Preservation [28], a Fig. 7 comparator.
 *
 * CLIP prioritizes instruction lines in a shared cache by inserting
 * them at the near-immediate re-reference position (RRPV 0) while
 * data lines get SRRIP insertion. The dynamic variant set-duels CLIP
 * against plain SRRIP and follows whichever produces fewer demand
 * misses, so the code preference only engages when instruction lines
 * actually contend for the L2. Unlike EMISSARY it prioritizes *all*
 * instruction lines blindly, without confirming that a future miss
 * would stall the front-end (paper §7.2).
 */

#ifndef EMISSARY_REPLACEMENT_DCLIP_HH
#define EMISSARY_REPLACEMENT_DCLIP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "replacement/policy.hh"

namespace emissary::replacement
{

/** Dynamic code-line preservation over a 2-bit RRIP substrate. */
class DclipPolicy
{
  public:
    DclipPolicy(unsigned num_sets, unsigned num_ways);

    std::string name() const { return "DCLIP"; }
    unsigned selectVictim(unsigned set);
    void onInsert(unsigned set, unsigned way, const LineInfo &info);
    void onHit(unsigned set, unsigned way, const LineInfo &info);
    void onInvalidate(unsigned set, unsigned way);

    /** Demand-miss feedback to the CLIP/SRRIP set dueling. */
    void onMiss(unsigned set);

    /** True when follower sets currently preserve code lines. */
    bool clipEngaged() const { return psel_ <= 0; }

    /** Leader-set classification, exposed for tests. */
    bool isClipLeaderForTest(unsigned set) const
    {
        return isClipLeader(set);
    }
    bool isSrripLeaderForTest(unsigned set) const
    {
        return isSrripLeader(set);
    }

    static constexpr unsigned kMaxRrpv = 3;
    static constexpr unsigned kLeaderSets = 32;
    static constexpr int kPselMax = 511;

  private:
    bool isClipLeader(unsigned set) const;
    bool isSrripLeader(unsigned set) const;
    bool useClip(unsigned set) const;
    std::uint8_t &rrpvRef(unsigned set, unsigned way);

    unsigned sets_;
    unsigned ways_;
    std::vector<std::uint8_t> rrpv_;
    std::vector<std::uint8_t> isInst_;
    int psel_ = 0;  ///< <= 0 favours CLIP, > 0 favours SRRIP.
};

} // namespace emissary::replacement

#endif // EMISSARY_REPLACEMENT_DCLIP_HH
