/**
 * @file
 * Re-reference interval prediction policies [29]: SRRIP, BRRIP, and
 * the set-dueling dynamic DRRIP, used as comparators in the paper's
 * Fig. 7 and as the L3 policy of the Alderlake-like model (Table 4).
 */

#ifndef EMISSARY_REPLACEMENT_RRIP_HH
#define EMISSARY_REPLACEMENT_RRIP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "replacement/policy.hh"
#include "util/rational.hh"
#include "util/rng.hh"

namespace emissary::replacement
{

/** Which insertion rule an RRIP array uses. */
enum class RripMode : std::uint8_t
{
    Static,   ///< SRRIP: insert at RRPV = max-1.
    Bimodal,  ///< BRRIP: insert at max, at max-1 with probability r.
    Dynamic,  ///< DRRIP: set-dueling between the two above.
};

/**
 * M-bit RRIP replacement (M = 2 as in the paper's comparators).
 *
 * Hits promote to RRPV 0 (hit-promotion variant). The victim is the
 * leftmost way at max RRPV, aging every way up when none is there.
 * DRRIP dedicates 32 leader sets to each of SRRIP and BRRIP and
 * steers follower sets with a 10-bit PSEL counter updated on leader
 * demand misses.
 */
class RripPolicy
{
  public:
    /**
     * @param num_sets Number of sets.
     * @param num_ways Associativity.
     * @param mode Static, Bimodal or Dynamic insertion.
     * @param bip_rate The BRRIP long-insertion probability.
     * @param seed RNG seed for the bimodal draw.
     */
    RripPolicy(unsigned num_sets, unsigned num_ways, RripMode mode,
               Rational bip_rate = Rational(1, 32),
               std::uint64_t seed = 0x5EED00B1ULL);

    std::string name() const;
    unsigned selectVictim(unsigned set);
    void onInsert(unsigned set, unsigned way, const LineInfo &info);
    void onHit(unsigned set, unsigned way, const LineInfo &info);
    void onInvalidate(unsigned set, unsigned way);

    /** Demand-miss feedback to DRRIP's set dueling (a leader set's
     *  miss moves PSEL); the static modes ignore it. */
    void onMiss(unsigned set);

    /** RRPV of a line, for tests. */
    unsigned rrpv(unsigned set, unsigned way) const;

    /** Leader-set classification, for tests. */
    bool isSrripLeader(unsigned set) const;
    bool isBrripLeader(unsigned set) const;

    static constexpr unsigned kMaxRrpv = 3;     ///< 2-bit RRPV.
    static constexpr unsigned kLeaderSets = 32; ///< Per policy.
    static constexpr int kPselMax = 511;        ///< 10-bit saturating.

  private:
    /** True when @p set should use bimodal (BRRIP-style) insertion. */
    bool useBimodalInsert(unsigned set);

    std::uint8_t &rrpvRef(unsigned set, unsigned way);

    unsigned sets_;
    unsigned ways_;
    RripMode mode_;
    Rational bipRate_;
    Rng rng_;
    std::vector<std::uint8_t> rrpv_;
    int psel_ = 0;  ///< > 0 favours BRRIP, <= 0 favours SRRIP.
};

} // namespace emissary::replacement

#endif // EMISSARY_REPLACEMENT_RRIP_HH
