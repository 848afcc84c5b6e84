/**
 * @file
 * Parser for the paper's policy notation (Table 3), and the one
 * replacement-policy type every cache array holds.
 *
 * Accepted spellings:
 *
 *   "M:1" (or "LRU")        classic LRU
 *   "M:0" (or "LIP")        LRU-insertion policy
 *   "M:R(1/32)" (or "BIP")  bimodal insertion
 *   "M:S", "M:S&E", "M:S&E&R(1/32)"  starvation-aware insertion
 *   "P(8):S&E&R(1/32)"      EMISSARY, N = 8
 *   "EMISSARY"              alias for P(8):S&E&R(1/32)
 *   "TPLRU"                 tree pseudo-LRU (the evaluation baseline)
 *   "SRRIP", "BRRIP", "DRRIP", "PDP", "DCLIP"  comparators
 *
 * A PolicySpec also decides how mode selection scopes to line type:
 * bimodal selection applies to instruction lines only (§2); data
 * lines default to MRU insertion under M: policies and to low
 * priority under P(N) policies.
 */

#ifndef EMISSARY_REPLACEMENT_SPEC_HH
#define EMISSARY_REPLACEMENT_SPEC_HH

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "replacement/dclip.hh"
#include "replacement/emissary.hh"
#include "replacement/lru.hh"
#include "replacement/mode.hh"
#include "replacement/pdp.hh"
#include "replacement/policy.hh"
#include "replacement/rrip.hh"
#include "replacement/tplru.hh"

namespace emissary::replacement
{

/** Policy families the factory can instantiate. */
enum class PolicyFamily : std::uint8_t
{
    InsertionLru,  ///< M:<sel> — bimodal insertion on true LRU.
    TreePlru,      ///< Plain TPLRU (evaluation baseline).
    EmissaryP,     ///< P(N):<sel> — the paper's contribution.
    Srrip,
    Brrip,
    Drrip,
    Pdp,
    Dclip,
};

/** A parsed policy description. */
struct PolicySpec
{
    PolicyFamily family = PolicyFamily::TreePlru;
    ModeSelector selector;      ///< For InsertionLru / EmissaryP.
    unsigned protectN = 8;      ///< The N of P(N).
    bool emissaryTreePlru = true; ///< Dual-tree TPLRU vs true LRU.
    unsigned pdpDistance = 64;  ///< Static protecting distance.

    /**
     * Parse the paper notation.
     * @throws std::invalid_argument on malformed input.
     */
    static PolicySpec parse(const std::string &text);

    /** Render back to canonical notation. */
    std::string toString() const;

    /** True for families that consume the starvation signal. */
    bool usesStarvation() const;

    /**
     * Mode selection with the paper's instruction-only scoping: data
     * lines are high-priority (MRU) under M: policies and always
     * low-priority under P(N) policies; instruction lines evaluate
     * the selector.
     */
    bool computePriority(const MissContext &ctx, Rng &rng) const;
};

/**
 * The replacement policy of one set-associative array: exactly one
 * of the six families, held in place and visited here, the one
 * dispatch of every notification. GCC lowers a visit of a variant
 * this small to a switch over its index, so each call is a direct
 * call to the family's own method. The EMISSARY hooks (setPriority,
 * protectedCount, resetPriorities) do nothing for the other families,
 * and only the set-dueling ones (DRRIP, DCLIP) take demand misses.
 * A policy is an ordinary value: copying it copies its whole state.
 */
class ReplacementPolicy
{
  public:
    ReplacementPolicy(const PolicySpec &spec, unsigned num_sets,
                      unsigned num_ways, std::uint64_t seed);

    /** Short name for reports (e.g. "P(8):S&E&R(1/32)"). */
    std::string
    name() const
    {
        return std::visit([](const auto &p) { return p.name(); },
                          policy_);
    }

    /**
     * Choose the victim way in a full set.
     * @param set Set index; every way is valid when this is called.
     * @return Way index to evict.
     */
    unsigned
    selectVictim(unsigned set)
    {
        return std::visit([set](auto &p) { return p.selectVictim(set); },
                          policy_);
    }

    /** Notify a fill into (set, way). */
    void
    onInsert(unsigned set, unsigned way, const LineInfo &info)
    {
        std::visit([&](auto &p) { p.onInsert(set, way, info); }, policy_);
    }

    /** Notify a hit on (set, way). */
    void
    onHit(unsigned set, unsigned way, const LineInfo &info)
    {
        std::visit([&](auto &p) { p.onHit(set, way, info); }, policy_);
    }

    /** Notify that (set, way) was invalidated (back-invalidation,
     *  exclusive-hierarchy promotion, ...). */
    void
    onInvalidate(unsigned set, unsigned way)
    {
        std::visit([&](auto &p) { p.onInvalidate(set, way); }, policy_);
    }

    /** Demand-miss feedback for set-dueling policies (DRRIP, DCLIP). */
    void
    onMiss(unsigned set)
    {
        std::visit(
            [set](auto &p) {
                if constexpr (requires { p.onMiss(set); })
                    p.onMiss(set);
            },
            policy_);
    }

    /** EMISSARY::setPriority; accepted and ignored by the others. */
    bool
    setPriority(unsigned set, unsigned way, bool high)
    {
        EmissaryPolicy *p = emissary();
        return !p || p->setPriority(set, way, high);
    }

    /** EMISSARY::protectedCount; 0 for the others. */
    unsigned
    protectedCount(unsigned set) const
    {
        const EmissaryPolicy *p = emissary();
        return p ? p->protectedCount(set) : 0;
    }

    /** EMISSARY::resetPriorities (§6); nothing for the others. */
    void
    resetPriorities()
    {
        if (EmissaryPolicy *p = emissary())
            p->resetPriorities();
    }

    /** The P(N) policy, or nullptr under any other family: the one
     *  way to EMISSARY's own state (sameRunRange, protectedCounts). */
    EmissaryPolicy *
    emissary()
    {
        return std::get_if<EmissaryPolicy>(&policy_);
    }
    const EmissaryPolicy *
    emissary() const
    {
        return std::get_if<EmissaryPolicy>(&policy_);
    }

    unsigned numSets() const { return sets_; }
    unsigned numWays() const { return ways_; }

  private:
    using Family = std::variant<TreePlru, EmissaryPolicy, InsertionLru,
                                RripPolicy, PdpPolicy, DclipPolicy>;

    /** The family @p spec names, sized and seeded. */
    static Family build(const PolicySpec &spec, unsigned num_sets,
                        unsigned num_ways, std::uint64_t seed);

    unsigned sets_;
    unsigned ways_;
    Family policy_;
};

/** Instantiate the policy an array should run. */
std::unique_ptr<ReplacementPolicy>
makePolicy(const PolicySpec &spec, unsigned num_sets, unsigned num_ways,
           std::uint64_t seed = 0xCAC4E5EEDULL);

/** The Fig. 7 comparison set, in the paper's legend order. */
std::vector<std::string> figure7PolicyNames();

} // namespace emissary::replacement

#endif // EMISSARY_REPLACEMENT_SPEC_HH
