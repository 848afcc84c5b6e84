/**
 * @file
 * The context every replacement policy is notified with.
 *
 * The cache owns tag/valid/dirty state; a policy owns whatever
 * recency/priority metadata it needs, kept in sync through its
 * onInsert / onHit / onInvalidate notifications. The six policy
 * families (tplru.hh, emissary.hh, lru.hh, rrip.hh, pdp.hh, dclip.hh)
 * share no base class: replacement::ReplacementPolicy (spec.hh) holds
 * exactly one of them and is the one dispatch every array calls.
 */

#ifndef EMISSARY_REPLACEMENT_POLICY_HH
#define EMISSARY_REPLACEMENT_POLICY_HH

namespace emissary::replacement
{

/** Insertion/hit context a policy may act on. */
struct LineInfo
{
    /** Line holds instructions (vs data); drives DCLIP and the
     *  instruction-only scope of bimodal selection (§2). */
    bool isInstruction = false;

    /** Mode-selection outcome: high-priority under the paper's
     *  notation. For M: policies this means "insert at MRU"; for
     *  P(N) policies it is the sticky priority bit P. */
    bool highPriority = false;

    /** Victim-cache hint: insert at MRU regardless of policy (the
     *  SFL mechanism for L2->L3 evictions, §5.1). */
    bool insertMru = false;
};

} // namespace emissary::replacement

#endif // EMISSARY_REPLACEMENT_POLICY_HH
