/**
 * @file
 * Monitor-lane bank for the fused multi-policy sweep: one shared
 * cycle-exact pipeline (frontend, branch predictors, L1I/L1D,
 * backend, and the timing L2/L3) drives N-1 additional per-policy
 * L2+L3 instances that observe the same below-L1 access stream.
 *
 * This is the auxiliary-tag-directory idiom of UMON (Qureshi &
 * Patt) and DEW-style sampled simulators: the monitor lanes replay
 * every replacement-relevant event of the shared pipeline — probe,
 * fill, exclusive L3 move, SFL bit, EMISSARY mode selection with a
 * per-lane RNG, L1I priority-bit shadowing and the eviction-time
 * priority upgrade (§3) — against their own arrays, so per-policy
 * hit/miss/protection counters come out of a single trace pass.
 *
 * Fidelity contract: the timing lane (the Hierarchy the bank is
 * attached to) is bit-identical to a sequential run of its policy.
 * Monitor lanes see the timing lane's access *stream*, so their
 * counters match a sequential run of their policy up to the
 * L2-latency feedback into the frontend; cycle counts are
 * first-order estimates built from per-miss latency deltas capped
 * by observed starvation. bench/bench_mode_validation.cpp
 * measures both errors against the sequential oracle.
 *
 * An optional 1-in-K sampled-set mode shrinks each monitor lane to
 * sets/K sets (Cache::Config::indexShift) and filters the stream by
 * set residue; counters are scaled back by K at collection.
 */

#ifndef EMISSARY_CACHE_LANES_HH
#define EMISSARY_CACHE_LANES_HH

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"

namespace emissary::cache
{

/** Bank of monitor L2/L3 lanes attached to one Hierarchy. */
class PolicyLaneBank
{
  public:
    /** Packed per-lane fill sources are 2 bits each in a uint64. */
    static constexpr unsigned kMaxLanes = 32;

    /**
     * @param timing The timing hierarchy's config: monitor lanes
     *        clone its L2/L3 geometry, latencies and seeds.
     * @param l2_specs One parsed L2 policy per monitor lane.
     * @param sampled_sets 1-in-K set sampling for the monitor
     *        arrays (0 or 1 = full fidelity; otherwise a power of
     *        two dividing both set counts).
     */
    PolicyLaneBank(const Hierarchy::Config &timing,
                   const std::vector<replacement::PolicySpec> &l2_specs,
                   unsigned sampled_sets = 0);

    unsigned laneCount() const
    {
        return static_cast<unsigned>(lanes_.size());
    }
    /** Sampling factor K (1 = full fidelity). */
    unsigned sampledSets() const { return sampleK_; }

    // ------ hooks driven by Hierarchy (one call site each) ------

    /** Bind the shared L1 arrays (position probes only; the bank
     *  never mutates them). Called by Hierarchy::setLanes. */
    void bindShared(const Cache *l1i, const Cache *l1d);

    /**
     * Mirror of missBelowL1's L2/L3 probe, for every lane.
     * @return Packed per-lane fill sources for the MSHR entry.
     */
    std::uint64_t probe(std::uint64_t line_addr, bool is_instruction,
                        bool demandish);

    /**
     * Mirror of complete()'s fill half for an instruction miss.
     * @param l1i_selected The shared L1I EMISSARY ablation's own
     *        selection outcome (lane-invariant).
     * @param l1i_ev The shared L1I insert's result: the slot the
     *        line landed in, plus the displaced line if any.
     */
    void completeInstruction(std::uint64_t line_addr,
                             const Hierarchy::Mshr &entry,
                             const replacement::MissContext &ctx,
                             bool l1i_selected,
                             const Cache::Eviction &l1i_ev);

    /** Mirror of complete()'s fill half for a data miss; @p l1d_ev
     *  is the shared L1D insert's result (dirty writeback path). */
    void completeData(std::uint64_t line_addr,
                      const Hierarchy::Mshr &entry,
                      const replacement::MissContext &ctx,
                      const Cache::Eviction &l1d_ev);

    /** The shared L1I slot (set, way) was back-invalidated by the
     *  timing L2: the lanes' shadow bits there are stale. */
    void onSharedL1IInvalidate(unsigned set, unsigned way);

    /** EMISSARY §6 reset: clear lane L2 priority bits and the L1I
     *  priority shadows (the shared L1I clears its own bits). */
    void resetPriorities();

    /** Start of the measurement window: zero counters and the
     *  cycle/starvation estimators. Lane cache *state* persists,
     *  exactly like the timing arrays across the warmup boundary. */
    void resetStats();

    // ------ collection ------

    /**
     * The lane's view of the window: @p shared with the
     * policy-dependent counters replaced by the lane's own (scaled
     * by K in sampled mode). Lane-invariant counters (L1 hits,
     * NLP issue, starvation notes) pass through.
     */
    HierarchyStats laneStats(unsigned lane,
                             const HierarchyStats &shared) const;

    /**
     * First-order cycle delta vs the timing lane: per-miss latency
     * differences, with savings capped by the miss's observed
     * starvation and costs halved for never-starved (lookahead-
     * hidden) misses. Scaled by K in sampled mode.
     */
    std::int64_t cycleDelta(unsigned lane) const;

    /** First-order decode-starvation estimate for the lane. */
    std::uint64_t estStarvationCycles(unsigned lane) const;
    /** The subset of the estimate with the issue queue empty. */
    std::uint64_t estStarvationIqEmptyCycles(unsigned lane) const;

    const Cache &l2(unsigned lane) const { return lanes_[lane].l2; }
    const replacement::PolicySpec &spec(unsigned lane) const
    {
        return lanes_[lane].l2.spec();
    }

  private:
    struct Lane
    {
        Cache l2;
        Cache l3;
        bool emissaryL2 = false;
        HierarchyStats stats;
        /** Shared-L1I (set*ways + way) -> this lane's P bit for the
         *  line resident there. */
        std::vector<std::uint8_t> l1iShadow;
        std::uint64_t savedCycles = 0;
        std::uint64_t addedCycles = 0;
        std::uint64_t estStarve = 0;
        std::uint64_t estStarveIq = 0;

        Lane(const Cache::Config &l2_config,
             const Cache::Config &l3_config)
            : l2(l2_config), l3(l3_config)
        {
        }
    };

    /** Latency of a fill source beyond the L2-hit baseline. */
    unsigned levelLatency(unsigned code) const;

    /** Shared body of the two complete hooks: stats attribution,
     *  mode selection and the lane L2/L3 insertion. Returns the
     *  lane's selection outcome for the L1I shadow. */
    bool completeLane(Lane &lane, std::uint64_t line_addr,
                      unsigned code, const Hierarchy::Mshr &entry,
                      const replacement::MissContext &ctx);

    /** Mirror of fillL2 + handleL2Eviction against lane arrays. */
    void laneFillL2(Lane &lane, std::uint64_t line_addr,
                    bool is_instruction, bool high_priority, bool sfl);

    bool sampled(std::uint64_t line_addr) const
    {
        return sampleK_ == 1 ||
               (line_addr & (sampleK_ - 1)) == sampleOffset_;
    }

    std::vector<Lane> lanes_;
    const Cache *sharedL1i_ = nullptr;
    const Cache *sharedL1d_ = nullptr;
    unsigned l1iWays_ = 0;
    unsigned sampleK_ = 1;
    std::uint64_t sampleOffset_ = 0;
    unsigned l3HitLatency_ = 0;
    unsigned dramLatency_ = 0;
    bool bypassLowPriorityInst_ = false;
};

} // namespace emissary::cache

#endif // EMISSARY_CACHE_LANES_HH
