/**
 * @file
 * Monitor lane of the fused multi-policy sweep: one policy's L2+L3
 * replaying the below-L1 event log (cache/miss_log.hh) of a shared
 * cycle-exact pipeline (frontend, branch predictors, L1I/L1D,
 * backend, and the timing L2/L3).
 *
 * This is the auxiliary-tag-directory idiom of UMON (Qureshi &
 * Patt) and DEW-style trace-driven simulators: a lane's levels below
 * the L1s are a cache::LowerLevels, the same class and the same code
 * the timing Hierarchy runs, driven by the log instead of by a live
 * pipeline. Each probe, fill, L1I priority, §3 upgrade and dirty
 * write-back of the log is one call to it, so mode selection (with
 * the lane's own RNG), P(N) protection, the exclusive L3 and its SFL
 * hint are the timing machine's rules by construction, and
 * per-policy hit/miss/protection counters come out of a single
 * timing pass. Each lane replays on its own, so the lanes of one pass
 * can run on any worker in any order.
 *
 * The lane differs from the timing machine in its L1s only. In
 * their place it keeps two small copies it updates from the log:
 * which line each L1I slot holds (with the lane's own view of that
 * line's P bit), and which L1D slots hold a dirty line. When the
 * lane's L2 evicts a line, inclusion reads them instead of
 * invalidating real L1s: the line's P bit drops and a dirty L1D copy
 * folds into the victim.
 *
 * Fidelity contract: the timing lane (the Hierarchy that recorded
 * the log) is bit-identical to a sequential run of its policy.
 * Monitor lanes see the timing lane's access *stream*, so their
 * counters match a sequential run of their policy up to the
 * L2-latency feedback into the frontend
 * (bench/bench_mode_validation.cpp measures that error); a lane
 * under the timing lane's own policy reproduces the timing lane's
 * cache counters exactly (tests/test_fused.cpp). A monitor lane
 * counts cache events only: it never sees the decode starvation its
 * own policy would cause, so it reports no cycles, starvation or
 * energy (core::Metrics::timed).
 *
 * An optional 1-in-K sampled-set mode shrinks the lane to sets/K
 * sets (Cache::Config::indexShift): the lane replays the same log and
 * skips the fills and probes of lines outside its set residue, and
 * its counters are scaled back by K at collection.
 */

#ifndef EMISSARY_CACHE_LANES_HH
#define EMISSARY_CACHE_LANES_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/miss_log.hh"

namespace emissary::cache
{

/** One monitor L2/L3 replaying a MissLog. */
class MonitorLane
{
  public:
    /**
     * @param timing The config of the hierarchy that recorded the
     *        log: the lane clones its L2/L3 geometry, latencies and
     *        seeds, and copies its L1 geometry.
     * @param l2 The lane's L2 policy.
     * @param sampled_sets 1-in-K set sampling (0 or 1 = full
     *        fidelity; otherwise a power of two dividing both set
     *        counts).
     */
    MonitorLane(const Hierarchy::Config &timing,
                const replacement::PolicySpec &l2,
                unsigned sampled_sets = 0);

    /**
     * Apply every event of @p log in order, from a fresh state: a
     * lane replays one log. @p on_window_start fires at the log's
     * WindowStart event, after the counters restart.
     */
    void replay(const MissLog &log,
                const std::function<void()> &on_window_start = {});

    /**
     * The lane's view of the window: @p shared (the timing lane's
     * counters) with the policy-dependent counters replaced by the
     * lane's own (scaled by K in sampled mode). Lane-invariant event
     * counters (L1 traffic, NLP issue) pass through; the starvation
     * counters, which count the timing lane's cycles, read 0.
     */
    HierarchyStats stats(const HierarchyStats &shared) const;

    const Cache &l2() const { return lower_.l2(); }

  private:
    /** Which line each slot of a shared L1 holds, as far as the lane
     *  needs to know. */
    struct SlotCopy
    {
        static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

        std::vector<std::uint64_t> lines;
        unsigned ways = 0;
        unsigned setMask = 0;

        explicit SlotCopy(const Cache::Config &config);

        /** The slot holding @p line, or -1. */
        long
        find(std::uint64_t line) const
        {
            const std::size_t base =
                std::size_t{static_cast<unsigned>(line) & setMask} *
                ways;
            for (unsigned w = 0; w < ways; ++w)
                if (lines[base + w] == line)
                    return static_cast<long>(base + w);
            return -1;
        }
    };

    /** Removes the outstanding probe of @p line and returns its fill
     *  source in @p source; false when the line is not sampled. */
    bool takeSource(std::uint64_t line, FillSource &source);
    void instructionFill(const MissLog::Event &event);
    void dataFill(const MissLog::Event &event);
    /** Inclusion against the L1 copies: @p line's P bit drops;
     *  returns whether the L1D holds it dirty. */
    bool evictFromL1s(std::uint64_t line);

    bool
    sampled(std::uint64_t line) const
    {
        return sampleK_ == 1 || (line & (sampleK_ - 1)) == 0;
    }

    LowerLevels lower_;
    unsigned sampleK_ = 1;
    /** Outstanding probes' fill sources: a line has at most one
     *  outstanding miss. */
    std::vector<std::pair<std::uint64_t, FillSource>> outstanding_;
    /** The shared L1I's lines and this lane's P bit for each. */
    SlotCopy l1i_;
    std::vector<std::uint8_t> l1iPriority_;
    /** The shared L1D's dirty lines. */
    SlotCopy l1dDirty_;
};

} // namespace emissary::cache

#endif // EMISSARY_CACHE_LANES_HH
