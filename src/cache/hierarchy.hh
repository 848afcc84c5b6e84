/**
 * @file
 * Three-level cache hierarchy of the Alderlake-like model (Table 4):
 * private L1I/L1D, a unified inclusive L2 (where the EMISSARY policy
 * runs), and a shared exclusive victim L3 with DRRIP + the SFL
 * (Served-From-Last-level) insertion hint.
 *
 * Timing model: a request resolves its hit level immediately and
 * returns the cycle at which the line becomes usable; state changes
 * (fills, evictions, priority selection) are applied when that cycle
 * is reached, via tick(). Outstanding misses live in an MSHR table;
 * requests to an in-flight line merge with it. The table is a flat
 * array kept in the (readyCycle, lineAddr) order fills apply in; a
 * handful of misses are outstanding at a time, so a scan of their
 * line addresses beats hashing. Decode-starvation
 * evidence is accumulated on the MSHR entry while the miss is
 * outstanding (the paper's observation that the signal is known
 * "many cycles before the line ... is inserted into the cache", §3)
 * and consumed by mode selection when the fill completes.
 */

#ifndef EMISSARY_CACHE_HIERARCHY_HH
#define EMISSARY_CACHE_HIERARCHY_HH

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cache/cache.hh"

namespace emissary::cache
{

/** Who is asking; decides which MPKI counters move. */
enum class RequestKind : std::uint8_t
{
    Demand,  ///< Core-side demand (fetch delivering / load / store).
    Fdip,    ///< FDIP instruction prefetch (fetch path; counts in
             ///< the paper's L1I / L2-instruction MPKI).
    Nlp,     ///< Next-line prefetch (does not count in MPKI).
};

/**
 * Observer for per-event attribution (Fig. 2 benches): called at the
 * moment an event happens so the listener can classify it with
 * event-time context (e.g. the blamed line's current reuse class).
 */
class HierarchyObserver
{
  public:
    virtual ~HierarchyObserver() = default;
    /** A fetch-path L2 instruction miss for @p line_addr. */
    virtual void onL2InstMiss(std::uint64_t line_addr) = 0;
    /** One decode-starvation cycle, @p cycle, blamed on
     *  @p line_addr. A run of idle cycles is reported at once, one
     *  call per cycle, so the cycle travels with the event. */
    virtual void onStarvationCycle(std::uint64_t line_addr,
                                   std::uint64_t cycle) = 0;
    /** A fetch-path L2 instruction access (hit or miss); default
     *  no-op so existing observers are unaffected. */
    virtual void
    onL2InstAccess(std::uint64_t line_addr)
    {
        (void)line_addr;
    }

    // Replacement-decision events (observability layer). Each has a
    // HierarchyStats counter incremented at the same call site, so
    // event streams reconcile exactly with the end-of-window
    // counters. All default no-op.

    /** A line was inserted into the L2. */
    virtual void
    onL2Fill(std::uint64_t line_addr, bool is_instruction,
             bool high_priority)
    {
        (void)line_addr;
        (void)is_instruction;
        (void)high_priority;
    }

    /** A line was displaced from the L2 by a fill. */
    virtual void
    onL2Eviction(std::uint64_t line_addr, bool was_priority,
                 bool dirty)
    {
        (void)line_addr;
        (void)was_priority;
        (void)dirty;
    }

    /** An L1I eviction communicated starvation history to the L2
     *  copy (EMISSARY's priority upgrade, §3). */
    virtual void
    onPriorityUpgrade(std::uint64_t line_addr)
    {
        (void)line_addr;
    }
};

/** Aggregate hierarchy statistics for one measurement window. */
struct HierarchyStats
{
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2InstAccesses = 0;
    std::uint64_t l2InstMisses = 0;
    std::uint64_t l2DataAccesses = 0;
    std::uint64_t l2DataMisses = 0;
    std::uint64_t l3Accesses = 0;
    std::uint64_t l3Misses = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t nlpIssued = 0;
    std::uint64_t l2Fills = 0;            ///< Lines inserted into L2.
    std::uint64_t l2Evictions = 0;        ///< Lines displaced from L2.
    std::uint64_t highPriorityFills = 0;  ///< L1I fills with P=1.
    std::uint64_t priorityUpgrades = 0;   ///< L1I evicts raising L2 P.
    /** Starvation cycles charged to an outstanding miss (the exact
     *  count of cycles noteStarvation accepted this window). */
    std::uint64_t starvationNotes = 0;
    std::uint64_t l2InstHitsProtected = 0; ///< L2 I-hits on P=1 lines.
    std::uint64_t l2ProtectedEvictions = 0; ///< P=1 lines evicted.
    std::uint64_t idealCollapsedMisses = 0;  ///< §5.6 ideal-L2I saves.
    /** Starvation cycles attributed to misses served by each level
     *  (classified when the starved fill completes). */
    std::uint64_t starveCyclesL2 = 0;
    std::uint64_t starveCyclesL3 = 0;
    std::uint64_t starveCyclesMem = 0;

    void reset() { *this = HierarchyStats{}; }

    /** Component-wise sum — the time-parallel chunk splice
     *  (core::run) adds window slices. */
    HierarchyStats &
    operator+=(const HierarchyStats &other)
    {
        l1iAccesses += other.l1iAccesses;
        l1iMisses += other.l1iMisses;
        l1dAccesses += other.l1dAccesses;
        l1dMisses += other.l1dMisses;
        l2InstAccesses += other.l2InstAccesses;
        l2InstMisses += other.l2InstMisses;
        l2DataAccesses += other.l2DataAccesses;
        l2DataMisses += other.l2DataMisses;
        l3Accesses += other.l3Accesses;
        l3Misses += other.l3Misses;
        dramReads += other.dramReads;
        dramWrites += other.dramWrites;
        nlpIssued += other.nlpIssued;
        l2Fills += other.l2Fills;
        l2Evictions += other.l2Evictions;
        highPriorityFills += other.highPriorityFills;
        priorityUpgrades += other.priorityUpgrades;
        starvationNotes += other.starvationNotes;
        l2InstHitsProtected += other.l2InstHitsProtected;
        l2ProtectedEvictions += other.l2ProtectedEvictions;
        idealCollapsedMisses += other.idealCollapsedMisses;
        starveCyclesL2 += other.starveCyclesL2;
        starveCyclesL3 += other.starveCyclesL3;
        starveCyclesMem += other.starveCyclesMem;
        return *this;
    }
};

class MissLog;

/** The three-level hierarchy. */
class Hierarchy
{
  public:
    /** Where a below-L1 miss is served from. */
    enum class FillSource : std::uint8_t { L2, L3, Memory };

    /** One outstanding below-L1 miss. */
    struct Mshr
    {
        std::uint64_t readyCycle = 0;
        FillSource source = FillSource::Memory;
        bool isInstruction = false;
        bool write = false;
        bool starved = false;
        bool iqEmpty = false;
        std::uint32_t starveCycles = 0;
    };

    struct Config
    {
        Cache::Config l1i;
        Cache::Config l1d;
        Cache::Config l2;
        Cache::Config l3;
        unsigned dramLatency = 200;
        bool nextLinePrefetch = true;
        /** §5.6 ideal model: capacity/conflict L2 instruction misses
         *  complete with L2-hit latency. */
        bool idealL2Inst = false;
        /** §2 ablation: unselected (low-priority) instruction lines
         *  bypass the L2 on fill. The paper found this ineffective;
         *  the flag exists to reproduce that finding. */
        bool bypassLowPriorityInst = false;
    };

    explicit Hierarchy(const Config &config);

    /**
     * Request an instruction line (fetch or FDIP path).
     * @return Cycle at which the line is readable from L1I.
     */
    std::uint64_t requestInstruction(std::uint64_t line_addr,
                                     std::uint64_t now,
                                     RequestKind kind);

    /**
     * Request a data line (load/store path).
     * @return Cycle at which the access completes.
     */
    std::uint64_t requestData(std::uint64_t line_addr,
                              std::uint64_t now, bool write,
                              RequestKind kind = RequestKind::Demand);

    /**
     * Record that decode starved in the @p cycles cycles from
     * @p now on while waiting on @p line_addr; @p iq_empty is the
     * issue-queue-empty signal E. No-op when the line has no
     * outstanding miss.
     */
    void noteStarvation(std::uint64_t line_addr, bool iq_empty,
                        std::uint64_t now, std::uint64_t cycles = 1);

    /**
     * Apply fills whose completion time has been reached, in
     * ascending (readyCycle, lineAddr) order. That order fixes cache
     * insertion order and, through it, every downstream counter.
     */
    void tick(std::uint64_t now);

    /** Force-complete every outstanding fill (end of simulation), in
     *  the same order tick() would apply them. */
    void drain();

    /** The cycle of the next fill tick() will apply, or ~0 when no
     *  miss is outstanding. */
    std::uint64_t
    nextFill() const
    {
        return mshrs_.empty() ? ~std::uint64_t{0}
                              : mshrs_.front().readyCycle;
    }

    /** EMISSARY §6: clear every priority bit in L1I and L2. */
    void resetPriorities();

    /** Register an event-time observer (nullptr to clear). */
    void setObserver(HierarchyObserver *observer)
    {
        observer_ = observer;
    }

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cache &l3() { return l3_; }
    const Cache &l2() const { return l2_; }

    HierarchyStats &stats() { return stats_; }
    const HierarchyStats &stats() const { return stats_; }

    /**
     * Functional-warming mode (the warmup phase of every run, and a
     * time-parallel chunk's overlapped warming prefix): accesses
     * evolve all cache, priority-bit and MSHR-starvation state
     * exactly as a counted run would — which is what makes warmed
     * windows bit-deterministic — while the stats counters
     * accumulated under warming are discarded when warming ends, so
     * the measurement counters start unperturbed. Implemented as
     * discard-at-exit rather than per-increment gating to keep the
     * access hot path free of a mode test.
     */
    void setWarming(bool warming)
    {
        if (warming_ && !warming)
            stats_.reset();
        warming_ = warming;
    }
    bool warming() const { return warming_; }

    const Config &config() const { return config_; }

    /** Outstanding-miss count (testing). */
    std::size_t outstanding() const { return mshrLines_.size(); }

    /**
     * Record every below-L1 event into @p log (nullptr to stop):
     * probes, fills, L1 back-invalidations, clean-to-dirty L1D
     * stores and §6 resets, which is all a monitor lane replays
     * (cache/lanes.hh). The log must outlive the attachment. Timing
     * is unchanged; without a log the hooks cost one pointer test on
     * the miss path and on L1D store hits.
     */
    void setMissLog(MissLog *log) { log_ = log; }
    MissLog *missLog() const { return log_; }

  private:
    /** Index of @p line_addr's outstanding miss, or npos. */
    std::size_t findMshr(std::uint64_t line_addr) const;

    /** Apply, in table order, the first @p count outstanding fills
     *  and remove them from the table. */
    void completeFirst(std::size_t count);

    static constexpr std::size_t npos = ~std::size_t{0};

    /** Shared miss path after the L1 probe. */
    std::uint64_t missBelowL1(std::uint64_t line_addr,
                              std::uint64_t now, bool is_instruction,
                              bool write, bool demandish);

    /** Apply the fill actions of a completed miss. */
    void complete(std::uint64_t line_addr, const Mshr &entry);

    /** Insert into L2, handling inclusion and the victim path. */
    void fillL2(std::uint64_t line_addr, bool is_instruction,
                bool high_priority, bool sfl);

    /** Handle an L2 eviction: back-invalidate, place into L3. */
    void handleL2Eviction(const Cache::Eviction &ev);

    Config config_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache l3_;
    HierarchyStats stats_;

    /**
     * The MSHR table: outstanding misses sorted by (readyCycle,
     * lineAddr), line addresses and entries in parallel arrays so a
     * lookup scans only the addresses. Both keep their capacity, so
     * the table stops allocating once it has held its peak.
     */
    std::vector<std::uint64_t> mshrLines_;
    std::vector<Mshr> mshrs_;

    /** Instruction lines previously resident in L2 (§5.6 ideal
     *  model's capacity/conflict-vs-compulsory distinction). */
    std::unordered_set<std::uint64_t> seenL2Inst_;

    HierarchyObserver *observer_ = nullptr;
    MissLog *log_ = nullptr;
    bool warming_ = false;
};

} // namespace emissary::cache

#endif // EMISSARY_CACHE_HIERARCHY_HH
