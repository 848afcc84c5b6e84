/**
 * @file
 * A single set-associative cache array.
 *
 * The cache owns line state (tag, dirty, instruction/data, the
 * EMISSARY priority bit, and the SFL origin bit) and delegates
 * victim choice and recency bookkeeping to the ReplacementPolicy it
 * holds by value. Timing lives in the Hierarchy; this class is
 * purely structural, and an ordinary copyable value.
 */

#ifndef EMISSARY_CACHE_CACHE_HH
#define EMISSARY_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "replacement/spec.hh"
#include "stats/histogram.hh"
#include "util/rng.hh"

namespace emissary::cache
{

/**
 * State of one cache line beside its tag: one byte of flags. The tag
 * lives only in the array's tag lane, which also says whether a way
 * is valid.
 */
struct CacheLine
{
    // Bit-fields take no default member initializers before C++20.
    CacheLine()
        : dirty(false), isInstruction(false), priority(false),
          sfl(false), prefetched(false)
    {
    }

    bool dirty : 1;
    bool isInstruction : 1;
    /** EMISSARY sticky priority bit P (meaningful in L1I and L2). */
    bool priority : 1;
    /** Served-From-Last-level origin bit (L2 only, §5.1). */
    bool sfl : 1;
    /** Filled by a prefetch and not yet demanded. */
    bool prefetched : 1;
};
static_assert(sizeof(CacheLine) == 1, "CacheLine is one byte of flags");

/** One set-associative array plus its replacement policy. */
class Cache
{
  public:
    struct Config
    {
        std::string name = "cache";
        std::uint64_t sizeBytes = 1 << 20;
        unsigned ways = 16;
        unsigned lineBytes = 64;
        unsigned hitLatency = 12;
        replacement::PolicySpec policy;
        std::uint64_t seed = 0xCAFEF00DULL;
        /**
         * Sampled-set monitor support (UMON/DEW idiom): the array
         * indexes with set = (line >> indexShift) & (sets-1), and
         * the low indexShift address bits of every line it holds are
         * 0. A 1-in-K sampled lane models sets/K sets with
         * indexShift = log2(K) and holds residue-0 lines only;
         * full-size caches keep the default 0.
         */
        unsigned indexShift = 0;
    };

    /**
     * Where a resident line lives. lookup() finds it with one tag
     * compare over its set; the hit path, dirty marking and state
     * reads then act on it without another. A slot stays valid until
     * the next insert() or invalidate() on its set.
     */
    struct Slot
    {
        static constexpr unsigned kAbsent = ~0u;
        unsigned set = 0;
        unsigned way = kAbsent;

        /** False for the slot of an absent line. */
        explicit operator bool() const { return way != kAbsent; }
    };

    /**
     * What insert() or invalidate() did. slot names the way the
     * operation touched — where the new line landed or already lived
     * (insert), or the line was removed from (invalidate) — so callers
     * can act on the line, and keep position-keyed state (the L1
     * slots of cache/miss_log.hh), without another lookup. valid: a
     * line was displaced (insert) or removed (invalidate), with its
     * address and state in lineAddr and line.
     */
    struct Eviction
    {
        bool valid = false;
        /** insert() only: the line was already resident, at slot, and
         *  nothing changed. */
        bool resident = false;
        std::uint64_t lineAddr = 0;
        Slot slot;
        CacheLine line;
    };

    explicit Cache(const Config &config);

    const Config &config() const { return config_; }
    unsigned numSets() const { return sets_; }
    unsigned numWays() const { return config_.ways; }

    /** Set index for a line address (address already >> line bits). */
    unsigned setIndex(std::uint64_t line_addr) const;

    /** Where @p line_addr lives; a false slot when absent. Touches no
     *  replacement state. */
    Slot lookup(std::uint64_t line_addr) const;

    /** The line at @p slot, which must hold one. */
    const CacheLine &
    line(Slot slot) const
    {
        return lines_[index(slot)];
    }

    /** @p slot's position in the array, set * ways + way: the L1 slot
     *  id of cache/miss_log.hh. */
    unsigned
    index(Slot slot) const
    {
        return slot.set * config_.ways + slot.way;
    }

    /** Non-mutating lookup; nullptr when absent. */
    const CacheLine *peek(std::uint64_t line_addr) const;

    /** Hit path: update replacement state of the line at @p slot. */
    void touch(Slot slot);
    /** touch() of @p line_addr's slot; the line must be present. */
    void touch(std::uint64_t line_addr);

    /**
     * Fill @p line_addr, evicting if the set is full. One pass over
     * the set's tag lane finds the line or the first free way. A line
     * that is already resident is reported (Eviction::resident, its
     * slot and state) and left as it is.
     *
     * @param line_addr Line address to fill.
     * @param info Replacement-policy context (priority, MRU hint).
     * @param is_instruction Line holds instructions.
     * @param dirty Fill already dirty (write-allocate store).
     * @param sfl Served-from-L3 origin bit.
     * @param prefetched Filled by a prefetch.
     * @return The displaced line, if any, and the line's slot.
     */
    Eviction insert(std::uint64_t line_addr,
                    const replacement::LineInfo &info,
                    bool is_instruction, bool dirty, bool sfl,
                    bool prefetched);

    /**
     * Remove a line (back-invalidation / exclusive promotion).
     * @return The removed line state; Eviction::valid false if absent.
     */
    Eviction invalidate(std::uint64_t line_addr);

    /** Demand-miss feedback to set-dueling policies. */
    void noteDemandMiss(std::uint64_t line_addr);

    /** Mark the line at @p slot dirty (a store hit, a write-back). */
    void markDirty(Slot slot);

    /** EMISSARY: raise the priority bit of a resident line. */
    void raisePriority(std::uint64_t line_addr);

    /** EMISSARY §6: clear every priority bit (cache + policy). */
    void resetPriorities();

    /** Per-set count of P=1 lines, as a histogram over 0..ways
     *  (counts above ways are clamped); Fig. 8. */
    stats::DenseHistogram priorityDistribution() const;

    /**
     * Raw Fig. 8 occupancy counts: element k is the number of sets
     * holding exactly k P=1 lines. The sampler probes this every
     * interval, so EMISSARY arrays answer from the policy's cached
     * per-set protected counts (O(sets)) instead of scanning every
     * line.
     */
    std::vector<std::uint64_t> priorityOccupancy() const;

    /** Number of resident lines with P=1 (testing). */
    std::uint64_t highPriorityLineCount() const;

    replacement::ReplacementPolicy &policy() { return policy_; }
    const replacement::ReplacementPolicy &policy() const
    {
        return policy_;
    }
    const replacement::PolicySpec &spec() const { return config_.policy; }

    /** RNG used for mode selection draws (R(r) terms). */
    Rng &selectionRng() { return rng_; }

  private:
    /**
     * Tag value stored for invalid ways in the SoA tag array. Real
     * tags are line_addr >> log2(sets) with line_addr < 2^58, so
     * all-ones can never collide with a resident line.
     */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

    int findWay(unsigned set, std::uint64_t tag) const;

  public:
    /**
     * Portable scalar tag compare over one set's contiguous tag lane
     * — the reference the vectorized findWay is cross-checked
     * against (tests/test_cache_model.cpp).
     */
    static int findWayScalar(const std::uint64_t *tags, unsigned ways,
                             std::uint64_t tag);
    /** Vectorized tag compare (SSE2/AVX2/NEON; scalar fallback). */
    static int findWayVector(const std::uint64_t *tags, unsigned ways,
                             std::uint64_t tag);
    /**
     * insert()'s one pass: the way holding @p tag, or -1 with the
     * first way holding kInvalidTag in @p free (-1 when the lane is
     * full). Vectorized like findWayVector.
     */
    static int findWayOrFree(const std::uint64_t *tags, unsigned ways,
                             std::uint64_t tag, int &free);

  private:
    Config config_;
    unsigned sets_;
    unsigned setShift_;
    /** Bits below the tag: setShift_ + config.indexShift. */
    unsigned tagShift_;
    /**
     * Struct-of-arrays: per-set contiguous tags, so findWay streams
     * through one or two host cache lines, and one flag byte per way
     * beside them. A way is valid iff its tag is not kInvalidTag (an
     * invalid way's line is CacheLine{}).
     */
    std::vector<std::uint64_t> tags_;
    std::vector<CacheLine> lines_;
    replacement::ReplacementPolicy policy_;
    Rng rng_;
};

} // namespace emissary::cache

#endif // EMISSARY_CACHE_CACHE_HH
