/**
 * @file
 * A single set-associative cache array.
 *
 * The cache owns line state (tag, valid, dirty, instruction/data,
 * the EMISSARY priority bit, and the SFL origin bit) and delegates
 * victim choice and recency bookkeeping to a ReplacementPolicy.
 * Timing lives in the Hierarchy; this class is purely structural.
 */

#ifndef EMISSARY_CACHE_CACHE_HH
#define EMISSARY_CACHE_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "replacement/spec.hh"
#include "stats/histogram.hh"
#include "util/rng.hh"

namespace emissary::replacement
{
class TreePlru;
class EmissaryPolicy;
} // namespace emissary::replacement

namespace emissary::cache
{

/** State of one cache line. */
struct CacheLine
{
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    bool isInstruction = false;
    /** EMISSARY sticky priority bit P (meaningful in L1I and L2). */
    bool priority = false;
    /** Served-From-Last-level origin bit (L2 only, §5.1). */
    bool sfl = false;
    /** Filled by a prefetch and not yet demanded. */
    bool prefetched = false;
};

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
         * indexes with set = (line >> indexShift) & (sets-1) and the
         * low indexShift address bits are the constant indexOffset.
         * A 1-in-K sampled lane models sets/K sets with
         * indexShift = log2(K) and indexOffset = the sampled residue;
         * full-size caches keep the defaults (identical indexing to
         * before).
         */
        unsigned indexShift = 0;
        std::uint64_t indexOffset = 0;
    };

    /**
     * What insert() pushed out, if anything. set/way name the slot
     * the operation touched — where the new line landed (insert) or
     * the line was removed from (invalidate) — and are filled even
     * when no line was displaced, so callers can maintain
     * position-keyed state (the L1 slots of cache/miss_log.hh).
     */
    struct Eviction
    {
        bool valid = false;
        std::uint64_t lineAddr = 0;
        unsigned set = 0;
        unsigned way = 0;
        CacheLine line;
    };

    explicit Cache(const Config &config);

    const Config &config() const { return config_; }
    unsigned numSets() const { return sets_; }
    unsigned numWays() const { return config_.ways; }

    /** Set index for a line address (address already >> line bits). */
    unsigned setIndex(std::uint64_t line_addr) const;

    /** Non-mutating lookup; nullptr when absent. */
    const CacheLine *peek(std::uint64_t line_addr) const;
    CacheLine *peek(std::uint64_t line_addr);

    /**
     * Non-mutating position probe: where @p line_addr lives, without
     * touching replacement state. The hierarchy names the L1D slot of
     * a logged store with it (cache/miss_log.hh).
     * @return true and fills @p set / @p way when resident.
     */
    bool findPosition(std::uint64_t line_addr, unsigned &set,
                      unsigned &way) const;

    /** Hit path: update replacement state; line must be present. */
    void touch(std::uint64_t line_addr);

    /**
     * Fill @p line_addr, evicting if the set is full.
     *
     * @param line_addr Line address to fill.
     * @param info Replacement-policy context (priority, MRU hint).
     * @param is_instruction Line holds instructions.
     * @param dirty Fill already dirty (write-allocate store).
     * @param sfl Served-from-L3 origin bit.
     * @param prefetched Filled by a prefetch.
     * @return The displaced line, if any.
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

    /** Mark a store hit dirty. */
    void markDirty(std::uint64_t line_addr);

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

    replacement::ReplacementPolicy &policy() { return *policy_; }
    const replacement::ReplacementPolicy &policy() const
    {
        return *policy_;
    }
    const replacement::PolicySpec &spec() const { return spec_; }

    /** RNG used for mode selection draws (R(r) terms). */
    Rng &selectionRng() { return rng_; }

  private:
    /**
     * Tag value stored for invalid ways in the SoA tag array. Real
     * tags are line_addr >> log2(sets) with line_addr < 2^58, so
     * all-ones can never collide with a resident line.
     */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

    /** Concrete policy type behind policy_, resolved once at
     *  construction so the per-access hit/insert/victim dispatch for
     *  the dominant TPLRU / EMISSARY sweeps is a switch plus a direct
     *  (qualified, non-virtual) call instead of virtual dispatch. */
    enum class HotPolicy : std::uint8_t
    {
        TreePlru,
        Emissary,
        Generic,
    };

    CacheLine &lineAt(unsigned set, unsigned way);
    const CacheLine &lineAt(unsigned set, unsigned way) const;
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

  private:

    // Devirtualized policy notifications (cache.cc).
    void policyHit(unsigned set, unsigned way,
                   const replacement::LineInfo &info);
    void policyInsert(unsigned set, unsigned way,
                      const replacement::LineInfo &info);
    void policyInvalidate(unsigned set, unsigned way);
    unsigned policySelectVictim(unsigned set);

    Config config_;
    replacement::PolicySpec spec_;
    unsigned sets_;
    unsigned setShift_;
    /** Bits below the tag: setShift_ + config.indexShift. */
    unsigned tagShift_;
    /**
     * Lookup path, struct-of-arrays: per-set contiguous tags (invalid
     * ways hold kInvalidTag), so findWay streams through one or two
     * cache lines instead of striding over CacheLine structs.
     * Invariant: tags_[set*ways+w] mirrors lines_[set*ways+w]
     * (tag when valid, kInvalidTag otherwise).
     */
    std::vector<std::uint64_t> tags_;
    std::vector<CacheLine> lines_;
    std::unique_ptr<replacement::ReplacementPolicy> policy_;
    HotPolicy hotPolicy_ = HotPolicy::Generic;
    replacement::TreePlru *treePlru_ = nullptr;
    replacement::EmissaryPolicy *emissary_ = nullptr;
    Rng rng_;
};

} // namespace emissary::cache

#endif // EMISSARY_CACHE_CACHE_HH
