/**
 * @file
 * TAGE conditional branch direction predictor (Table 4).
 *
 * A bimodal base table backed by several partially-tagged tables
 * indexed with geometrically increasing global-history lengths.
 * Folded-history registers keep index/tag computation O(1) per
 * update. This is a compact faithful TAGE, not a contest build:
 * provider/alternate selection, useful counters, and on-mispredict
 * allocation into longer-history tables are all modelled.
 */

#ifndef EMISSARY_FRONTEND_TAGE_HH
#define EMISSARY_FRONTEND_TAGE_HH

#include <cstdint>
#include <vector>

#include "util/rng.hh"

namespace emissary::frontend
{

/**
 * Size of a raw-history ring that holds the last @p max_length bits
 * plus the incoming one: the smallest power of two above
 * @p max_length, so ring positions wrap with a mask.
 */
unsigned historyRingSize(unsigned max_length);

/** Incrementally folded global history for one table. */
class FoldedHistory
{
  public:
    void init(unsigned orig_length, unsigned compressed_length);

    /**
     * Shift in the newest bit and retire the oldest one. @p history
     * is a ring whose size is a power of two longer than every
     * folded length; @p pos indexes its newest bit.
     */
    void update(const std::vector<std::uint8_t> &history, unsigned pos);

    std::uint32_t value() const { return comp_; }

  private:
    std::uint32_t comp_ = 0;
    unsigned compLength_ = 1;
    unsigned origLength_ = 0;
    unsigned outPoint_ = 0;
};

/** TAGE direction predictor. */
class Tage
{
  public:
    struct Config
    {
        unsigned bimodalLog = 13;      ///< log2 base-table entries.
        unsigned tableLog = 10;        ///< log2 tagged-table entries.
        unsigned tagBits = 9;
        std::vector<unsigned> historyLengths = {8, 24, 64, 160};
        std::uint64_t seed = 0x7A6EULL;
    };

    Tage();
    explicit Tage(const Config &config);

    /** Predict the direction of the conditional branch at @p pc. */
    bool predict(std::uint64_t pc);

    /**
     * Train with the resolved outcome and advance global history.
     * Must be called exactly once per predicted branch, in order.
     */
    void update(std::uint64_t pc, bool taken);

    /** Advance history for an unconditional control transfer. */
    void updateUnconditional(std::uint64_t pc, bool taken = true);

    std::uint64_t lookups() const { return lookups_; }

  private:
    struct TaggedEntry
    {
        std::int8_t ctr = 0;      ///< 3-bit signed counter.
        std::uint16_t tag = 0;
        std::uint8_t useful = 0;  ///< 2-bit useful counter.
    };

    unsigned tableIndex(std::uint64_t pc, unsigned table) const;
    std::uint16_t tableTag(std::uint64_t pc, unsigned table) const;
    unsigned bimodalIndex(std::uint64_t pc) const;
    void pushHistory(bool bit);

    /** Result of the last predict(), consumed by update(). */
    struct Snapshot
    {
        std::uint64_t pc = 0;
        int provider = -1;   ///< Table index, -1 = bimodal.
        int altProvider = -1;
        bool providerPred = false;
        bool altPred = false;
        bool pred = false;
        unsigned indices[8] = {};
        std::uint16_t tags[8] = {};
    };

    Config config_;
    std::vector<std::int8_t> bimodal_;  ///< 2-bit counters.
    std::vector<std::vector<TaggedEntry>> tables_;
    std::vector<FoldedHistory> indexFold_;
    std::vector<FoldedHistory> tagFold1_;
    std::vector<FoldedHistory> tagFold2_;
    /** Circular raw history, sized by historyRingSize(). */
    std::vector<std::uint8_t> history_;
    unsigned historyPos_ = 0;
    Snapshot last_;
    Rng rng_;
    std::uint64_t lookups_ = 0;
};

} // namespace emissary::frontend

#endif // EMISSARY_FRONTEND_TAGE_HH
