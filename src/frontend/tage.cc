#include "frontend/tage.hh"

#include <bit>
#include <cassert>

namespace emissary::frontend
{

unsigned
historyRingSize(unsigned max_length)
{
    return std::bit_ceil(max_length + 1);
}

void
FoldedHistory::init(unsigned orig_length, unsigned compressed_length)
{
    comp_ = 0;
    origLength_ = orig_length;
    compLength_ = compressed_length == 0 ? 1 : compressed_length;
    outPoint_ = orig_length % compLength_;
}

void
FoldedHistory::update(const std::vector<std::uint8_t> &history,
                      unsigned pos)
{
    // history[pos] is the newest bit; the bit leaving the window is
    // origLength_ positions older.
    const unsigned mask = static_cast<unsigned>(history.size()) - 1;
    const std::uint32_t in_bit = history[pos];
    const std::uint32_t out_bit = history[(pos - origLength_) & mask];

    comp_ = (comp_ << 1) | in_bit;
    comp_ ^= out_bit << outPoint_;
    comp_ ^= comp_ >> compLength_;
    comp_ &= (std::uint32_t{1} << compLength_) - 1;
}

Tage::Tage() : Tage(Config())
{
}

Tage::Tage(const Config &config) : config_(config), rng_(config.seed)
{
    bimodal_.assign(std::size_t{1} << config_.bimodalLog, 0);
    const unsigned n = static_cast<unsigned>(
        config_.historyLengths.size());
    assert(n <= 8 && "Snapshot::indices sized for <= 8 tables");
    tables_.assign(n, std::vector<TaggedEntry>(
                          std::size_t{1} << config_.tableLog));
    indexFold_.resize(n);
    tagFold1_.resize(n);
    tagFold2_.resize(n);
    unsigned max_len = 0;
    for (unsigned t = 0; t < n; ++t) {
        const unsigned len = config_.historyLengths[t];
        max_len = std::max(max_len, len);
        indexFold_[t].init(len, config_.tableLog);
        tagFold1_[t].init(len, config_.tagBits);
        tagFold2_[t].init(len, config_.tagBits - 1);
    }
    history_.assign(historyRingSize(max_len), 0);
}

unsigned
Tage::bimodalIndex(std::uint64_t pc) const
{
    return static_cast<unsigned>((pc >> 2) &
                                 ((std::uint64_t{1}
                                   << config_.bimodalLog) -
                                  1));
}

unsigned
Tage::tableIndex(std::uint64_t pc, unsigned table) const
{
    const std::uint64_t p = pc >> 2;
    const std::uint64_t mask =
        (std::uint64_t{1} << config_.tableLog) - 1;
    return static_cast<unsigned>(
        (p ^ (p >> (config_.tableLog - table - 1)) ^
         indexFold_[table].value()) &
        mask);
}

std::uint16_t
Tage::tableTag(std::uint64_t pc, unsigned table) const
{
    const std::uint64_t p = pc >> 2;
    const std::uint64_t mask =
        (std::uint64_t{1} << config_.tagBits) - 1;
    return static_cast<std::uint16_t>(
        (p ^ tagFold1_[table].value() ^
         (std::uint64_t{tagFold2_[table].value()} << 1)) &
        mask);
}

bool
Tage::predict(std::uint64_t pc)
{
    ++lookups_;
    last_ = Snapshot{};
    last_.pc = pc;

    const unsigned n = static_cast<unsigned>(tables_.size());
    for (unsigned t = 0; t < n; ++t) {
        last_.indices[t] = tableIndex(pc, t);
        last_.tags[t] = tableTag(pc, t);
    }

    // Longest-history matching table provides, next one alternates.
    for (int t = static_cast<int>(n) - 1; t >= 0; --t) {
        const TaggedEntry &e = tables_[t][last_.indices[t]];
        if (e.tag == last_.tags[t]) {
            if (last_.provider < 0) {
                last_.provider = t;
                last_.providerPred = e.ctr >= 0;
            } else if (last_.altProvider < 0) {
                last_.altProvider = t;
                last_.altPred = e.ctr >= 0;
                break;
            }
        }
    }

    const bool bimodal_pred = bimodal_[bimodalIndex(pc)] >= 0;
    if (last_.provider < 0) {
        last_.pred = bimodal_pred;
    } else {
        if (last_.altProvider < 0)
            last_.altPred = bimodal_pred;
        last_.pred = last_.providerPred;
    }
    return last_.pred;
}

void
Tage::pushHistory(bool bit)
{
    historyPos_ = (historyPos_ + 1) &
                  (static_cast<unsigned>(history_.size()) - 1);
    history_[historyPos_] = bit ? 1 : 0;
    const unsigned n = static_cast<unsigned>(tables_.size());
    for (unsigned t = 0; t < n; ++t) {
        indexFold_[t].update(history_, historyPos_);
        tagFold1_[t].update(history_, historyPos_);
        tagFold2_[t].update(history_, historyPos_);
    }
}

void
Tage::update(std::uint64_t pc, bool taken)
{
    assert(last_.pc == pc && "update must follow predict for same pc");
    const unsigned n = static_cast<unsigned>(tables_.size());
    const bool correct = last_.pred == taken;

    auto bump = [](std::int8_t &ctr, bool up, int lo, int hi) {
        if (up && ctr < hi)
            ++ctr;
        else if (!up && ctr > lo)
            --ctr;
    };

    if (last_.provider >= 0) {
        TaggedEntry &e =
            tables_[last_.provider][last_.indices[last_.provider]];
        // Useful counter: provider was useful when it disagreed with
        // the alternate and was right.
        if (last_.providerPred != last_.altPred) {
            if (last_.providerPred == taken) {
                if (e.useful < 3)
                    ++e.useful;
            } else if (e.useful > 0) {
                --e.useful;
            }
        }
        bump(e.ctr, taken, -4, 3);
    } else {
        bump(bimodal_[bimodalIndex(pc)], taken, -2, 1);
    }

    // Allocate a longer-history entry on a misprediction.
    if (!correct &&
        last_.provider < static_cast<int>(n) - 1) {
        const unsigned start = static_cast<unsigned>(last_.provider + 1);
        // Try tables above the provider; prefer not-useful entries,
        // with a random skip to spread allocations.
        unsigned first = start;
        if (start + 1 < n && rng_.oneIn(2))
            first = start + 1;
        bool allocated = false;
        for (unsigned t = first; t < n && !allocated; ++t) {
            TaggedEntry &e = tables_[t][last_.indices[t]];
            if (e.useful == 0) {
                e.tag = last_.tags[t];
                e.ctr = taken ? 0 : -1;
                allocated = true;
            }
        }
        if (!allocated) {
            // Decay usefulness so future allocations can succeed.
            for (unsigned t = start; t < n; ++t) {
                TaggedEntry &e = tables_[t][last_.indices[t]];
                if (e.useful > 0)
                    --e.useful;
            }
        }
    }

    pushHistory(taken);
}

void
Tage::updateUnconditional(std::uint64_t pc, bool taken)
{
    // Fold a path bit into the history for unconditional transfers so
    // call-chains disambiguate histories, as real TAGE front-ends do.
    pushHistory(((pc >> 2) ^ (taken ? 1 : 0)) & 1);
}

} // namespace emissary::frontend
