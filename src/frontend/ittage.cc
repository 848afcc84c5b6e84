#include "frontend/ittage.hh"

#include <cassert>

namespace emissary::frontend
{

Ittage::Ittage() : Ittage(Config())
{
}

Ittage::Ittage(const Config &config) : config_(config), rng_(config.seed)
{
    const unsigned n =
        static_cast<unsigned>(config_.historyLengths.size());
    assert(n <= 8);
    tables_.assign(n,
                   std::vector<Entry>(std::size_t{1} << config_.tableLog));
    indexFold_.resize(n);
    tagFold_.resize(n);
    unsigned max_len = 0;
    for (unsigned t = 0; t < n; ++t) {
        const unsigned len = config_.historyLengths[t];
        max_len = std::max(max_len, len);
        indexFold_[t].init(len, config_.tableLog);
        tagFold_[t].init(len, config_.tagBits);
    }
    history_.assign(historyRingSize(max_len), 0);
}

unsigned
Ittage::tableIndex(std::uint64_t pc, unsigned table) const
{
    const std::uint64_t p = pc >> 2;
    const std::uint64_t mask =
        (std::uint64_t{1} << config_.tableLog) - 1;
    return static_cast<unsigned>(
        (p ^ (p >> (table + 3)) ^ indexFold_[table].value()) & mask);
}

std::uint16_t
Ittage::tableTag(std::uint64_t pc, unsigned table) const
{
    const std::uint64_t mask =
        (std::uint64_t{1} << config_.tagBits) - 1;
    return static_cast<std::uint16_t>(
        ((pc >> 2) ^ (tagFold_[table].value() << 1)) & mask);
}

std::uint64_t
Ittage::predict(std::uint64_t pc, std::uint64_t base_target)
{
    last_ = Snapshot{};
    last_.pc = pc;
    const unsigned n = static_cast<unsigned>(tables_.size());
    for (unsigned t = 0; t < n; ++t) {
        last_.indices[t] = tableIndex(pc, t);
        last_.tags[t] = tableTag(pc, t);
    }
    for (int t = static_cast<int>(n) - 1; t >= 0; --t) {
        const Entry &e = tables_[t][last_.indices[t]];
        if (e.tag == last_.tags[t] && e.target != 0) {
            last_.provider = t;
            last_.pred = e.target;
            break;
        }
    }
    if (last_.provider < 0)
        last_.pred = base_target;
    return last_.pred;
}

void
Ittage::pushHistory(std::uint64_t target)
{
    // Two folded path bits per resolved indirect keep histories
    // distinct even for targets that agree in their low bits.
    const std::uint64_t folded =
        target ^ (target >> 7) ^ (target >> 13) ^ (target >> 23);
    const unsigned mask = static_cast<unsigned>(history_.size()) - 1;
    for (int i = 0; i < 2; ++i) {
        historyPos_ = (historyPos_ + 1) & mask;
        history_[historyPos_] =
            static_cast<std::uint8_t>((folded >> (2 + i)) & 1);
        for (unsigned t = 0; t < tables_.size(); ++t) {
            indexFold_[t].update(history_, historyPos_);
            tagFold_[t].update(history_, historyPos_);
        }
    }
}

void
Ittage::update([[maybe_unused]] std::uint64_t pc, std::uint64_t target)
{
    assert(last_.pc == pc && "update must follow predict for same pc");
    const unsigned n = static_cast<unsigned>(tables_.size());
    const bool correct = last_.pred == target;

    if (last_.provider >= 0) {
        Entry &e = tables_[last_.provider][last_.indices[last_.provider]];
        if (e.target == target) {
            if (e.conf < 3)
                ++e.conf;
            e.useful = 1;
        } else if (e.conf > 0) {
            --e.conf;
        } else {
            e.target = target;
            e.conf = 1;
            e.useful = 0;
        }
    }

    if (!correct && last_.provider < static_cast<int>(n) - 1) {
        const unsigned start =
            static_cast<unsigned>(last_.provider + 1);
        bool allocated = false;
        for (unsigned t = start; t < n && !allocated; ++t) {
            Entry &e = tables_[t][last_.indices[t]];
            if (e.useful == 0) {
                e.tag = last_.tags[t];
                e.target = target;
                e.conf = 1;
                allocated = true;
            }
        }
        if (!allocated) {
            for (unsigned t = start; t < n; ++t)
                tables_[t][last_.indices[t]].useful = 0;
        }
    }

    pushHistory(target);
}

} // namespace emissary::frontend
