#include "replacement/lru.hh"

#include <algorithm>
#include <cassert>
#include <limits>

namespace emissary::replacement
{

InsertionLru::InsertionLru(unsigned num_sets, unsigned num_ways,
                           std::string label)
    : label_(std::move(label)), ways_(num_ways)
{
    stamps_.assign(std::size_t{num_sets} * num_ways,
                   std::numeric_limits<std::int64_t>::min() / 2);
}

std::int64_t &
InsertionLru::stamp(unsigned set, unsigned way)
{
    return stamps_[std::size_t{set} * ways_ + way];
}

const std::int64_t &
InsertionLru::stamp(unsigned set, unsigned way) const
{
    return stamps_[std::size_t{set} * ways_ + way];
}

unsigned
InsertionLru::selectVictim(unsigned set)
{
    unsigned victim = 0;
    std::int64_t best = stamp(set, 0);
    for (unsigned w = 1; w < ways_; ++w) {
        if (stamp(set, w) < best) {
            best = stamp(set, w);
            victim = w;
        }
    }
    return victim;
}

void
InsertionLru::onInsert(unsigned set, unsigned way, const LineInfo &info)
{
    if (info.highPriority || info.insertMru) {
        stamp(set, way) = ++clock_;
        return;
    }
    // LRU-position insert: strictly older than everything resident.
    std::int64_t oldest = std::numeric_limits<std::int64_t>::max();
    for (unsigned w = 0; w < ways_; ++w)
        oldest = std::min(oldest, stamp(set, w));
    stamp(set, way) = oldest - 1;
}

void
InsertionLru::onHit(unsigned set, unsigned way, const LineInfo &info)
{
    (void)info;
    stamp(set, way) = ++clock_;
}

void
InsertionLru::onInvalidate(unsigned set, unsigned way)
{
    stamp(set, way) = std::numeric_limits<std::int64_t>::min() / 2;
}

unsigned
InsertionLru::recencyRank(unsigned set, unsigned way) const
{
    unsigned rank = 0;
    for (unsigned w = 0; w < ways_; ++w)
        if (w != way && stamp(set, w) < stamp(set, way))
            ++rank;
    return rank;
}

} // namespace emissary::replacement
