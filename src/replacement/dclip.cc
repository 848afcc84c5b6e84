#include "replacement/dclip.hh"

#include <algorithm>

namespace emissary::replacement
{

DclipPolicy::DclipPolicy(unsigned num_sets, unsigned num_ways)
    : sets_(num_sets), ways_(num_ways)
{
    rrpv_.assign(std::size_t{num_sets} * num_ways, kMaxRrpv);
    isInst_.assign(std::size_t{num_sets} * num_ways, 0);
}

std::uint8_t &
DclipPolicy::rrpvRef(unsigned set, unsigned way)
{
    return rrpv_[std::size_t{set} * ways_ + way];
}

bool
DclipPolicy::isClipLeader(unsigned set) const
{
    const unsigned stride = std::max(1u, sets_ / (2 * kLeaderSets));
    return (set % (2 * stride)) == 0 && set / (2 * stride) < kLeaderSets;
}

bool
DclipPolicy::isSrripLeader(unsigned set) const
{
    const unsigned stride = std::max(1u, sets_ / (2 * kLeaderSets));
    return (set % (2 * stride)) == stride &&
           set / (2 * stride) < kLeaderSets;
}

bool
DclipPolicy::useClip(unsigned set) const
{
    if (isClipLeader(set))
        return true;
    if (isSrripLeader(set))
        return false;
    return psel_ <= 0;
}

unsigned
DclipPolicy::selectVictim(unsigned set)
{
    while (true) {
        for (unsigned w = 0; w < ways_; ++w)
            if (rrpvRef(set, w) >= kMaxRrpv)
                return w;
        for (unsigned w = 0; w < ways_; ++w)
            ++rrpvRef(set, w);
    }
}

void
DclipPolicy::onInsert(unsigned set, unsigned way, const LineInfo &info)
{
    isInst_[std::size_t{set} * ways_ + way] = info.isInstruction;
    if (info.insertMru) {
        rrpvRef(set, way) = 0;
        return;
    }
    if (info.isInstruction && useClip(set))
        rrpvRef(set, way) = 0;
    else
        rrpvRef(set, way) = kMaxRrpv - 1;
}

void
DclipPolicy::onHit(unsigned set, unsigned way, const LineInfo &info)
{
    (void)info;
    // Same frequency-promotion substrate as RripPolicy (see there).
    std::uint8_t &r = rrpvRef(set, way);
    if (r > 0)
        --r;
    if (r == 0) {
        bool all_zero = true;
        for (unsigned w = 0; w < ways_ && all_zero; ++w)
            all_zero = rrpvRef(set, w) == 0;
        if (all_zero) {
            for (unsigned w = 0; w < ways_; ++w)
                rrpvRef(set, w) = kMaxRrpv - 1;
            r = 0;
        }
    }
}

void
DclipPolicy::onInvalidate(unsigned set, unsigned way)
{
    rrpvRef(set, way) = kMaxRrpv;
    isInst_[std::size_t{set} * ways_ + way] = 0;
}

void
DclipPolicy::onMiss(unsigned set)
{
    if (isClipLeader(set))
        psel_ = std::min(psel_ + 1, kPselMax);
    else if (isSrripLeader(set))
        psel_ = std::max(psel_ - 1, -kPselMax - 1);
}

} // namespace emissary::replacement
