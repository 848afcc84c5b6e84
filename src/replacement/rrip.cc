#include "replacement/rrip.hh"

#include <algorithm>
#include <cassert>

namespace emissary::replacement
{

RripPolicy::RripPolicy(unsigned num_sets, unsigned num_ways,
                       RripMode mode, Rational bip_rate,
                       std::uint64_t seed)
    : sets_(num_sets),
      ways_(num_ways),
      mode_(mode),
      bipRate_(bip_rate),
      rng_(seed)
{
    rrpv_.assign(std::size_t{num_sets} * num_ways, kMaxRrpv);
}

std::string
RripPolicy::name() const
{
    switch (mode_) {
      case RripMode::Static:
        return "SRRIP";
      case RripMode::Bimodal:
        return "BRRIP";
      case RripMode::Dynamic:
        return "DRRIP";
    }
    return "RRIP";
}

std::uint8_t &
RripPolicy::rrpvRef(unsigned set, unsigned way)
{
    return rrpv_[std::size_t{set} * ways_ + way];
}

unsigned
RripPolicy::rrpv(unsigned set, unsigned way) const
{
    return rrpv_[std::size_t{set} * ways_ + way];
}

bool
RripPolicy::isSrripLeader(unsigned set) const
{
    // Leader sets are spread through the array: one per stride, with
    // the two policies offset so they never collide.
    const unsigned stride = std::max(1u, sets_ / (2 * kLeaderSets));
    return (set % (2 * stride)) == 0 && set / (2 * stride) < kLeaderSets;
}

bool
RripPolicy::isBrripLeader(unsigned set) const
{
    const unsigned stride = std::max(1u, sets_ / (2 * kLeaderSets));
    return (set % (2 * stride)) == stride &&
           set / (2 * stride) < kLeaderSets;
}

bool
RripPolicy::useBimodalInsert(unsigned set)
{
    switch (mode_) {
      case RripMode::Static:
        return false;
      case RripMode::Bimodal:
        return true;
      case RripMode::Dynamic:
        if (isSrripLeader(set))
            return false;
        if (isBrripLeader(set))
            return true;
        return psel_ > 0;
    }
    return false;
}

unsigned
RripPolicy::selectVictim(unsigned set)
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
RripPolicy::onInsert(unsigned set, unsigned way, const LineInfo &info)
{
    if (info.insertMru) {
        // SFL victim-cache hint (§5.1): a line evicted from L2 that
        // was previously served from L3 is inserted at MRU.
        rrpvRef(set, way) = 0;
        return;
    }
    if (useBimodalInsert(set)) {
        rrpvRef(set, way) = bipRate_.draw(rng_)
                                ? static_cast<std::uint8_t>(kMaxRrpv - 1)
                                : static_cast<std::uint8_t>(kMaxRrpv);
    } else {
        rrpvRef(set, way) = kMaxRrpv - 1;
    }
}

void
RripPolicy::onHit(unsigned set, unsigned way, const LineInfo &info)
{
    (void)info;
    // Frequency promotion, as the paper describes for its RRIP
    // comparators (§5.5): reused lines step toward the highest
    // priority state rather than jumping there, and once every line
    // in the set has reached it the whole set is reset to a low
    // priority state. With the high L2 hit rates of datacenter code
    // this reset fires often and discards recency information, which
    // is precisely why these policies underperform there.
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
RripPolicy::onInvalidate(unsigned set, unsigned way)
{
    rrpvRef(set, way) = kMaxRrpv;
}

void
RripPolicy::onMiss(unsigned set)
{
    if (mode_ != RripMode::Dynamic)
        return;
    // A miss in an SRRIP leader argues for BRRIP and vice versa.
    if (isSrripLeader(set))
        psel_ = std::min(psel_ + 1, kPselMax);
    else if (isBrripLeader(set))
        psel_ = std::max(psel_ - 1, -kPselMax - 1);
}

} // namespace emissary::replacement
