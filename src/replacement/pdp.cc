#include "replacement/pdp.hh"

#include <cassert>

namespace emissary::replacement
{

PdpPolicy::PdpPolicy(unsigned num_sets, unsigned num_ways,
                     unsigned protecting_distance)
    : ways_(num_ways), distance_(protecting_distance)
{
    rpd_.assign(std::size_t{num_sets} * num_ways, 0);
}

std::uint16_t &
PdpPolicy::rpd(unsigned set, unsigned way)
{
    return rpd_[std::size_t{set} * ways_ + way];
}

unsigned
PdpPolicy::remaining(unsigned set, unsigned way) const
{
    return rpd_[std::size_t{set} * ways_ + way];
}

void
PdpPolicy::ageSet(unsigned set)
{
    for (unsigned w = 0; w < ways_; ++w) {
        std::uint16_t &r = rpd(set, w);
        if (r > 0)
            --r;
    }
}

unsigned
PdpPolicy::selectVictim(unsigned set)
{
    // Prefer an unprotected line; otherwise the one closest to
    // becoming unprotected.
    unsigned victim = 0;
    std::uint16_t best = rpd(set, 0);
    for (unsigned w = 0; w < ways_; ++w) {
        const std::uint16_t r = rpd(set, w);
        if (r == 0)
            return w;
        if (r < best) {
            best = r;
            victim = w;
        }
    }
    return victim;
}

void
PdpPolicy::onInsert(unsigned set, unsigned way, const LineInfo &info)
{
    (void)info;
    ageSet(set);
    rpd(set, way) = static_cast<std::uint16_t>(distance_);
}

void
PdpPolicy::onHit(unsigned set, unsigned way, const LineInfo &info)
{
    (void)info;
    ageSet(set);
    rpd(set, way) = static_cast<std::uint16_t>(distance_);
}

void
PdpPolicy::onInvalidate(unsigned set, unsigned way)
{
    rpd(set, way) = 0;
}

} // namespace emissary::replacement
