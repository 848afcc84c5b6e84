#include "replacement/emissary.hh"

#include <algorithm>
#include <cassert>
#include <limits>

namespace emissary::replacement
{

namespace
{

/** Record bit of a compared count; counts past 63 only occur in
 *  caches too wide for sameRunRange, which then ignores the record. */
std::uint64_t
countBit(unsigned count)
{
    return std::uint64_t{1} << (count & 63);
}

} // namespace

EmissaryPolicy::EmissaryPolicy(unsigned num_sets, unsigned num_ways,
                               unsigned max_protected, bool tree_plru,
                               std::string label)
    : ReplacementPolicy(num_sets, num_ways),
      label_(std::move(label)),
      maxProtected_(max_protected),
      treePlru_(tree_plru)
{
    priority_.assign(std::size_t{num_sets} * num_ways, 0);
    highCount_.assign(num_sets, 0);
    if (treePlru_) {
        lowTrees_.assign(num_sets, PlruTree(num_ways));
        highTrees_.assign(num_sets, PlruTree(num_ways));
    } else {
        stamps_.assign(std::size_t{num_sets} * num_ways,
                       std::numeric_limits<std::int64_t>::min() / 2);
    }
}

std::uint8_t &
EmissaryPolicy::prio(unsigned set, unsigned way)
{
    return priority_[std::size_t{set} * ways_ + way];
}

bool
EmissaryPolicy::linePriority(unsigned set, unsigned way) const
{
    return priority_[std::size_t{set} * ways_ + way] != 0;
}

unsigned
EmissaryPolicy::protectedCount(unsigned set) const
{
    return highCount_[set];
}

unsigned
EmissaryPolicy::victimTrueLru(unsigned set, bool among_high) const
{
    unsigned victim = ways_;
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (unsigned w = 0; w < ways_; ++w) {
        if (linePriority(set, w) != among_high)
            continue;
        const std::int64_t s = stamps_[std::size_t{set} * ways_ + w];
        if (s < best) {
            best = s;
            victim = w;
        }
    }
    assert(victim < ways_ && "no line in requested priority class");
    return victim;
}

unsigned
EmissaryPolicy::victimTree(unsigned set, bool among_high)
{
    PlruTree &tree = among_high ? highTrees_[set] : lowTrees_[set];
    return tree.victimAmong([this, set, among_high](unsigned w) {
        return linePriority(set, w) == among_high;
    });
}

unsigned
EmissaryPolicy::selectVictim(unsigned set)
{
    // Algorithm 1: protect up to N high-priority lines. When the set
    // holds no more than N high-priority lines, the victim comes from
    // the low-priority class; otherwise from the high-priority class.
    const unsigned high = highCount_[set];
    victimCounts_ |= countBit(high);
    bool among_high = high > maxProtected_;
    if (!among_high && high == ways_) {
        // Degenerate guard: every line is high-priority (only
        // possible when N >= ways); fall back to the high class.
        among_high = true;
    }
    if (treePlru_)
        return victimTree(set, among_high);
    return victimTrueLru(set, among_high);
}

void
EmissaryPolicy::onInsert(unsigned set, unsigned way,
                         const LineInfo &info)
{
    std::uint8_t &p = prio(set, way);
    assert(!p && "cache must invalidate a way before re-filling it");
    p = info.highPriority ? 1 : 0;
    if (p)
        ++highCount_[set];

    if (treePlru_) {
        (p ? highTrees_[set] : lowTrees_[set]).touch(way);
    } else {
        stamps_[std::size_t{set} * ways_ + way] = ++clock_;
    }
}

void
EmissaryPolicy::onHit(unsigned set, unsigned way, const LineInfo &info)
{
    (void)info;
    // Only the tree matching the line's priority class is updated
    // (§4.2): a hit on a high-priority line must not disturb the
    // low-priority recency order, and vice versa.
    if (treePlru_) {
        (linePriority(set, way) ? highTrees_[set] : lowTrees_[set])
            .touch(way);
    } else {
        stamps_[std::size_t{set} * ways_ + way] = ++clock_;
    }
}

void
EmissaryPolicy::onInvalidate(unsigned set, unsigned way)
{
    std::uint8_t &p = prio(set, way);
    if (p) {
        assert(highCount_[set] > 0);
        --highCount_[set];
    }
    p = 0;
    if (!treePlru_) {
        stamps_[std::size_t{set} * ways_ + way] =
            std::numeric_limits<std::int64_t>::min() / 2;
    }
}

bool
EmissaryPolicy::setPriority(unsigned set, unsigned way, bool high)
{
    std::uint8_t &p = prio(set, way);
    if ((p != 0) == high)
        return true;
    // Priority is sticky for a line's lifetime: it can be raised (an
    // L1I eviction communicating starvation history) but is only
    // cleared by invalidation or the global reset. Upgrades are
    // refused once the set already protects N lines: the protected
    // population per set never exceeds N (Fig. 8 shows occupancies
    // of 0..N only), which also keeps an oversubscribed set from
    // churning its own protected lines.
    if (high) {
        upgradeCounts_ |= countBit(highCount_[set]);
        if (highCount_[set] >= maxProtected_)
            return false;
        p = 1;
        ++highCount_[set];
        if (treePlru_) {
            // The line now belongs to the high-priority class; mark
            // it most-recently-used there so it is not immediately
            // chosen when the class overflows.
            highTrees_[set].touch(way);
        }
    }
    return true;
}

ProtectRange
EmissaryPolicy::sameRunRange() const
{
    const unsigned n = maxProtected_;
    if (ways_ >= 64)
        return {n, n};
    ProtectRange range;
    for (unsigned count = 0; count <= ways_; ++count) {
        // Upgrade: refused iff count >= N, so P(n) agrees iff n lies
        // on the same side of count.
        if (upgradeCounts_ & countBit(count)) {
            if (count < n)
                range.lo = std::max(range.lo, count + 1);
            else
                range.hi = std::min(range.hi, count);
        }
        // Victim class: high iff count > N, except that a set of only
        // high-priority lines (count == ways) always evicts from the
        // high class, whatever N is.
        if (count < ways_ && (victimCounts_ & countBit(count))) {
            if (count <= n)
                range.lo = std::max(range.lo, count);
            else
                range.hi = std::min(range.hi, count - 1);
        }
    }
    return range;
}

void
EmissaryPolicy::resetPriorities()
{
    std::fill(priority_.begin(), priority_.end(), 0);
    std::fill(highCount_.begin(), highCount_.end(), 0);
}

} // namespace emissary::replacement
