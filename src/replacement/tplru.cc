#include "replacement/tplru.hh"

#include <stdexcept>

#include "util/bitutil.hh"

namespace emissary::replacement
{

PlruTree::PlruTree(unsigned ways) : ways_(ways)
{
    if (!isPowerOfTwo(ways) || ways < 2 || ways > kMaxWays)
        throw std::invalid_argument("PlruTree: ways must be a power of "
                                    "two from 2 to 64");
}

void
PlruTree::touch(unsigned way)
{
    unsigned node = 0;
    unsigned lo = 0;
    unsigned hi = ways_;
    while (hi - lo > 1) {
        const unsigned mid = lo + (hi - lo) / 2;
        if (way < mid) {
            // Touched left half: point the node right.
            bits_ |= std::uint64_t{1} << node;
            node = 2 * node + 1;
            hi = mid;
        } else {
            bits_ &= ~(std::uint64_t{1} << node);
            node = 2 * node + 2;
            lo = mid;
        }
    }
}

unsigned
PlruTree::victim() const
{
    unsigned node = 0;
    unsigned lo = 0;
    unsigned hi = ways_;
    while (hi - lo > 1) {
        const unsigned mid = lo + (hi - lo) / 2;
        if (bit(node)) {
            node = 2 * node + 2;
            lo = mid;
        } else {
            node = 2 * node + 1;
            hi = mid;
        }
    }
    return lo;
}

TreePlru::TreePlru(unsigned num_sets, unsigned num_ways,
                   std::string label)
    : ReplacementPolicy(num_sets, num_ways), label_(std::move(label))
{
    trees_.assign(num_sets, PlruTree(num_ways));
}

unsigned
TreePlru::selectVictim(unsigned set)
{
    return trees_[set].victim();
}

void
TreePlru::onInsert(unsigned set, unsigned way, const LineInfo &info)
{
    (void)info;
    trees_[set].touch(way);
}

void
TreePlru::onHit(unsigned set, unsigned way, const LineInfo &info)
{
    (void)info;
    trees_[set].touch(way);
}

void
TreePlru::onInvalidate(unsigned set, unsigned way)
{
    (void)set;
    (void)way;
    // Invalid ways are re-filled before the tree is consulted again
    // (the cache prefers invalid ways), so no state change is needed.
}

} // namespace emissary::replacement
