#include "cache/cache.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "util/bitutil.hh"

#if defined(__AVX2__) || defined(__SSE2__)
#include <immintrin.h>
#elif defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace emissary::cache
{

namespace
{

/** The set count of @p config's geometry, which it checks. */
unsigned
checkedSets(const Cache::Config &config)
{
    const std::uint64_t lines = config.sizeBytes / config.lineBytes;
    if (lines == 0 || lines % config.ways != 0)
        throw std::invalid_argument(config.name + ": size/ways mismatch");
    const auto sets = static_cast<unsigned>(lines / config.ways);
    if (!isPowerOfTwo(sets))
        throw std::invalid_argument(config.name +
                                    ": set count must be a power of 2");
    if (config.indexShift >= 32)
        throw std::invalid_argument(config.name +
                                    ": indexShift must be below 32");
    return sets;
}

} // namespace

Cache::Cache(const Config &config)
    : config_(config),
      sets_(checkedSets(config)),
      setShift_(floorLog2(sets_)),
      tagShift_(setShift_ + config.indexShift),
      tags_(std::size_t{sets_} * config.ways, kInvalidTag),
      lines_(std::size_t{sets_} * config.ways),
      policy_(config.policy, sets_, config.ways,
              config.seed ^ 0x9E3779B9ULL),
      rng_(config.seed)
{
}

unsigned
Cache::setIndex(std::uint64_t line_addr) const
{
    return static_cast<unsigned>((line_addr >> config_.indexShift) &
                                 (sets_ - 1));
}

namespace
{

// matchChunk(tags, needle): bit i set when tags[i] == needle, over
// the kChunk tags at tags (one vector compare).
#if defined(__AVX2__)
constexpr unsigned kChunk = 4;

unsigned
matchChunk(const std::uint64_t *tags, std::uint64_t needle)
{
    const __m256i lane =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(tags));
    const __m256i eq = _mm256_cmpeq_epi64(
        lane, _mm256_set1_epi64x(static_cast<long long>(needle)));
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
}
#elif defined(__SSE2__)
constexpr unsigned kChunk = 2;

unsigned
matchChunk(const std::uint64_t *tags, std::uint64_t needle)
{
    const __m128i lane =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(tags));
    const __m128i wanted = _mm_set1_epi64x(static_cast<long long>(needle));
#if defined(__SSE4_1__)
    const __m128i eq = _mm_cmpeq_epi64(lane, wanted);
#else
    // Plain SSE2 has no 64-bit compare: compare the 32-bit halves,
    // then AND each half with its sibling so an element reads
    // all-ones only when both halves matched.
    const __m128i eq32 = _mm_cmpeq_epi32(lane, wanted);
    const __m128i eq = _mm_and_si128(
        eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
#endif
    return static_cast<unsigned>(_mm_movemask_pd(_mm_castsi128_pd(eq)));
}
#elif defined(__ARM_NEON) && defined(__aarch64__)
constexpr unsigned kChunk = 2;

unsigned
matchChunk(const std::uint64_t *tags, std::uint64_t needle)
{
    const uint64x2_t eq = vceqq_u64(vld1q_u64(tags), vdupq_n_u64(needle));
    return (vgetq_lane_u64(eq, 0) ? 1u : 0u) |
           (vgetq_lane_u64(eq, 1) ? 2u : 0u);
}
#else
constexpr unsigned kChunk = 1;

unsigned
matchChunk(const std::uint64_t *tags, std::uint64_t needle)
{
    return tags[0] == needle ? 1u : 0u;
}
#endif

/**
 * Cache::findWayOrFree, with @p empty the invalid-way tag. Internal
 * and inline so that insert() gets it inlined and keeps @p free in a
 * register.
 */
inline int
wayOrFree(const std::uint64_t *tags, unsigned ways, std::uint64_t tag,
          std::uint64_t empty, int &free)
{
    free = -1;
    unsigned w = 0;
    for (; w + kChunk <= ways; w += kChunk) {
        if (const unsigned hit = matchChunk(tags + w, tag))
            return static_cast<int>(w + std::countr_zero(hit));
        if (free < 0)
            if (const unsigned empties = matchChunk(tags + w, empty))
                free = static_cast<int>(w + std::countr_zero(empties));
    }
    for (; w < ways; ++w) {
        if (tags[w] == tag)
            return static_cast<int>(w);
        if (free < 0 && tags[w] == empty)
            free = static_cast<int>(w);
    }
    return -1;
}

} // namespace

int
Cache::findWayScalar(const std::uint64_t *tags, unsigned ways,
                     std::uint64_t tag)
{
    for (unsigned w = 0; w < ways; ++w) {
        if (tags[w] == tag)
            return static_cast<int>(w);
    }
    return -1;
}

int
Cache::findWayVector(const std::uint64_t *tags, unsigned ways,
                     std::uint64_t tag)
{
    unsigned w = 0;
    for (; w + kChunk <= ways; w += kChunk)
        if (const unsigned hit = matchChunk(tags + w, tag))
            return static_cast<int>(w + std::countr_zero(hit));
    const int tail = findWayScalar(tags + w, ways - w, tag);
    return tail < 0 ? -1 : static_cast<int>(w) + tail;
}

int
Cache::findWayOrFree(const std::uint64_t *tags, unsigned ways,
                     std::uint64_t tag, int &free)
{
    return wayOrFree(tags, ways, tag, kInvalidTag, free);
}

int
Cache::findWay(unsigned set, std::uint64_t tag) const
{
    // Contiguous per-set tag lane: 16 ways compare within two cache
    // lines. Invalid ways hold kInvalidTag and can never match.
    return findWayVector(tags_.data() + std::size_t{set} * config_.ways,
                         config_.ways, tag);
}

Cache::Slot
Cache::lookup(std::uint64_t line_addr) const
{
    Slot slot;
    slot.set = setIndex(line_addr);
    if (const int way = findWay(slot.set, line_addr >> tagShift_); way >= 0)
        slot.way = static_cast<unsigned>(way);
    return slot;
}

const CacheLine *
Cache::peek(std::uint64_t line_addr) const
{
    const Slot slot = lookup(line_addr);
    return slot ? &line(slot) : nullptr;
}

void
Cache::touch(Slot slot)
{
    CacheLine &line = lines_[index(slot)];
    line.prefetched = false;
    replacement::LineInfo info;
    info.isInstruction = line.isInstruction;
    info.highPriority = line.priority;
    policy_.onHit(slot.set, slot.way, info);
}

void
Cache::touch(std::uint64_t line_addr)
{
    // findWay, not lookup(): the compiler inlines it here.
    Slot slot;
    slot.set = setIndex(line_addr);
    const int way = findWay(slot.set, line_addr >> tagShift_);
    assert(way >= 0 && "touch on absent line");
    slot.way = static_cast<unsigned>(way);
    touch(slot);
}

Cache::Eviction
Cache::insert(std::uint64_t line_addr, const replacement::LineInfo &info,
              bool is_instruction, bool dirty, bool sfl, bool prefetched)
{
    Eviction out;
    const unsigned set = setIndex(line_addr);
    out.slot.set = set;
    std::uint64_t *lane = tags_.data() + std::size_t{set} * config_.ways;
    const std::uint64_t tag = line_addr >> tagShift_;
    int free = -1;
    if (const int way = wayOrFree(lane, config_.ways, tag, kInvalidTag, free);
        way >= 0) {
        out.resident = true;
        out.lineAddr = line_addr;
        out.slot.way = static_cast<unsigned>(way);
        out.line = line(out.slot);
        return out;
    }

    if (free >= 0) {
        out.slot.way = static_cast<unsigned>(free);
    } else {
        out.slot.way = policy_.selectVictim(set);
        out.valid = true;
        out.lineAddr = (lane[out.slot.way] << tagShift_) |
                       (std::uint64_t{set} << config_.indexShift);
        out.line = line(out.slot);
        policy_.onInvalidate(set, out.slot.way);
    }
    lane[out.slot.way] = tag;
    CacheLine &placed = lines_[index(out.slot)];
    placed.dirty = dirty;
    placed.isInstruction = is_instruction;
    placed.priority = info.highPriority;
    placed.sfl = sfl;
    placed.prefetched = prefetched;
    policy_.onInsert(set, out.slot.way, info);
    return out;
}

Cache::Eviction
Cache::invalidate(std::uint64_t line_addr)
{
    Eviction out;
    out.slot = lookup(line_addr);
    if (!out.slot)
        return out;
    CacheLine &line = lines_[index(out.slot)];
    out.valid = true;
    out.lineAddr = line_addr;
    out.line = line;
    policy_.onInvalidate(out.slot.set, out.slot.way);
    line = CacheLine{};
    tags_[index(out.slot)] = kInvalidTag;
    return out;
}

void
Cache::noteDemandMiss(std::uint64_t line_addr)
{
    policy_.onMiss(setIndex(line_addr));
}

void
Cache::markDirty(Slot slot)
{
    lines_[index(slot)].dirty = true;
}

void
Cache::raisePriority(std::uint64_t line_addr)
{
    const Slot slot = lookup(line_addr);
    if (!slot)
        return;
    CacheLine &line = lines_[index(slot)];
    if (!line.priority &&
        policy_.setPriority(slot.set, slot.way, true)) {
        line.priority = true;
    }
}

void
Cache::resetPriorities()
{
    for (auto &line : lines_)
        line.priority = false;
    policy_.resetPriorities();
}

stats::DenseHistogram
Cache::priorityDistribution() const
{
    stats::DenseHistogram hist(config_.ways + 1);
    for (unsigned set = 0; set < sets_; ++set) {
        unsigned count = 0;
        for (unsigned w = 0; w < config_.ways; ++w)
            count += line({set, w}).priority;
        hist.sample(std::min(count, config_.ways));
    }
    return hist;
}

std::vector<std::uint64_t>
Cache::priorityOccupancy() const
{
    std::vector<std::uint64_t> counts(config_.ways + 1, 0);
    if (const auto *emissary = policy_.emissary()) {
        for (const std::uint16_t high : emissary->protectedCounts())
            ++counts[std::min<unsigned>(high, config_.ways)];
        return counts;
    }
    for (unsigned set = 0; set < sets_; ++set) {
        unsigned count = 0;
        for (unsigned w = 0; w < config_.ways; ++w)
            count += line({set, w}).priority;
        ++counts[std::min(count, config_.ways)];
    }
    return counts;
}

std::uint64_t
Cache::highPriorityLineCount() const
{
    std::uint64_t count = 0;
    for (const CacheLine &line : lines_)
        count += line.priority;
    return count;
}

} // namespace emissary::cache
