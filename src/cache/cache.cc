#include "cache/cache.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "replacement/emissary.hh"
#include "replacement/tplru.hh"
#include "util/bitutil.hh"

#if defined(__AVX2__) || defined(__SSE2__)
#include <immintrin.h>
#elif defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace emissary::cache
{

Cache::Cache(const Config &config)
    : config_(config), spec_(config.policy), rng_(config.seed)
{
    const std::uint64_t lines =
        config_.sizeBytes / config_.lineBytes;
    if (lines == 0 || lines % config_.ways != 0)
        throw std::invalid_argument(config_.name +
                                    ": size/ways mismatch");
    sets_ = static_cast<unsigned>(lines / config_.ways);
    if (!isPowerOfTwo(sets_))
        throw std::invalid_argument(config_.name +
                                    ": set count must be a power of 2");
    setShift_ = floorLog2(sets_);
    tagShift_ = setShift_ + config_.indexShift;
    if (config_.indexShift >= 32)
        throw std::invalid_argument(config_.name +
                                    ": indexShift must be below 32");
    lines_.assign(std::size_t{sets_} * config_.ways, CacheLine{});
    tags_.assign(std::size_t{sets_} * config_.ways, kInvalidTag);
    policy_ = replacement::makePolicy(spec_, sets_, config_.ways,
                                      config_.seed ^ 0x9E3779B9ULL);
    switch (spec_.family) {
      case replacement::PolicyFamily::TreePlru:
        hotPolicy_ = HotPolicy::TreePlru;
        treePlru_ =
            static_cast<replacement::TreePlru *>(policy_.get());
        break;
      case replacement::PolicyFamily::EmissaryP:
        hotPolicy_ = HotPolicy::Emissary;
        emissary_ =
            static_cast<replacement::EmissaryPolicy *>(policy_.get());
        break;
      default:
        hotPolicy_ = HotPolicy::Generic;
        break;
    }
}

void
Cache::policyHit(unsigned set, unsigned way,
                 const replacement::LineInfo &info)
{
    switch (hotPolicy_) {
      case HotPolicy::TreePlru:
        treePlru_->replacement::TreePlru::onHit(set, way, info);
        break;
      case HotPolicy::Emissary:
        emissary_->replacement::EmissaryPolicy::onHit(set, way, info);
        break;
      default:
        policy_->onHit(set, way, info);
        break;
    }
}

void
Cache::policyInsert(unsigned set, unsigned way,
                    const replacement::LineInfo &info)
{
    switch (hotPolicy_) {
      case HotPolicy::TreePlru:
        treePlru_->replacement::TreePlru::onInsert(set, way, info);
        break;
      case HotPolicy::Emissary:
        emissary_->replacement::EmissaryPolicy::onInsert(set, way,
                                                         info);
        break;
      default:
        policy_->onInsert(set, way, info);
        break;
    }
}

void
Cache::policyInvalidate(unsigned set, unsigned way)
{
    switch (hotPolicy_) {
      case HotPolicy::TreePlru:
        treePlru_->replacement::TreePlru::onInvalidate(set, way);
        break;
      case HotPolicy::Emissary:
        emissary_->replacement::EmissaryPolicy::onInvalidate(set, way);
        break;
      default:
        policy_->onInvalidate(set, way);
        break;
    }
}

unsigned
Cache::policySelectVictim(unsigned set)
{
    switch (hotPolicy_) {
      case HotPolicy::TreePlru:
        return treePlru_->replacement::TreePlru::selectVictim(set);
      case HotPolicy::Emissary:
        return emissary_->replacement::EmissaryPolicy::selectVictim(
            set);
      default:
        return policy_->selectVictim(set);
    }
}

unsigned
Cache::setIndex(std::uint64_t line_addr) const
{
    return static_cast<unsigned>((line_addr >> config_.indexShift) &
                                 (sets_ - 1));
}

CacheLine &
Cache::lineAt(unsigned set, unsigned way)
{
    return lines_[std::size_t{set} * config_.ways + way];
}

const CacheLine &
Cache::lineAt(unsigned set, unsigned way) const
{
    return lines_[std::size_t{set} * config_.ways + way];
}

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
#if defined(__AVX2__)
    unsigned w = 0;
    const __m256i needle =
        _mm256_set1_epi64x(static_cast<long long>(tag));
    for (; w + 4 <= ways; w += 4) {
        const __m256i lane = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(
            _mm256_cmpeq_epi64(lane, needle)));
        if (mask)
            return static_cast<int>(
                w + std::countr_zero(static_cast<unsigned>(mask)));
    }
    const int tail = findWayScalar(tags + w, ways - w, tag);
    return tail < 0 ? -1 : static_cast<int>(w) + tail;
#elif defined(__SSE2__)
    unsigned w = 0;
    const __m128i needle =
        _mm_set1_epi64x(static_cast<long long>(tag));
    for (; w + 2 <= ways; w += 2) {
        const __m128i lane = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tags + w));
#if defined(__SSE4_1__)
        const __m128i eq = _mm_cmpeq_epi64(lane, needle);
#else
        // Plain SSE2 has no 64-bit compare: compare the 32-bit
        // halves, then AND each half with its sibling so an element
        // reads all-ones only when both halves matched.
        const __m128i eq32 = _mm_cmpeq_epi32(lane, needle);
        const __m128i eq = _mm_and_si128(
            eq32,
            _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
#endif
        const int mask = _mm_movemask_pd(_mm_castsi128_pd(eq));
        if (mask)
            return static_cast<int>(
                w + std::countr_zero(static_cast<unsigned>(mask)));
    }
    return w < ways && tags[w] == tag ? static_cast<int>(w) : -1;
#elif defined(__ARM_NEON) && defined(__aarch64__)
    unsigned w = 0;
    const uint64x2_t needle = vdupq_n_u64(tag);
    for (; w + 2 <= ways; w += 2) {
        const uint64x2_t eq = vceqq_u64(vld1q_u64(tags + w), needle);
        if (vgetq_lane_u64(eq, 0))
            return static_cast<int>(w);
        if (vgetq_lane_u64(eq, 1))
            return static_cast<int>(w + 1);
    }
    return w < ways && tags[w] == tag ? static_cast<int>(w) : -1;
#else
    return findWayScalar(tags, ways, tag);
#endif
}

int
Cache::findWay(unsigned set, std::uint64_t tag) const
{
    // Contiguous per-set tag lane: 16 ways compare within two cache
    // lines. Invalid ways hold kInvalidTag and can never match.
    return findWayVector(tags_.data() + std::size_t{set} * config_.ways,
                         config_.ways, tag);
}

const CacheLine *
Cache::peek(std::uint64_t line_addr) const
{
    const unsigned set = setIndex(line_addr);
    const int way = findWay(set, line_addr >> tagShift_);
    return way < 0 ? nullptr : &lineAt(set, static_cast<unsigned>(way));
}

CacheLine *
Cache::peek(std::uint64_t line_addr)
{
    const unsigned set = setIndex(line_addr);
    const int way = findWay(set, line_addr >> tagShift_);
    return way < 0 ? nullptr : &lineAt(set, static_cast<unsigned>(way));
}

bool
Cache::findPosition(std::uint64_t line_addr, unsigned &set,
                    unsigned &way) const
{
    set = setIndex(line_addr);
    const int found = findWay(set, line_addr >> tagShift_);
    if (found < 0)
        return false;
    way = static_cast<unsigned>(found);
    return true;
}

void
Cache::touch(std::uint64_t line_addr)
{
    const unsigned set = setIndex(line_addr);
    const int way = findWay(set, line_addr >> tagShift_);
    assert(way >= 0 && "touch on absent line");
    CacheLine &line = lineAt(set, static_cast<unsigned>(way));
    line.prefetched = false;
    replacement::LineInfo info;
    info.isInstruction = line.isInstruction;
    info.highPriority = line.priority;
    policyHit(set, static_cast<unsigned>(way), info);
}

Cache::Eviction
Cache::insert(std::uint64_t line_addr, const replacement::LineInfo &info,
              bool is_instruction, bool dirty, bool sfl, bool prefetched)
{
    const unsigned set = setIndex(line_addr);
    const std::uint64_t tag = line_addr >> tagShift_;
    assert(findWay(set, tag) < 0 && "double insert");

    Eviction evicted;
    int way = findWay(set, kInvalidTag);
    if (way < 0) {
        way = static_cast<int>(policySelectVictim(set));
        CacheLine &victim = lineAt(set, static_cast<unsigned>(way));
        evicted.valid = true;
        evicted.lineAddr = (victim.tag << tagShift_) |
                           (std::uint64_t{set} << config_.indexShift);
        evicted.line = victim;
        policyInvalidate(set, static_cast<unsigned>(way));
        victim = CacheLine{};
    }
    evicted.set = set;
    evicted.way = static_cast<unsigned>(way);

    CacheLine &line = lineAt(set, static_cast<unsigned>(way));
    line.valid = true;
    line.tag = tag;
    line.dirty = dirty;
    line.isInstruction = is_instruction;
    line.priority = info.highPriority;
    line.sfl = sfl;
    line.prefetched = prefetched;
    tags_[std::size_t{set} * config_.ways +
          static_cast<unsigned>(way)] = tag;
    policyInsert(set, static_cast<unsigned>(way), info);
    return evicted;
}

Cache::Eviction
Cache::invalidate(std::uint64_t line_addr)
{
    const unsigned set = setIndex(line_addr);
    const int way = findWay(set, line_addr >> tagShift_);
    Eviction out;
    if (way < 0)
        return out;
    CacheLine &line = lineAt(set, static_cast<unsigned>(way));
    out.valid = true;
    out.lineAddr = line_addr;
    out.set = set;
    out.way = static_cast<unsigned>(way);
    out.line = line;
    policyInvalidate(set, static_cast<unsigned>(way));
    line = CacheLine{};
    tags_[std::size_t{set} * config_.ways +
          static_cast<unsigned>(way)] = kInvalidTag;
    return out;
}

void
Cache::noteDemandMiss(std::uint64_t line_addr)
{
    policy_->onMiss(setIndex(line_addr));
}

void
Cache::markDirty(std::uint64_t line_addr)
{
    CacheLine *line = peek(line_addr);
    assert(line && "markDirty on absent line");
    line->dirty = true;
}

void
Cache::raisePriority(std::uint64_t line_addr)
{
    const unsigned set = setIndex(line_addr);
    const int way = findWay(set, line_addr >> tagShift_);
    if (way < 0)
        return;
    CacheLine &line = lineAt(set, static_cast<unsigned>(way));
    if (!line.priority &&
        policy_->setPriority(set, static_cast<unsigned>(way), true)) {
        line.priority = true;
    }
}

void
Cache::resetPriorities()
{
    for (auto &line : lines_)
        line.priority = false;
    policy_->resetPriorities();
}

stats::DenseHistogram
Cache::priorityDistribution() const
{
    stats::DenseHistogram hist(config_.ways + 1);
    for (unsigned set = 0; set < sets_; ++set) {
        unsigned count = 0;
        for (unsigned w = 0; w < config_.ways; ++w) {
            const CacheLine &line = lineAt(set, w);
            if (line.valid && line.priority)
                ++count;
        }
        hist.sample(std::min(count, config_.ways));
    }
    return hist;
}

std::vector<std::uint64_t>
Cache::priorityOccupancy() const
{
    std::vector<std::uint64_t> counts(config_.ways + 1, 0);
    if (spec_.family == replacement::PolicyFamily::EmissaryP) {
        const auto &emissary =
            static_cast<const replacement::EmissaryPolicy &>(
                *policy_);
        for (const std::uint16_t high : emissary.protectedCounts())
            ++counts[std::min<unsigned>(high, config_.ways)];
        return counts;
    }
    for (unsigned set = 0; set < sets_; ++set) {
        unsigned count = 0;
        for (unsigned w = 0; w < config_.ways; ++w) {
            const CacheLine &line = lineAt(set, w);
            if (line.valid && line.priority)
                ++count;
        }
        ++counts[std::min(count, config_.ways)];
    }
    return counts;
}

std::uint64_t
Cache::highPriorityLineCount() const
{
    std::uint64_t count = 0;
    for (const auto &line : lines_)
        if (line.valid && line.priority)
            ++count;
    return count;
}

} // namespace emissary::cache
