#include "cache/lanes.hh"

#include <stdexcept>

#include "util/bitutil.hh"

namespace emissary::cache
{

PolicyLaneBank::PolicyLaneBank(
    const Hierarchy::Config &timing,
    const std::vector<replacement::PolicySpec> &l2_specs,
    unsigned sampled_sets)
{
    if (l2_specs.size() > kMaxLanes)
        throw std::invalid_argument(
            "PolicyLaneBank: more than kMaxLanes monitor lanes");
    sampleK_ = sampled_sets <= 1 ? 1 : sampled_sets;
    if (!isPowerOfTwo(sampleK_))
        throw std::invalid_argument(
            "PolicyLaneBank: sampledSets must be a power of two");
    sampleOffset_ = 0;
    l3HitLatency_ = timing.l3.hitLatency;
    dramLatency_ = timing.dramLatency;
    bypassLowPriorityInst_ = timing.bypassLowPriorityInst;

    const unsigned shift = floorLog2(sampleK_);
    lanes_.reserve(l2_specs.size());
    for (std::size_t i = 0; i < l2_specs.size(); ++i) {
        Cache::Config l2_config = timing.l2;
        l2_config.name += ".lane" + std::to_string(i);
        l2_config.policy = l2_specs[i];
        Cache::Config l3_config = timing.l3;
        l3_config.name += ".lane" + std::to_string(i);
        if (sampleK_ > 1) {
            // A 1-in-K sampled monitor models sets/K sets; both
            // levels index from bit 0 of the line address, so one
            // residue class selects consistent L2 and L3 subsets.
            l2_config.sizeBytes /= sampleK_;
            l2_config.indexShift = shift;
            l2_config.indexOffset = sampleOffset_;
            l3_config.sizeBytes /= sampleK_;
            l3_config.indexShift = shift;
            l3_config.indexOffset = sampleOffset_;
        }
        lanes_.emplace_back(l2_config, l3_config);
        lanes_.back().emissaryL2 =
            l2_specs[i].family ==
            replacement::PolicyFamily::EmissaryP;
    }
}

void
PolicyLaneBank::bindShared(const Cache *l1i, const Cache *l1d)
{
    sharedL1i_ = l1i;
    sharedL1d_ = l1d;
    l1iWays_ = l1i->numWays();
    const std::size_t slots =
        std::size_t{l1i->numSets()} * l1i->numWays();
    for (Lane &lane : lanes_)
        lane.l1iShadow.assign(slots, 0);
}

unsigned
PolicyLaneBank::levelLatency(unsigned code) const
{
    // Latency beyond the shared L1+L2-probe baseline for each
    // FillSource; only differences between lanes matter, so the
    // common l1 + l2.hitLatency term cancels out.
    switch (static_cast<Hierarchy::FillSource>(code)) {
      case Hierarchy::FillSource::L2:
        return 0;
      case Hierarchy::FillSource::L3:
        return l3HitLatency_;
      case Hierarchy::FillSource::Memory:
      default:
        return l3HitLatency_ + dramLatency_;
    }
}

std::uint64_t
PolicyLaneBank::probe(std::uint64_t line_addr, bool is_instruction,
                      bool demandish)
{
    if (!sampled(line_addr))
        return 0;  // every lane: not sampled

    std::uint64_t packed = 0;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        Lane &lane = lanes_[i];
        unsigned code;
        if (demandish) {
            if (is_instruction)
                ++lane.stats.l2InstAccesses;
            else
                ++lane.stats.l2DataAccesses;
        }
        if (CacheLine *l2_line = lane.l2.peek(line_addr)) {
            if (is_instruction && l2_line->priority)
                ++lane.stats.l2InstHitsProtected;
            lane.l2.touch(line_addr);
            code = static_cast<unsigned>(Hierarchy::FillSource::L2) + 1;
        } else {
            if (demandish) {
                if (is_instruction)
                    ++lane.stats.l2InstMisses;
                else
                    ++lane.stats.l2DataMisses;
                lane.l2.noteDemandMiss(line_addr);
            }
            ++lane.stats.l3Accesses;
            if (lane.l3.peek(line_addr)) {
                code = static_cast<unsigned>(
                           Hierarchy::FillSource::L3) + 1;
            } else {
                ++lane.stats.l3Misses;
                ++lane.stats.dramReads;
                code = static_cast<unsigned>(
                           Hierarchy::FillSource::Memory) + 1;
            }
        }
        packed |= std::uint64_t{code} << (2 * i);
    }
    return packed;
}

void
PolicyLaneBank::laneFillL2(Lane &lane, std::uint64_t line_addr,
                           bool is_instruction, bool high_priority,
                           bool sfl)
{
    if (lane.l2.peek(line_addr))
        return;  // Raced with another fill path; already resident.

    replacement::LineInfo info;
    info.isInstruction = is_instruction;
    info.highPriority = high_priority;
    const Cache::Eviction ev =
        lane.l2.insert(line_addr, info, is_instruction,
                       /*dirty=*/false, sfl, /*prefetched=*/false);
    ++lane.stats.l2Fills;
    if (!ev.valid)
        return;

    ++lane.stats.l2Evictions;
    if (ev.line.priority)
        ++lane.stats.l2ProtectedEvictions;

    // Inclusion: the timing lane back-invalidates the L1s here. The
    // L1s are shared (and must not be perturbed), so the lane only
    // drops its own priority shadow for the displaced line and folds
    // the shared L1D copy's dirty state read-only.
    bool dirty = ev.line.dirty;
    unsigned set = 0, way = 0;
    if (sharedL1i_->findPosition(ev.lineAddr, set, way))
        lane.l1iShadow[std::size_t{set} * l1iWays_ + way] = 0;
    if (const CacheLine *d = sharedL1d_->peek(ev.lineAddr);
        d && d->dirty)
        dirty = true;

    // Exclusive victim L3 with the SFL insertion hint (§5.1).
    replacement::LineInfo l3_info;
    l3_info.isInstruction = ev.line.isInstruction;
    l3_info.insertMru = ev.line.sfl;
    const Cache::Eviction l3_ev = lane.l3.insert(
        ev.lineAddr, l3_info, ev.line.isInstruction, dirty,
        /*sfl=*/false, /*prefetched=*/false);
    if (l3_ev.valid && l3_ev.line.dirty)
        ++lane.stats.dramWrites;
}

bool
PolicyLaneBank::completeLane(Lane &lane, std::uint64_t line_addr,
                             unsigned code,
                             const Hierarchy::Mshr &entry,
                             const replacement::MissContext &ctx)
{
    // First-order timing estimate: compare where this lane would
    // have served the miss against where the timing lane did.
    // Savings are capped by the starvation the miss actually
    // exposed; added latency on never-starved misses is assumed
    // half-hidden by the frontend's lookahead. Validated against
    // the sequential oracle by bench_mode_validation.
    const unsigned lane_latency = levelLatency(code - 1);
    const unsigned timing_latency =
        levelLatency(static_cast<unsigned>(entry.source));
    std::uint64_t est = entry.starveCycles;
    if (!entry.idealHidden) {
        if (lane_latency < timing_latency) {
            const std::uint64_t saved = std::min<std::uint64_t>(
                timing_latency - lane_latency, entry.starveCycles);
            lane.savedCycles += saved;
            est -= saved;
        } else if (lane_latency > timing_latency) {
            const unsigned diff = lane_latency - timing_latency;
            lane.addedCycles += entry.starved ? diff : diff / 2;
            if (entry.starved)
                est += diff;
        }
    }
    if (est > 0) {
        lane.estStarve += est;
        if (entry.iqEmpty)
            lane.estStarveIq += est;
        switch (static_cast<Hierarchy::FillSource>(code - 1)) {
          case Hierarchy::FillSource::L2:
            lane.stats.starveCyclesL2 += est;
            break;
          case Hierarchy::FillSource::L3:
            lane.stats.starveCyclesL3 += est;
            break;
          case Hierarchy::FillSource::Memory:
            lane.stats.starveCyclesMem += est;
            break;
        }
    }

    // Mode selection with the lane's own RNG — the only per-lane
    // nondeterminism; the miss context itself is produced by the
    // shared pipeline and is lane-invariant.
    bool selected = false;
    const replacement::PolicySpec &spec = lane.l2.spec();
    if (entry.isInstruction || !lane.emissaryL2)
        selected = spec.computePriority(ctx, lane.l2.selectionRng());

    if (static_cast<Hierarchy::FillSource>(code - 1) !=
        Hierarchy::FillSource::L2) {
        bool sfl = false;
        if (static_cast<Hierarchy::FillSource>(code - 1) ==
            Hierarchy::FillSource::L3) {
            lane.l3.invalidate(line_addr);  // exclusive: move
            sfl = true;
        }
        const bool bypass = bypassLowPriorityInst_ &&
                            lane.emissaryL2 && entry.isInstruction &&
                            !selected;
        if (!bypass) {
            const bool l2_priority =
                lane.emissaryL2 ? false : selected;
            laneFillL2(lane, line_addr, entry.isInstruction,
                       l2_priority, sfl);
        }
    }
    return selected;
}

void
PolicyLaneBank::completeInstruction(std::uint64_t line_addr,
                                    const Hierarchy::Mshr &entry,
                                    const replacement::MissContext &ctx,
                                    bool l1i_selected,
                                    const Cache::Eviction &l1i_ev)
{
    // The shared L1I just placed line_addr into slot (set, way),
    // displacing l1i_ev's line if valid. Each lane refreshes its
    // priority shadow for that slot and, like the timing lane's
    // raisePriority path, lets the displaced line's shadow bit
    // upgrade the lane's resident L2 copy (§3).
    const std::size_t pos =
        std::size_t{l1i_ev.set} * l1iWays_ + l1i_ev.way;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        Lane &lane = lanes_[i];
        const unsigned code = (entry.laneSources >> (2 * i)) & 3;
        const bool old_shadow = lane.l1iShadow[pos] != 0;
        bool new_shadow = false;
        if (code != 0) {
            const bool selected =
                completeLane(lane, line_addr, code, entry, ctx);
            bool l1_priority =
                (lane.emissaryL2 && selected) || l1i_selected;
            if (const CacheLine *l2_line = lane.l2.peek(line_addr))
                l1_priority = l1_priority || l2_line->priority;
            if (l1_priority)
                ++lane.stats.highPriorityFills;
            new_shadow = l1_priority;
        }
        if (l1i_ev.valid && old_shadow) {
            lane.l2.raisePriority(l1i_ev.lineAddr);
            ++lane.stats.priorityUpgrades;
        }
        lane.l1iShadow[pos] = new_shadow ? 1 : 0;
    }
}

void
PolicyLaneBank::completeData(std::uint64_t line_addr,
                             const Hierarchy::Mshr &entry,
                             const replacement::MissContext &ctx,
                             const Cache::Eviction &l1d_ev)
{
    const bool writeback = l1d_ev.valid && l1d_ev.line.dirty &&
                           sampled(l1d_ev.lineAddr);
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        Lane &lane = lanes_[i];
        const unsigned code = (entry.laneSources >> (2 * i)) & 3;
        if (code != 0)
            completeLane(lane, line_addr, code, entry, ctx);
        if (writeback) {
            // The shared L1D displaced a dirty line: fold it into
            // the lane's L2 copy, or count a DRAM write when the
            // lane no longer holds it.
            if (lane.l2.peek(l1d_ev.lineAddr))
                lane.l2.markDirty(l1d_ev.lineAddr);
            else
                ++lane.stats.dramWrites;
        }
    }
}

void
PolicyLaneBank::onSharedL1IInvalidate(unsigned set, unsigned way)
{
    const std::size_t pos = std::size_t{set} * l1iWays_ + way;
    for (Lane &lane : lanes_)
        lane.l1iShadow[pos] = 0;
}

void
PolicyLaneBank::resetPriorities()
{
    for (Lane &lane : lanes_) {
        lane.l2.resetPriorities();
        // The shared L1I clears its own P bits; the lanes' view of
        // them lives in the shadows.
        std::fill(lane.l1iShadow.begin(), lane.l1iShadow.end(), 0);
    }
}

void
PolicyLaneBank::resetStats()
{
    for (Lane &lane : lanes_) {
        lane.stats.reset();
        lane.savedCycles = 0;
        lane.addedCycles = 0;
        lane.estStarve = 0;
        lane.estStarveIq = 0;
    }
}

HierarchyStats
PolicyLaneBank::laneStats(unsigned lane,
                          const HierarchyStats &shared) const
{
    const Lane &l = lanes_[lane];
    const std::uint64_t k = sampleK_;
    // Lane-invariant counters (L1 traffic, NLP issue, starvation
    // notes, ideal-model hides) pass through from the shared
    // pipeline; policy-dependent counters come from the lane's own
    // arrays, scaled back by the sampling factor.
    HierarchyStats out = shared;
    out.l2InstAccesses = l.stats.l2InstAccesses * k;
    out.l2InstMisses = l.stats.l2InstMisses * k;
    out.l2DataAccesses = l.stats.l2DataAccesses * k;
    out.l2DataMisses = l.stats.l2DataMisses * k;
    out.l3Accesses = l.stats.l3Accesses * k;
    out.l3Misses = l.stats.l3Misses * k;
    out.dramReads = l.stats.dramReads * k;
    out.dramWrites = l.stats.dramWrites * k;
    out.l2Fills = l.stats.l2Fills * k;
    out.l2Evictions = l.stats.l2Evictions * k;
    out.highPriorityFills = l.stats.highPriorityFills * k;
    out.priorityUpgrades = l.stats.priorityUpgrades * k;
    out.l2InstHitsProtected = l.stats.l2InstHitsProtected * k;
    out.l2ProtectedEvictions = l.stats.l2ProtectedEvictions * k;
    out.starveCyclesL2 = l.stats.starveCyclesL2 * k;
    out.starveCyclesL3 = l.stats.starveCyclesL3 * k;
    out.starveCyclesMem = l.stats.starveCyclesMem * k;
    return out;
}

std::int64_t
PolicyLaneBank::cycleDelta(unsigned lane) const
{
    const Lane &l = lanes_[lane];
    return (static_cast<std::int64_t>(l.addedCycles) -
            static_cast<std::int64_t>(l.savedCycles)) *
           static_cast<std::int64_t>(sampleK_);
}

std::uint64_t
PolicyLaneBank::estStarvationCycles(unsigned lane) const
{
    return lanes_[lane].estStarve * sampleK_;
}

std::uint64_t
PolicyLaneBank::estStarvationIqEmptyCycles(unsigned lane) const
{
    return lanes_[lane].estStarveIq * sampleK_;
}

} // namespace emissary::cache
