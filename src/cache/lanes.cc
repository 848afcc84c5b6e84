#include "cache/lanes.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/bitutil.hh"

namespace emissary::cache
{

namespace
{

/** @p config sized down to 1 set in every @p k (k > 1). Both levels
 *  index from bit 0 of the line address, so residue 0 selects
 *  consistent L2 and L3 subsets. */
Cache::Config
sampledConfig(Cache::Config config, unsigned k)
{
    config.name += ".lane";
    if (k > 1) {
        config.sizeBytes /= k;
        config.indexShift = floorLog2(k);
        config.indexOffset = 0;
    }
    return config;
}

Cache::Config
withPolicy(Cache::Config config, const replacement::PolicySpec &spec)
{
    config.policy = spec;
    return config;
}

} // namespace

MonitorLane::SlotCopy::SlotCopy(const Cache::Config &config)
    : ways(config.ways)
{
    const std::uint64_t slots = config.sizeBytes / config.lineBytes;
    setMask = static_cast<unsigned>(slots / ways) - 1;
    lines.assign(static_cast<std::size_t>(slots), kEmpty);
}

MonitorLane::MonitorLane(const Hierarchy::Config &timing,
                         const replacement::PolicySpec &l2,
                         unsigned sampled_sets)
    : l2_(sampledConfig(withPolicy(timing.l2, l2),
                        std::max(1u, sampled_sets))),
      l3_(sampledConfig(timing.l3, std::max(1u, sampled_sets))),
      emissaryL2_(l2.family == replacement::PolicyFamily::EmissaryP),
      bypassLowPriorityInst_(timing.bypassLowPriorityInst),
      sampleK_(std::max(1u, sampled_sets)),
      l1i_(timing.l1i),
      l1iPriority_(l1i_.lines.size(), 0),
      l1dDirty_(timing.l1d)
{
    if (!isPowerOfTwo(sampleK_))
        throw std::invalid_argument(
            "MonitorLane: sampledSets must be a power of two");
}

void
MonitorLane::replay(const MissLog &log,
                    const std::function<void()> &on_window_start)
{
    MissLog::Reader reader(log);
    MissLog::Event event;
    while (reader.next(event)) {
        switch (event.kind) {
          case MissLog::Kind::Probe:
            probe(event.line, event.flags & MissLog::kInstruction,
                  event.flags & MissLog::kDemand);
            break;
          case MissLog::Kind::InstructionFill:
            instructionFill(event);
            break;
          case MissLog::Kind::DataFill:
            dataFill(event);
            break;
          case MissLog::Kind::L1IInvalidate:
            // The timing L2 removed the line from the shared L1I:
            // its P bit leaves with it.
            l1i_.lines[event.slot] = SlotCopy::kEmpty;
            l1iPriority_[event.slot] = 0;
            break;
          case MissLog::Kind::L1DInvalidate:
            l1dDirty_.lines[event.slot] = SlotCopy::kEmpty;
            break;
          case MissLog::Kind::DirtyStore:
            l1dDirty_.lines[event.slot] = event.line;
            break;
          case MissLog::Kind::PriorityReset:
            // The shared L1I clears its own P bits; the lane's view
            // of them lives in l1iPriority_.
            l2_.resetPriorities();
            std::fill(l1iPriority_.begin(), l1iPriority_.end(), 0);
            break;
          case MissLog::Kind::WindowStart:
            // Cache state persists, exactly like the timing arrays
            // across the warm-up boundary.
            stats_.reset();
            if (on_window_start)
                on_window_start();
            break;
        }
    }
}

void
MonitorLane::probe(std::uint64_t line, bool is_instruction,
                   bool demand)
{
    if (!sampled(line))
        return;
    unsigned code;
    if (demand) {
        if (is_instruction)
            ++stats_.l2InstAccesses;
        else
            ++stats_.l2DataAccesses;
    }
    if (CacheLine *l2_line = l2_.peek(line)) {
        if (is_instruction && l2_line->priority)
            ++stats_.l2InstHitsProtected;
        l2_.touch(line);
        code = static_cast<unsigned>(Hierarchy::FillSource::L2) + 1;
    } else {
        if (demand) {
            if (is_instruction)
                ++stats_.l2InstMisses;
            else
                ++stats_.l2DataMisses;
            l2_.noteDemandMiss(line);
        }
        ++stats_.l3Accesses;
        if (l3_.peek(line)) {
            code = static_cast<unsigned>(Hierarchy::FillSource::L3) + 1;
        } else {
            ++stats_.l3Misses;
            ++stats_.dramReads;
            code =
                static_cast<unsigned>(Hierarchy::FillSource::Memory) + 1;
        }
    }
    outstanding_.emplace_back(line, code);
}

unsigned
MonitorLane::takeSource(std::uint64_t line)
{
    for (std::size_t i = 0; i < outstanding_.size(); ++i) {
        if (outstanding_[i].first != line)
            continue;
        const unsigned code = outstanding_[i].second;
        outstanding_[i] = outstanding_.back();
        outstanding_.pop_back();
        return code;
    }
    return 0;  // Not sampled.
}

void
MonitorLane::fillL2(std::uint64_t line, bool is_instruction,
                    bool high_priority, bool sfl)
{
    if (l2_.peek(line))
        return;  // Raced with another fill path; already resident.

    replacement::LineInfo info;
    info.isInstruction = is_instruction;
    info.highPriority = high_priority;
    const Cache::Eviction ev =
        l2_.insert(line, info, is_instruction, /*dirty=*/false, sfl,
                   /*prefetched=*/false);
    ++stats_.l2Fills;
    if (!ev.valid)
        return;

    ++stats_.l2Evictions;
    if (ev.line.priority)
        ++stats_.l2ProtectedEvictions;

    // Inclusion: the timing lane back-invalidates the L1s here. The
    // L1s are the timing lane's, so the lane only drops its own P
    // bit for the displaced line and folds a dirty L1D copy in.
    bool dirty = ev.line.dirty;
    if (const long slot = l1i_.find(ev.lineAddr); slot >= 0)
        l1iPriority_[static_cast<std::size_t>(slot)] = 0;
    if (l1dDirty_.find(ev.lineAddr) >= 0)
        dirty = true;

    // Exclusive victim L3 with the SFL insertion hint (§5.1).
    replacement::LineInfo l3_info;
    l3_info.isInstruction = ev.line.isInstruction;
    l3_info.insertMru = ev.line.sfl;
    const Cache::Eviction l3_ev = l3_.insert(
        ev.lineAddr, l3_info, ev.line.isInstruction, dirty,
        /*sfl=*/false, /*prefetched=*/false);
    if (l3_ev.valid && l3_ev.line.dirty)
        ++stats_.dramWrites;
}

bool
MonitorLane::fill(std::uint64_t line, unsigned code,
                  bool is_instruction,
                  const replacement::MissContext &ctx)
{
    // Mode selection with the lane's own RNG — the only per-lane
    // nondeterminism; the miss context itself is produced by the
    // shared pipeline and is lane-invariant.
    bool selected = false;
    if (is_instruction || !emissaryL2_)
        selected = l2_.spec().computePriority(ctx, l2_.selectionRng());

    const auto source = static_cast<Hierarchy::FillSource>(code - 1);
    if (source != Hierarchy::FillSource::L2) {
        bool sfl = false;
        if (source == Hierarchy::FillSource::L3) {
            l3_.invalidate(line);  // exclusive: move
            sfl = true;
        }
        const bool bypass = bypassLowPriorityInst_ && emissaryL2_ &&
                            is_instruction && !selected;
        if (!bypass)
            fillL2(line, is_instruction,
                   emissaryL2_ ? false : selected, sfl);
    }
    return selected;
}

void
MonitorLane::instructionFill(const MissLog::Event &event)
{
    // The shared L1I just placed the line into this slot, displacing
    // the copy's line there if any. The lane refreshes its P bit for
    // the slot and, like the timing lane's raisePriority path, lets
    // the displaced line's bit upgrade the lane's L2 copy (§3).
    const std::size_t pos = event.slot;
    const std::uint64_t displaced = l1i_.lines[pos];
    l1i_.lines[pos] = event.line;
    const bool old_priority = l1iPriority_[pos] != 0;
    bool new_priority = false;
    if (const unsigned code = takeSource(event.line); code != 0) {
        replacement::MissContext ctx;
        ctx.isInstruction = true;
        ctx.causedStarvation = event.flags & MissLog::kStarved;
        ctx.issueQueueEmpty = event.flags & MissLog::kIqEmpty;
        const bool selected = fill(event.line, code, true, ctx);
        new_priority = (emissaryL2_ && selected) ||
                       (event.flags & MissLog::kSelected);
        if (const CacheLine *l2_line = l2_.peek(event.line))
            new_priority = new_priority || l2_line->priority;
        if (new_priority)
            ++stats_.highPriorityFills;
    }
    if (displaced != SlotCopy::kEmpty && old_priority) {
        l2_.raisePriority(displaced);
        ++stats_.priorityUpgrades;
    }
    l1iPriority_[pos] = new_priority ? 1 : 0;
}

void
MonitorLane::dataFill(const MissLog::Event &event)
{
    const std::uint64_t displaced = l1dDirty_.lines[event.slot];
    l1dDirty_.lines[event.slot] =
        event.flags & MissLog::kWrite ? event.line : SlotCopy::kEmpty;
    if (const unsigned code = takeSource(event.line); code != 0) {
        replacement::MissContext ctx;
        ctx.isInstruction = false;
        ctx.causedStarvation = event.flags & MissLog::kStarved;
        ctx.issueQueueEmpty = event.flags & MissLog::kIqEmpty;
        fill(event.line, code, false, ctx);
    }
    if (displaced != SlotCopy::kEmpty && sampled(displaced)) {
        // The shared L1D displaced a dirty line: fold it into the
        // lane's L2 copy, or count a DRAM write when the lane no
        // longer holds it.
        if (l2_.peek(displaced))
            l2_.markDirty(displaced);
        else
            ++stats_.dramWrites;
    }
}

HierarchyStats
MonitorLane::stats(const HierarchyStats &shared) const
{
    const std::uint64_t k = sampleK_;
    // Lane-invariant event counters (L1 traffic, NLP issue,
    // ideal-model hides) pass through from the shared pipeline;
    // policy-dependent counters come from the lane's own arrays,
    // scaled back by the sampling factor. Starvation is counted in
    // the timing lane's cycles, which are not this lane's: it reads
    // 0 (core::Metrics::timed).
    HierarchyStats out = shared;
    out.starvationNotes = 0;
    out.starveCyclesL2 = 0;
    out.starveCyclesL3 = 0;
    out.starveCyclesMem = 0;
    out.l2InstAccesses = stats_.l2InstAccesses * k;
    out.l2InstMisses = stats_.l2InstMisses * k;
    out.l2DataAccesses = stats_.l2DataAccesses * k;
    out.l2DataMisses = stats_.l2DataMisses * k;
    out.l3Accesses = stats_.l3Accesses * k;
    out.l3Misses = stats_.l3Misses * k;
    out.dramReads = stats_.dramReads * k;
    out.dramWrites = stats_.dramWrites * k;
    out.l2Fills = stats_.l2Fills * k;
    out.l2Evictions = stats_.l2Evictions * k;
    out.highPriorityFills = stats_.highPriorityFills * k;
    out.priorityUpgrades = stats_.priorityUpgrades * k;
    out.l2InstHitsProtected = stats_.l2InstHitsProtected * k;
    out.l2ProtectedEvictions = stats_.l2ProtectedEvictions * k;
    return out;
}

} // namespace emissary::cache
