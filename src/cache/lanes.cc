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
    }
    return config;
}

Cache::Config
withPolicy(Cache::Config config, const replacement::PolicySpec &spec)
{
    config.policy = spec;
    return config;
}

/** The shared pipeline's miss context of a logged fill: lane
 *  invariant, so a lane's selection differs by its RNG alone. */
replacement::MissContext
missContext(const MissLog::Event &event, bool is_instruction)
{
    replacement::MissContext ctx;
    ctx.isInstruction = is_instruction;
    ctx.causedStarvation = event.flags & MissLog::kStarved;
    ctx.issueQueueEmpty = event.flags & MissLog::kIqEmpty;
    return ctx;
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
    : lower_(sampledConfig(withPolicy(timing.l2, l2),
                           std::max(1u, sampled_sets)),
             sampledConfig(timing.l3, std::max(1u, sampled_sets)),
             timing.bypassLowPriorityInst),
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
            if (sampled(event.line))
                outstanding_.emplace_back(
                    event.line,
                    lower_.probe(event.line,
                                 event.flags & MissLog::kInstruction,
                                 event.flags & MissLog::kDemand));
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
            lower_.l2().resetPriorities();
            std::fill(l1iPriority_.begin(), l1iPriority_.end(), 0);
            break;
          case MissLog::Kind::WindowStart:
            // Cache state persists, exactly like the timing arrays
            // across the warm-up boundary.
            lower_.stats().reset();
            if (on_window_start)
                on_window_start();
            break;
        }
    }
}

bool
MonitorLane::takeSource(std::uint64_t line, FillSource &source)
{
    for (std::size_t i = 0; i < outstanding_.size(); ++i) {
        if (outstanding_[i].first != line)
            continue;
        source = outstanding_[i].second;
        outstanding_[i] = outstanding_.back();
        outstanding_.pop_back();
        return true;
    }
    return false;  // Not sampled.
}

bool
MonitorLane::evictFromL1s(std::uint64_t line)
{
    // The L1s are the timing lane's, which back-invalidates them on
    // its own evictions: the lane only drops its P bit for the line
    // and reports a dirty L1D copy, which folds into the victim.
    if (const long slot = l1i_.find(line); slot >= 0)
        l1iPriority_[static_cast<std::size_t>(slot)] = 0;
    return l1dDirty_.find(line) >= 0;
}

void
MonitorLane::instructionFill(const MissLog::Event &event)
{
    // The shared L1I just placed the line into this slot, displacing
    // the copy's line there if any. The lane refreshes its P bit for
    // the slot and, like the timing lane, lets the displaced line's
    // bit upgrade the lane's L2 copy (§3).
    const std::size_t pos = event.slot;
    const std::uint64_t displaced = l1i_.lines[pos];
    l1i_.lines[pos] = event.line;
    const bool old_priority = l1iPriority_[pos] != 0;
    bool new_priority = false;
    if (FillSource source; takeSource(event.line, source)) {
        const LowerLevels::Filled filled = lower_.fill(
            event.line, source, missContext(event, true),
            [this](std::uint64_t victim) { return evictFromL1s(victim); });
        new_priority = lower_.l1iPriority(
            filled, event.flags & MissLog::kSelected);
    }
    if (displaced != SlotCopy::kEmpty && old_priority)
        lower_.upgrade(displaced);
    l1iPriority_[pos] = new_priority ? 1 : 0;
}

void
MonitorLane::dataFill(const MissLog::Event &event)
{
    const std::uint64_t displaced = l1dDirty_.lines[event.slot];
    l1dDirty_.lines[event.slot] =
        event.flags & MissLog::kWrite ? event.line : SlotCopy::kEmpty;
    if (FillSource source; takeSource(event.line, source))
        lower_.fill(
            event.line, source, missContext(event, false),
            [this](std::uint64_t victim) { return evictFromL1s(victim); });
    // The shared L1D displaced a dirty line.
    if (displaced != SlotCopy::kEmpty && sampled(displaced))
        lower_.writeBack(displaced);
}

HierarchyStats
MonitorLane::stats(const HierarchyStats &shared) const
{
    const std::uint64_t k = sampleK_;
    const HierarchyStats &own = lower_.stats();
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
    out.l2InstAccesses = own.l2InstAccesses * k;
    out.l2InstMisses = own.l2InstMisses * k;
    out.l2DataAccesses = own.l2DataAccesses * k;
    out.l2DataMisses = own.l2DataMisses * k;
    out.l3Accesses = own.l3Accesses * k;
    out.l3Misses = own.l3Misses * k;
    out.dramReads = own.dramReads * k;
    out.dramWrites = own.dramWrites * k;
    out.l2Fills = own.l2Fills * k;
    out.l2Evictions = own.l2Evictions * k;
    out.highPriorityFills = own.highPriorityFills * k;
    out.priorityUpgrades = own.priorityUpgrades * k;
    out.l2InstHitsProtected = own.l2InstHitsProtected * k;
    out.l2ProtectedEvictions = own.l2ProtectedEvictions * k;
    return out;
}

} // namespace emissary::cache
