#include "cache/hierarchy.hh"

#include <cassert>

#include "cache/lanes.hh"

namespace emissary::cache
{

Hierarchy::Hierarchy(const Config &config)
    : config_(config),
      l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2),
      l3_(config.l3)
{
}

std::size_t
Hierarchy::findMshr(std::uint64_t line_addr) const
{
    const std::size_t n = mshrLines_.size();
    for (std::size_t i = 0; i < n; ++i)
        if (mshrLines_[i] == line_addr)
            return i;
    return npos;
}

std::uint64_t
Hierarchy::requestInstruction(std::uint64_t line_addr, std::uint64_t now,
                              RequestKind kind)
{
    const bool demandish = kind != RequestKind::Nlp;

    if (demandish)
        ++stats_.l1iAccesses;

    if (l1i_.peek(line_addr)) {
        l1i_.touch(line_addr);
        return now + config_.l1i.hitLatency;
    }

    if (const std::size_t i = findMshr(line_addr); i != npos) {
        if (demandish)
            ++stats_.l1iMisses;
        return mshrs_[i].readyCycle;
    }

    if (demandish)
        ++stats_.l1iMisses;

    const std::uint64_t ready =
        missBelowL1(line_addr, now, true, false, demandish);

    if (config_.nextLinePrefetch && kind == RequestKind::Demand) {
        ++stats_.nlpIssued;
        requestInstruction(line_addr + 1, now, RequestKind::Nlp);
    }
    return ready;
}

std::uint64_t
Hierarchy::requestData(std::uint64_t line_addr, std::uint64_t now,
                       bool write, RequestKind kind)
{
    const bool demandish = kind != RequestKind::Nlp;

    if (demandish)
        ++stats_.l1dAccesses;

    if (l1d_.peek(line_addr)) {
        l1d_.touch(line_addr);
        if (write)
            l1d_.markDirty(line_addr);
        return now + config_.l1d.hitLatency;
    }

    if (const std::size_t i = findMshr(line_addr); i != npos) {
        if (demandish)
            ++stats_.l1dMisses;
        mshrs_[i].write = mshrs_[i].write || write;
        return mshrs_[i].readyCycle;
    }

    if (demandish)
        ++stats_.l1dMisses;

    const std::uint64_t ready =
        missBelowL1(line_addr, now, false, write, demandish);

    if (config_.nextLinePrefetch && kind == RequestKind::Demand) {
        ++stats_.nlpIssued;
        requestData(line_addr + 1, now, false, RequestKind::Nlp);
    }
    return ready;
}

std::uint64_t
Hierarchy::missBelowL1(std::uint64_t line_addr, std::uint64_t now,
                       bool is_instruction, bool write, bool demandish)
{
    const unsigned l1_latency = is_instruction ? config_.l1i.hitLatency
                                               : config_.l1d.hitLatency;
    unsigned latency = l1_latency;
    Mshr entry;
    entry.isInstruction = is_instruction;
    entry.write = write;

    if (demandish) {
        if (is_instruction) {
            ++stats_.l2InstAccesses;
            if (observer_)
                observer_->onL2InstAccess(line_addr);
        } else {
            ++stats_.l2DataAccesses;
        }
    }

    if (CacheLine *l2_line = l2_.peek(line_addr)) {
        if (is_instruction && l2_line->priority)
            ++stats_.l2InstHitsProtected;
        l2_.touch(line_addr);
        latency += config_.l2.hitLatency;
        entry.source = FillSource::L2;
    } else {
        if (demandish) {
            if (is_instruction) {
                ++stats_.l2InstMisses;
                if (observer_)
                    observer_->onL2InstMiss(line_addr);
            } else {
                ++stats_.l2DataMisses;
            }
            l2_.noteDemandMiss(line_addr);
        }

        ++stats_.l3Accesses;
        if (l3_.peek(line_addr)) {
            latency += config_.l2.hitLatency + config_.l3.hitLatency;
            entry.source = FillSource::L3;
        } else {
            ++stats_.l3Misses;
            ++stats_.dramReads;
            latency += config_.l2.hitLatency + config_.l3.hitLatency +
                       config_.dramLatency;
            entry.source = FillSource::Memory;
        }

        if (config_.idealL2Inst && is_instruction) {
            if (seenL2Inst_.count(line_addr)) {
                // Capacity/conflict miss in the §5.6 ideal model:
                // the fill still happens but latency collapses to an
                // L2 hit.
                latency = l1_latency + config_.l2.hitLatency;
                ++stats_.idealCollapsedMisses;
            }
            seenL2Inst_.insert(line_addr);
        }
    }

    if (lanes_)
        entry.laneSources =
            lanes_->probe(line_addr, is_instruction, demandish);

    entry.readyCycle = now + latency;
    // Keep the table in (readyCycle, lineAddr) order. A line has at
    // most one outstanding miss, so no key is equal to this one.
    std::size_t pos = mshrs_.size();
    while (pos > 0 &&
           (mshrs_[pos - 1].readyCycle > entry.readyCycle ||
            (mshrs_[pos - 1].readyCycle == entry.readyCycle &&
             mshrLines_[pos - 1] > line_addr)))
        --pos;
    const auto offset = static_cast<std::ptrdiff_t>(pos);
    mshrLines_.insert(mshrLines_.begin() + offset, line_addr);
    mshrs_.insert(mshrs_.begin() + offset, entry);
    return entry.readyCycle;
}

void
Hierarchy::setLanes(PolicyLaneBank *lanes)
{
    lanes_ = lanes;
    if (lanes_)
        lanes_->bindShared(&l1i_, &l1d_);
}

void
Hierarchy::noteStarvation(std::uint64_t line_addr, bool iq_empty,
                          std::uint64_t now, std::uint64_t cycles)
{
    const std::size_t i = findMshr(line_addr);
    if (i == npos)
        return;
    Mshr &entry = mshrs_[i];
    entry.starved = true;
    entry.iqEmpty = entry.iqEmpty || iq_empty;
    entry.starveCycles += static_cast<std::uint32_t>(cycles);
    stats_.starvationNotes += cycles;
    if (observer_)
        for (std::uint64_t c = now; c < now + cycles; ++c)
            observer_->onStarvationCycle(line_addr, c);
}

void
Hierarchy::handleL2Eviction(const Cache::Eviction &ev)
{
    if (!ev.valid)
        return;

    bool dirty = ev.line.dirty;
    ++stats_.l2Evictions;
    if (ev.line.priority)
        ++stats_.l2ProtectedEvictions;
    if (observer_)
        observer_->onL2Eviction(ev.lineAddr, ev.line.priority,
                                ev.line.dirty);

    // Inclusive L2: remove stale copies from the L1s. A displaced
    // L1I priority bit dies with the line (it is leaving both
    // caches); a dirty L1D copy folds its data into the victim.
    const Cache::Eviction ii = l1i_.invalidate(ev.lineAddr);
    if (lanes_ && ii.valid)
        lanes_->onSharedL1IInvalidate(ii.set, ii.way);
    const Cache::Eviction d = l1d_.invalidate(ev.lineAddr);
    if (d.valid && d.line.dirty)
        dirty = true;

    // Exclusive victim L3: the line enters L3 only now. The SFL bit
    // recorded at L2-fill time selects MRU insertion (§5.1).
    replacement::LineInfo info;
    info.isInstruction = ev.line.isInstruction;
    info.insertMru = ev.line.sfl;
    const Cache::Eviction l3_ev = l3_.insert(
        ev.lineAddr, info, ev.line.isInstruction, dirty,
        /*sfl=*/false, /*prefetched=*/false);
    if (l3_ev.valid && l3_ev.line.dirty)
        ++stats_.dramWrites;
}

void
Hierarchy::fillL2(std::uint64_t line_addr, bool is_instruction,
                  bool high_priority, bool sfl)
{
    if (l2_.peek(line_addr))
        return;  // Raced with another fill path; already resident.

    replacement::LineInfo info;
    info.isInstruction = is_instruction;
    info.highPriority = high_priority;
    const Cache::Eviction ev =
        l2_.insert(line_addr, info, is_instruction, /*dirty=*/false,
                   sfl, /*prefetched=*/false);
    ++stats_.l2Fills;
    if (observer_)
        observer_->onL2Fill(line_addr, is_instruction, high_priority);
    handleL2Eviction(ev);
}

void
Hierarchy::complete(std::uint64_t line_addr, const Mshr &entry)
{
    if (entry.starveCycles > 0) {
        switch (entry.source) {
          case FillSource::L2:
            stats_.starveCyclesL2 += entry.starveCycles;
            break;
          case FillSource::L3:
            stats_.starveCyclesL3 += entry.starveCycles;
            break;
          case FillSource::Memory:
            stats_.starveCyclesMem += entry.starveCycles;
            break;
        }
    }

    replacement::MissContext ctx;
    ctx.isInstruction = entry.isInstruction;
    ctx.causedStarvation = entry.starved;
    ctx.issueQueueEmpty = entry.iqEmpty;

    const replacement::PolicySpec &l2_spec = l2_.spec();
    const bool emissary_l2 =
        l2_spec.family == replacement::PolicyFamily::EmissaryP;
    const bool emissary_l1i =
        l1i_.spec().family == replacement::PolicyFamily::EmissaryP;

    // Mode selection happens exactly once per miss (§4.1). When the
    // §3 ablation runs EMISSARY at the L1I instead of (or as well as)
    // the L2, the L1I's own selector is evaluated with the same miss
    // context.
    bool selected = false;
    if (entry.isInstruction || !emissary_l2)
        selected = l2_spec.computePriority(ctx, l2_.selectionRng());
    bool l1i_selected = false;
    if (emissary_l1i && entry.isInstruction)
        l1i_selected =
            l1i_.spec().computePriority(ctx, l1i_.selectionRng());

    // The L2 insertion. Under P(N) policies the L2 copy starts
    // low-priority: priority is only communicated by a later L1I
    // eviction (§3). Under M: policies the selection decides the
    // insertion position right here.
    if (entry.source != FillSource::L2) {
        bool sfl = false;
        if (entry.source == FillSource::L3) {
            l3_.invalidate(line_addr);  // exclusive: move, not copy
            sfl = true;
        }
        const bool bypass = config_.bypassLowPriorityInst &&
                            emissary_l2 && entry.isInstruction &&
                            !selected;
        if (!bypass) {
            const bool l2_priority = emissary_l2 ? false : selected;
            fillL2(line_addr, entry.isInstruction, l2_priority, sfl);
        }
    }

    if (entry.isInstruction) {
        // The L1I copy carries the EMISSARY priority bit: set by this
        // miss's selection outcome, or inherited from a resident L2
        // copy (priority never changes while the line lives in either
        // cache).
        bool l1_priority = (emissary_l2 && selected) || l1i_selected;
        if (const CacheLine *l2_line = l2_.peek(line_addr))
            l1_priority = l1_priority || l2_line->priority;
        if (l1_priority)
            ++stats_.highPriorityFills;

        replacement::LineInfo info;
        info.isInstruction = true;
        info.highPriority = l1_priority;
        const Cache::Eviction ev = l1i_.insert(
            line_addr, info, /*is_instruction=*/true, /*dirty=*/false,
            /*sfl=*/false, /*prefetched=*/false);
        if (ev.valid && ev.line.priority) {
            // L1I eviction communicates starvation history to the L2
            // copy (§3) — the heart of EMISSARY's persistence.
            l2_.raisePriority(ev.lineAddr);
            ++stats_.priorityUpgrades;
            if (observer_)
                observer_->onPriorityUpgrade(ev.lineAddr);
        }
        if (lanes_)
            lanes_->completeInstruction(line_addr, entry, ctx,
                                        l1i_selected, ev);
    } else {
        replacement::LineInfo info;
        info.isInstruction = false;
        info.highPriority = false;
        const Cache::Eviction ev = l1d_.insert(
            line_addr, info, /*is_instruction=*/false, entry.write,
            /*sfl=*/false, /*prefetched=*/false);
        if (ev.valid && ev.line.dirty) {
            // Write back into L2 (present by inclusion except when a
            // concurrent L2 eviction already pushed it out).
            if (l2_.peek(ev.lineAddr))
                l2_.markDirty(ev.lineAddr);
            else
                ++stats_.dramWrites;
        }
        if (lanes_)
            lanes_->completeData(line_addr, entry, ctx, ev);
    }
}

void
Hierarchy::completeFirst(std::size_t count)
{
    // Completing a fill only updates cache state; it never issues a
    // request, so the table holds still until the prefix is erased.
    for (std::size_t i = 0; i < count; ++i)
        complete(mshrLines_[i], mshrs_[i]);
    const auto end = static_cast<std::ptrdiff_t>(count);
    mshrLines_.erase(mshrLines_.begin(), mshrLines_.begin() + end);
    mshrs_.erase(mshrs_.begin(), mshrs_.begin() + end);
}

void
Hierarchy::tick(std::uint64_t now)
{
    std::size_t due = 0;
    while (due < mshrs_.size() && mshrs_[due].readyCycle <= now)
        ++due;
    if (due > 0)
        completeFirst(due);
}

void
Hierarchy::drain()
{
    completeFirst(mshrs_.size());
}

void
Hierarchy::resetPriorities()
{
    l1i_.resetPriorities();
    l2_.resetPriorities();
    if (lanes_)
        lanes_->resetPriorities();
}

} // namespace emissary::cache
