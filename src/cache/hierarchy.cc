#include "cache/hierarchy.hh"

#include <cassert>

#include "cache/miss_log.hh"

namespace emissary::cache
{

LowerLevels::LowerLevels(const Cache::Config &l2, const Cache::Config &l3,
                         bool bypass_low_priority_inst)
    : l2_(l2),
      l3_(l3),
      emissaryL2_(l2.policy.family ==
                  replacement::PolicyFamily::EmissaryP),
      bypassLowPriorityInst_(bypass_low_priority_inst)
{
}

FillSource
LowerLevels::probe(std::uint64_t line, bool is_instruction, bool demand)
{
    if (demand) {
        if (is_instruction) {
            ++stats_.l2InstAccesses;
            if (observer_)
                observer_->onL2InstAccess(line);
        } else {
            ++stats_.l2DataAccesses;
        }
    }

    if (const Cache::Slot hit = l2_.lookup(line)) {
        if (is_instruction && l2_.line(hit).priority)
            ++stats_.l2InstHitsProtected;
        l2_.touch(hit);
        return FillSource::L2;
    }
    if (demand) {
        if (is_instruction) {
            ++stats_.l2InstMisses;
            if (observer_)
                observer_->onL2InstMiss(line);
        } else {
            ++stats_.l2DataMisses;
        }
        l2_.noteDemandMiss(line);
    }

    ++stats_.l3Accesses;
    if (l3_.lookup(line))
        return FillSource::L3;
    ++stats_.l3Misses;
    ++stats_.dramReads;
    return FillSource::Memory;
}

bool
LowerLevels::select(const replacement::MissContext &ctx)
{
    // Mode selection happens exactly once per miss (§4.1); EMISSARY
    // selects instruction lines only.
    if (!ctx.isInstruction && emissaryL2_)
        return false;
    return l2_.spec().computePriority(ctx, l2_.selectionRng());
}

Cache::Eviction
LowerLevels::fillL2(std::uint64_t line, FillSource source,
                    bool is_instruction, bool selected)
{
    bool sfl = false;
    if (source == FillSource::L3) {
        l3_.invalidate(line);  // exclusive: move, not copy
        sfl = true;
    }
    if (bypassLowPriorityInst_ && emissaryL2_ && is_instruction &&
        !selected) {
        Cache::Eviction bypassed;
        bypassed.slot = l2_.lookup(line);
        return bypassed;
    }

    replacement::LineInfo info;
    info.isInstruction = is_instruction;
    info.highPriority = !emissaryL2_ && selected;
    const Cache::Eviction ev = l2_.insert(
        line, info, is_instruction, /*dirty=*/false, sfl,
        /*prefetched=*/false);
    if (ev.resident)
        return ev;  // Raced with another fill path; already resident.
    ++stats_.l2Fills;
    if (observer_)
        observer_->onL2Fill(line, is_instruction, info.highPriority);
    if (ev.valid) {
        ++stats_.l2Evictions;
        if (ev.line.priority)
            ++stats_.l2ProtectedEvictions;
        if (observer_)
            observer_->onL2Eviction(ev.lineAddr, ev.line.priority,
                                    ev.line.dirty);
    }
    return ev;
}

void
LowerLevels::evictToL3(const Cache::Eviction &victim, bool l1d_dirty)
{
    // Exclusive victim L3: the line enters L3 only now. The SFL bit
    // recorded at L2-fill time selects MRU insertion (§5.1).
    replacement::LineInfo info;
    info.isInstruction = victim.line.isInstruction;
    info.insertMru = victim.line.sfl;
    const Cache::Eviction l3_ev = l3_.insert(
        victim.lineAddr, info, victim.line.isInstruction,
        victim.line.dirty || l1d_dirty, /*sfl=*/false,
        /*prefetched=*/false);
    assert(!l3_ev.resident && "double insert");
    if (l3_ev.valid && l3_ev.line.dirty)
        ++stats_.dramWrites;
}

bool
LowerLevels::l1iPriority(const Filled &filled, bool l1i_selected)
{
    bool priority = (emissaryL2_ && filled.selected) || l1i_selected;
    if (filled.l2)
        priority = priority || l2_.line(filled.l2).priority;
    if (priority)
        ++stats_.highPriorityFills;
    return priority;
}

void
LowerLevels::upgrade(std::uint64_t line)
{
    l2_.raisePriority(line);
    ++stats_.priorityUpgrades;
    if (observer_)
        observer_->onPriorityUpgrade(line);
}

void
LowerLevels::writeBack(std::uint64_t line)
{
    // Present by inclusion except when a concurrent L2 eviction
    // already pushed it out.
    if (const Cache::Slot slot = l2_.lookup(line))
        l2_.markDirty(slot);
    else
        ++stats_.dramWrites;
}

Hierarchy::Hierarchy(const Config &config)
    : config_(config),
      l1i_(config.l1i),
      l1d_(config.l1d),
      lower_(config.l2, config.l3, config.bypassLowPriorityInst)
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
        ++stats().l1iAccesses;

    if (const Cache::Slot hit = l1i_.lookup(line_addr)) {
        l1i_.touch(hit);
        return now + config_.l1i.hitLatency;
    }

    if (const std::size_t i = findMshr(line_addr); i != npos) {
        if (demandish)
            ++stats().l1iMisses;
        return mshrs_[i].readyCycle;
    }

    if (demandish)
        ++stats().l1iMisses;

    const std::uint64_t ready =
        missBelowL1(line_addr, now, true, false, demandish);

    if (config_.nextLinePrefetch && kind == RequestKind::Demand) {
        ++stats().nlpIssued;
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
        ++stats().l1dAccesses;

    if (const Cache::Slot hit = l1d_.lookup(line_addr)) {
        if (write && log_ && !l1d_.line(hit).dirty)
            log_->dirtyStore(line_addr, l1d_.index(hit));
        l1d_.touch(hit);
        if (write)
            l1d_.markDirty(hit);
        return now + config_.l1d.hitLatency;
    }

    if (const std::size_t i = findMshr(line_addr); i != npos) {
        if (demandish)
            ++stats().l1dMisses;
        mshrs_[i].write = mshrs_[i].write || write;
        return mshrs_[i].readyCycle;
    }

    if (demandish)
        ++stats().l1dMisses;

    const std::uint64_t ready =
        missBelowL1(line_addr, now, false, write, demandish);

    if (config_.nextLinePrefetch && kind == RequestKind::Demand) {
        ++stats().nlpIssued;
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
    Mshr entry;
    entry.isInstruction = is_instruction;
    entry.write = write;
    entry.source = lower_.probe(line_addr, is_instruction, demandish);

    unsigned latency = l1_latency + config_.l2.hitLatency;
    if (entry.source != FillSource::L2) {
        latency += config_.l3.hitLatency;
        if (entry.source == FillSource::Memory)
            latency += config_.dramLatency;
        if (config_.idealL2Inst && is_instruction) {
            if (seenL2Inst_.count(line_addr)) {
                // Capacity/conflict miss in the §5.6 ideal model:
                // the fill still happens but latency collapses to an
                // L2 hit.
                latency = l1_latency + config_.l2.hitLatency;
                ++stats().idealCollapsedMisses;
            }
            seenL2Inst_.insert(line_addr);
        }
    }

    if (log_)
        log_->probe(line_addr, is_instruction, demandish);

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
    stats().starvationNotes += cycles;
    if (observer_)
        for (std::uint64_t c = now; c < now + cycles; ++c)
            observer_->onStarvationCycle(line_addr, c);
}

bool
Hierarchy::evictFromL1s(std::uint64_t line_addr)
{
    // Inclusive L2: remove stale copies from the L1s. A displaced
    // L1I priority bit dies with the line (it is leaving both
    // caches); a dirty L1D copy folds its data into the victim.
    const Cache::Eviction i = l1i_.invalidate(line_addr);
    if (log_ && i.valid)
        log_->slotEvent(MissLog::Kind::L1IInvalidate, l1i_.index(i.slot));
    const Cache::Eviction d = l1d_.invalidate(line_addr);
    const bool dirty = d.valid && d.line.dirty;
    if (log_ && dirty)
        log_->slotEvent(MissLog::Kind::L1DInvalidate, l1d_.index(d.slot));
    return dirty;
}

void
Hierarchy::complete(std::uint64_t line_addr, const Mshr &entry)
{
    if (entry.starveCycles > 0) {
        HierarchyStats &counters = stats();
        switch (entry.source) {
          case FillSource::L2:
            counters.starveCyclesL2 += entry.starveCycles;
            break;
          case FillSource::L3:
            counters.starveCyclesL3 += entry.starveCycles;
            break;
          case FillSource::Memory:
            counters.starveCyclesMem += entry.starveCycles;
            break;
        }
    }

    replacement::MissContext ctx;
    ctx.isInstruction = entry.isInstruction;
    ctx.causedStarvation = entry.starved;
    ctx.issueQueueEmpty = entry.iqEmpty;

    const LowerLevels::Filled filled = lower_.fill(
        line_addr, entry.source, ctx,
        [this](std::uint64_t victim) { return evictFromL1s(victim); });

    if (entry.isInstruction) {
        // When the §3 ablation runs EMISSARY at the L1I instead of
        // (or as well as) the L2, the L1I's own selector is evaluated
        // with the same miss context, once per miss.
        bool l1i_selected = false;
        if (l1i_.spec().family == replacement::PolicyFamily::EmissaryP)
            l1i_selected =
                l1i_.spec().computePriority(ctx, l1i_.selectionRng());

        replacement::LineInfo info;
        info.isInstruction = true;
        info.highPriority = lower_.l1iPriority(filled, l1i_selected);
        const Cache::Eviction ev = l1i_.insert(
            line_addr, info, /*is_instruction=*/true, /*dirty=*/false,
            /*sfl=*/false, /*prefetched=*/false);
        assert(!ev.resident && "double insert");
        if (ev.valid && ev.line.priority)
            // L1I eviction communicates starvation history to the L2
            // copy (§3) — the heart of EMISSARY's persistence.
            lower_.upgrade(ev.lineAddr);
        if (log_)
            log_->instructionFill(line_addr, entry.starved,
                                  entry.iqEmpty, l1i_selected,
                                  l1i_.index(ev.slot));
    } else {
        replacement::LineInfo info;
        info.isInstruction = false;
        info.highPriority = false;
        const Cache::Eviction ev = l1d_.insert(
            line_addr, info, /*is_instruction=*/false, entry.write,
            /*sfl=*/false, /*prefetched=*/false);
        assert(!ev.resident && "double insert");
        if (ev.valid && ev.line.dirty)
            lower_.writeBack(ev.lineAddr);
        if (log_)
            log_->dataFill(line_addr, entry.starved, entry.iqEmpty,
                           entry.write, l1d_.index(ev.slot));
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
    lower_.l2().resetPriorities();
    if (log_)
        log_->mark(MissLog::Kind::PriorityReset);
}

} // namespace emissary::cache
