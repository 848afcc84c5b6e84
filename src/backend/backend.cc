#include "backend/backend.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace emissary::backend
{

namespace
{

constexpr std::uint64_t kNever = ~std::uint64_t{0};

std::uint64_t
mixPc(std::uint64_t pc)
{
    std::uint64_t z = pc * 0x9e3779b97f4a7c15ULL;
    return z ^ (z >> 31);
}

} // namespace

Backend::Backend(const Config &config, cache::Hierarchy &hierarchy)
    : config_(config),
      hierarchy_(hierarchy),
      rob_(config.robEntries),
      calendar_(kCalendarSpan)
{
}

std::uint64_t
Backend::depReady(std::uint64_t seq, std::uint64_t pc) const
{
    // A fraction of instructions pseudo-depend on one of their
    // depWindow predecessors (chosen by a PC hash so a given static
    // instruction has stable behaviour). This propagates load
    // latency into consumers without full register renaming while
    // leaving the renamer's ILP visible.
    if (config_.depWindow == 0 || seq == 0)
        return 0;
    const std::uint64_t h = mixPc(pc);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u >= config_.depFraction)
        return 0;
    const std::uint64_t distance =
        1 + (h >> 32) % config_.depWindow;
    if (seq < distance)
        return 0;
    return completionRing_[(seq - distance) % kRingSize];
}

bool
Backend::canAccept() const
{
    return robCount_ < config_.robEntries &&
           inFlightExec_ < config_.iqEntries &&
           lqOccupancy_ < config_.lqEntries &&
           sqOccupancy_ < config_.sqEntries;
}

void
Backend::issueStage(std::uint64_t now,
                    std::deque<core::DynInst> &decode_queue,
                    std::optional<std::uint64_t> pending_line)
{
    if (decode_queue.empty()) {
        starveDecode(now, 1, pending_line);
        return;
    }

    unsigned moved = 0;
    while (moved < config_.width && !decode_queue.empty() &&
           canAccept()) {
        const core::DynInst inst = decode_queue.front();
        decode_queue.pop_front();

        const std::uint64_t dep = depReady(inst.seq, inst.rec.pc);
        const std::uint64_t start = std::max(now, dep);
        std::uint64_t complete;
        bool is_load = false;
        bool is_store = false;

        switch (inst.rec.cls) {
          case trace::InstClass::Load: {
            is_load = true;
            ++stats_.loads;
            // Pointer chasing: a slice of loads (linked structures)
            // cannot issue until the previous load's value arrives.
            std::uint64_t issue = now;
            const std::uint64_t h2 = mixPc(inst.rec.pc * 31);
            if (static_cast<double>(h2 >> 11) * 0x1.0p-53 <
                config_.loadChainFraction) {
                issue = std::max(issue, lastLoadComplete_);
            }
            const std::uint64_t mem_ready = hierarchy_.requestData(
                inst.rec.memAddr >> 6, issue, /*write=*/false);
            complete = std::max({start + 1, issue + 1, mem_ready});
            lastLoadComplete_ = complete;
            ++lqOccupancy_;
            break;
          }
          case trace::InstClass::Store: {
            is_store = true;
            ++stats_.stores;
            // Stores retire through the store queue; the fill/dirty
            // traffic is modelled but does not gate completion.
            hierarchy_.requestData(inst.rec.memAddr >> 6, now,
                                   /*write=*/true);
            complete = start + config_.storeLatency;
            ++sqOccupancy_;
            break;
          }
          case trace::InstClass::IntMul:
            complete = start + config_.mulLatency;
            break;
          case trace::InstClass::FpAlu:
            complete = start + config_.fpLatency;
            break;
          case trace::InstClass::CondBranch:
          case trace::InstClass::DirectJump:
          case trace::InstClass::IndirectJump:
          case trace::InstClass::Call:
          case trace::InstClass::IndirectCall:
          case trace::InstClass::Return:
            complete = start + config_.branchLatency;
            break;
          default:
            complete = start + config_.intLatency;
            break;
        }

        completionRing_[inst.seq % kRingSize] = complete;
        unsigned tail = robHead_ + robCount_;
        if (tail >= config_.robEntries)
            tail -= config_.robEntries;
        rob_[tail] = RobEntry{complete, is_store};
        ++robCount_;
        schedule(complete, inst.seq, is_load, inst.mispredicted);
        ++inFlightExec_;
        ++stats_.issued;
        ++moved;
    }
    if (moved > 0)
        ++stats_.decodeActiveCycles;
}

void
Backend::starveDecode(std::uint64_t now, std::uint64_t cycles,
                      std::optional<std::uint64_t> pending_line)
{
    // Decode starvation (§3): the decode stage wants to pull but the
    // queue feeding it is empty. It only counts as starvation when
    // the back-end could actually accept instructions (a stalled
    // decode cannot starve).
    if (!canAccept())
        return;
    if (pending_line) {
        stats_.starvationCycles += cycles;
        const bool iq_empty = issueQueueEmpty();
        if (iq_empty)
            stats_.starvationIqEmptyCycles += cycles;
        hierarchy_.noteStarvation(*pending_line, iq_empty, now, cycles);
    } else {
        stats_.resteerEmptyCycles += cycles;
    }
}

void
Backend::idleCycles(std::uint64_t now, std::uint64_t cycles,
                    bool decode_empty,
                    std::optional<std::uint64_t> pending_line)
{
    // Nothing commits, so each cycle is an FE or BE stall, and a
    // non-empty decode queue stays blocked without a count.
    stats_.cycles += cycles;
    if (robCount_ == 0)
        stats_.feStallCycles += cycles;
    else
        stats_.beStallCycles += cycles;
    if (decode_empty)
        starveDecode(now, cycles, pending_line);
}

std::uint64_t
Backend::nextEvent(std::uint64_t horizon) const
{
    std::uint64_t next = horizon;
    if (robCount_ > 0)
        next = std::min(next, rob_[robHead_].completeCycle);
    if (!exact_.empty())
        next = std::min(next, exact_.front().cycle);
    // The calendar scan stops at the earliest event found so far.
    if (next > nextDrain_)
        next = std::min(next, nextBooked(next - 1));
    return next;
}

std::uint64_t
Backend::nextBooked(std::uint64_t horizon) const
{
    if (horizon < nextDrain_)
        return kNever;
    // Every live bucket covers a cycle in [nextDrain_, nextDrain_ +
    // span), so one lap of the bitmap from nextDrain_ finds them all.
    const std::uint64_t window =
        std::min<std::uint64_t>(horizon - nextDrain_,
                                kCalendarSpan - 1) + 1;
    std::uint64_t offset = 0;
    while (offset < window) {
        const unsigned slot = static_cast<unsigned>(
            (nextDrain_ + offset) & (kCalendarSpan - 1));
        const std::uint64_t bits = booked_[slot / 64] >> (slot % 64);
        if (bits != 0) {
            offset += static_cast<unsigned>(std::countr_zero(bits));
            return offset < window ? nextDrain_ + offset : kNever;
        }
        offset += 64 - slot % 64;
    }
    return kNever;
}

void
Backend::schedule(std::uint64_t cycle, std::uint64_t seq, bool is_load,
                  bool mispredicted)
{
    if (!mispredicted && cycle >= nextDrain_ &&
        cycle - nextDrain_ < kCalendarSpan) {
        const unsigned slot =
            static_cast<unsigned>(cycle & (kCalendarSpan - 1));
        Bucket &bucket = calendar_[slot];
        ++bucket.completions;
        bucket.loads += is_load ? 1 : 0;
        booked_[slot / 64] |= std::uint64_t{1} << (slot % 64);
        return;
    }
    // Insert after every entry of the same cycle, so equal cycles
    // drain in dispatch order.
    std::size_t pos = exact_.size();
    while (pos > 0 && exact_[pos - 1].cycle > cycle)
        --pos;
    exact_.insert(exact_.begin() + static_cast<std::ptrdiff_t>(pos),
                  Pending{cycle, seq, is_load, mispredicted});
}

void
Backend::executeStage(std::uint64_t now)
{
    bool any = false;
    if (now >= nextDrain_) {
        // A gap drains the booked buckets it covers, in cycle order.
        for (std::uint64_t c = nextBooked(now); c != kNever;
             c = nextBooked(now)) {
            const unsigned slot =
                static_cast<unsigned>(c & (kCalendarSpan - 1));
            Bucket &bucket = calendar_[slot];
            assert(inFlightExec_ >= bucket.completions);
            assert(lqOccupancy_ >= bucket.loads);
            inFlightExec_ -= bucket.completions;
            lqOccupancy_ -= bucket.loads;
            bucket = Bucket{};
            booked_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
            nextDrain_ = c + 1;
            any = true;
        }
        nextDrain_ = now + 1;
    }

    std::size_t done = 0;
    for (; done < exact_.size() && exact_[done].cycle <= now; ++done) {
        const Pending pending = exact_[done];
        assert(inFlightExec_ > 0);
        --inFlightExec_;
        if (pending.isLoad) {
            assert(lqOccupancy_ > 0);
            --lqOccupancy_;
        }
        if (pending.mispredicted) {
            ++stats_.branchesResolved;
            if (resolve_)
                resolve_(pending.seq, pending.cycle);
        }
    }
    if (done > 0) {
        exact_.erase(exact_.begin(),
                     exact_.begin() + static_cast<std::ptrdiff_t>(done));
        any = true;
    }
    if (any)
        ++stats_.issueActiveCycles;
}

void
Backend::commitStage(std::uint64_t now)
{
    ++stats_.cycles;
    unsigned committed = 0;
    while (committed < config_.width && robCount_ > 0 &&
           rob_[robHead_].completeCycle <= now) {
        if (rob_[robHead_].isStore) {
            assert(sqOccupancy_ > 0);
            --sqOccupancy_;
        }
        if (++robHead_ == config_.robEntries)
            robHead_ = 0;
        --robCount_;
        ++committed;
    }
    stats_.committed += committed;
    if (committed == 0) {
        if (robCount_ == 0)
            ++stats_.feStallCycles;
        else
            ++stats_.beStallCycles;
    }
}

} // namespace emissary::backend
