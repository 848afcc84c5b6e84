/**
 * @file
 * The below-L1 event log of one fused pass.
 *
 * A monitor lane (cache/lanes.hh) depends on the timing machine only
 * through what happens below its L1s: the L2 probes, the fills with
 * their miss context, and the L1 state a lane's L2 eviction consults
 * (which L1I slot holds a line, which L1D lines are dirty). The
 * timing Hierarchy appends exactly those events here as they happen,
 * and each lane replays the finished log against its own L2/L3 on
 * any thread, the way DEW evaluates many cache configurations from
 * one recorded trace. The log holds every line's events: a 1-in-K
 * sampled lane skips the lines outside its sets as it replays.
 *
 * Encoding: one header byte per event (kind in bits 0-2, flags in
 * bits 3-5), then for probes, fills and dirty stores the zigzag
 * varint of the line address minus the previous such event's line,
 * and for every L1 event the varint of its L1 slot (set * ways +
 * way). A Fig. 5 row logs 3.7-4.5 bytes per event, 0.4-1.7 KB per
 * thousand instructions (docs/performance.md). The bytes live in
 * fixed-size blocks that no event straddles, so a growing log never
 * copies itself or holds more than one block of slack.
 */

#ifndef EMISSARY_CACHE_MISS_LOG_HH
#define EMISSARY_CACHE_MISS_LOG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace emissary::cache
{

/** Append-only record of one pass's below-L1 events. */
class MissLog
{
  public:
    enum class Kind : std::uint8_t
    {
        /** An L2 probe (Hierarchy::missBelowL1). Flags: kInstruction,
         *  kDemand. */
        Probe,
        /** An instruction fill, after the L1I insert into slot.
         *  Flags: kStarved, kIqEmpty, kSelected (the L1I's own
         *  EMISSARY selection). */
        InstructionFill,
        /** A data fill, after the L1D insert into slot. Flags:
         *  kStarved, kIqEmpty, kWrite (the line lands dirty). */
        DataFill,
        /** The timing L2 back-invalidated L1I slot. */
        L1IInvalidate,
        /** The timing L2 back-invalidated a dirty L1D slot. */
        L1DInvalidate,
        /** A store made the clean line in L1D slot dirty. */
        DirtyStore,
        /** EMISSARY §6 reset of every priority bit. */
        PriorityReset,
        /** The measurement window opens: counters restart. */
        WindowStart,
    };

    static constexpr std::uint8_t kInstruction = 1;
    static constexpr std::uint8_t kDemand = 2;
    static constexpr std::uint8_t kStarved = 1;
    static constexpr std::uint8_t kIqEmpty = 2;
    static constexpr std::uint8_t kSelected = 4;
    static constexpr std::uint8_t kWrite = 4;

    /** One decoded event; line and slot are set for the kinds that
     *  carry them. */
    struct Event
    {
        Kind kind = Kind::Probe;
        std::uint8_t flags = 0;
        std::uint64_t line = 0;
        unsigned slot = 0;
    };

    void
    probe(std::uint64_t line, bool is_instruction, bool demand)
    {
        put(Kind::Probe, (is_instruction ? kInstruction : 0) |
                             (demand ? kDemand : 0));
        putLine(line);
    }

    void
    instructionFill(std::uint64_t line, bool starved, bool iq_empty,
                    bool l1i_selected, unsigned slot)
    {
        put(Kind::InstructionFill, (starved ? kStarved : 0) |
                                       (iq_empty ? kIqEmpty : 0) |
                                       (l1i_selected ? kSelected : 0));
        putLine(line);
        putVarint(slot);
    }

    void
    dataFill(std::uint64_t line, bool starved, bool iq_empty,
             bool write, unsigned slot)
    {
        put(Kind::DataFill, (starved ? kStarved : 0) |
                                (iq_empty ? kIqEmpty : 0) |
                                (write ? kWrite : 0));
        putLine(line);
        putVarint(slot);
    }

    void
    dirtyStore(std::uint64_t line, unsigned slot)
    {
        put(Kind::DirtyStore, 0);
        putLine(line);
        putVarint(slot);
    }

    /** An L1IInvalidate or L1DInvalidate of @p slot. */
    void
    slotEvent(Kind kind, unsigned slot)
    {
        put(kind, 0);
        putVarint(slot);
    }

    void mark(Kind kind) { put(kind, 0); }

    /** Release the last block's slack once the pass is over. */
    void
    finish()
    {
        if (!blocks_.empty())
            blocks_.back().shrink_to_fit();
    }

    std::uint64_t events() const { return events_; }

    std::uint64_t
    bytes() const
    {
        std::uint64_t total = 0;
        for (const std::vector<std::uint8_t> &block : blocks_)
            total += block.size();
        return total;
    }

    /** Decodes a finished log from its first event. */
    class Reader
    {
      public:
        explicit Reader(const MissLog &log) : blocks_(log.blocks_) {}

        bool
        next(Event &event)
        {
            while (at_ == end_) {
                if (next_ == blocks_.size())
                    return false;
                const std::vector<std::uint8_t> &block = blocks_[next_++];
                at_ = block.data();
                end_ = at_ + block.size();
            }
            const std::uint8_t header = *at_++;
            event.kind = static_cast<Kind>(header & 7);
            event.flags = static_cast<std::uint8_t>(header >> 3);
            switch (event.kind) {
              case Kind::Probe:
                event.line = readLine();
                break;
              case Kind::InstructionFill:
              case Kind::DataFill:
              case Kind::DirtyStore:
                event.line = readLine();
                event.slot = static_cast<unsigned>(readVarint());
                break;
              case Kind::L1IInvalidate:
              case Kind::L1DInvalidate:
                event.slot = static_cast<unsigned>(readVarint());
                break;
              case Kind::PriorityReset:
              case Kind::WindowStart:
                break;
            }
            return true;
        }

      private:
        std::uint64_t
        readVarint()
        {
            std::uint64_t value = 0;
            unsigned shift = 0;
            std::uint8_t byte;
            do {
                byte = *at_++;
                value |= std::uint64_t{byte & 0x7Fu} << shift;
                shift += 7;
            } while (byte & 0x80u);
            return value;
        }

        std::uint64_t
        readLine()
        {
            const std::uint64_t z = readVarint();
            prevLine_ += (z >> 1) ^ (~(z & 1) + 1);
            return prevLine_;
        }

        const std::vector<std::vector<std::uint8_t>> &blocks_;
        std::size_t next_ = 0;
        const std::uint8_t *at_ = nullptr;
        const std::uint8_t *end_ = nullptr;
        std::uint64_t prevLine_ = 0;
    };

  private:
    static constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
    /** Header, a 64-bit line varint and a 32-bit slot varint. */
    static constexpr std::size_t kMaxEventBytes = 1 + 10 + 5;

    /** Starts an event: its bytes go to the last block, which has
     *  room for the largest one. */
    void
    put(Kind kind, unsigned flags)
    {
        if (blocks_.empty() ||
            blocks_.back().size() > kBlockBytes - kMaxEventBytes)
            blocks_.emplace_back().reserve(kBlockBytes);
        blocks_.back().push_back(static_cast<std::uint8_t>(
            static_cast<unsigned>(kind) | flags << 3));
        ++events_;
    }

    void
    putVarint(std::uint64_t value)
    {
        std::vector<std::uint8_t> &tail = blocks_.back();
        while (value >= 0x80) {
            tail.push_back(static_cast<std::uint8_t>(value | 0x80));
            value >>= 7;
        }
        tail.push_back(static_cast<std::uint8_t>(value));
    }

    void
    putLine(std::uint64_t line)
    {
        const std::uint64_t delta = line - prevLine_;
        prevLine_ = line;
        // Zigzag: small deltas of either sign take few bytes.
        putVarint((delta << 1) ^ (0 - (delta >> 63)));
    }

    std::vector<std::vector<std::uint8_t>> blocks_;
    std::uint64_t events_ = 0;
    std::uint64_t prevLine_ = 0;
};

} // namespace emissary::cache

#endif // EMISSARY_CACHE_MISS_LOG_HH
