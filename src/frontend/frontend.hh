/**
 * @file
 * The decoupled front-end (paper §5.2).
 *
 * A branch-prediction unit (BPU) walks the committed-path trace one
 * dynamic basic block per cycle, predicting each block's terminator
 * with TAGE / ITTAGE / RAS and chasing block targets through a
 * basic-block BTB, and enqueues fetch targets into the FTQ (24
 * entries / 192 instructions). FDIP prefetches the instruction lines
 * of queued blocks into L1I ahead of fetch; the fetch stage delivers
 * instructions whose lines have arrived into the decode queue.
 *
 * Trace-driven control-flow handling (ChampSim-style): the front-end
 * always follows the committed path, and a wrong prediction halts
 * block enqueue at the offending branch until the back-end resolves
 * it, charging the full decoupled-front-end re-steer cost without
 * simulating wrong-path instructions.
 */

#ifndef EMISSARY_FRONTEND_FRONTEND_HH
#define EMISSARY_FRONTEND_FRONTEND_HH

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/inst.hh"
#include "frontend/btb.hh"
#include "frontend/ittage.hh"
#include "frontend/ras.hh"
#include "frontend/tage.hh"
#include "trace/record.hh"

namespace emissary::frontend
{

/** Front-end statistics for one measurement window. */
struct FrontEndStats
{
    std::uint64_t blocksFormed = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t indirectBranches = 0;
    std::uint64_t indirectMispredicts = 0;
    std::uint64_t returns = 0;
    std::uint64_t returnMispredicts = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t btbMissResteers = 0;  ///< Taken terminator unseen.
    std::uint64_t fetchedInstrs = 0;
    std::uint64_t fdipRequests = 0;

    void reset() { *this = FrontEndStats{}; }

    /** Component-wise sum — the time-parallel chunk splice
     *  (core::run) adds window slices. */
    FrontEndStats &
    operator+=(const FrontEndStats &other)
    {
        blocksFormed += other.blocksFormed;
        condBranches += other.condBranches;
        condMispredicts += other.condMispredicts;
        indirectBranches += other.indirectBranches;
        indirectMispredicts += other.indirectMispredicts;
        returns += other.returns;
        returnMispredicts += other.returnMispredicts;
        btbMisses += other.btbMisses;
        btbMissResteers += other.btbMissResteers;
        fetchedInstrs += other.fetchedInstrs;
        fdipRequests += other.fdipRequests;
        return *this;
    }
};

/**
 * One FTQ entry: a predicted dynamic basic block. The FTQ reuses a
 * fixed set of entries and both vectors keep their capacity from one
 * block to the next, so once they have grown to the largest block
 * (at most maxBlockInstrs) building a block allocates nothing.
 */
struct FtqEntry
{
    struct LineState
    {
        std::uint64_t lineAddr = 0;
        std::uint64_t readyCycle = 0;
        bool requested = false;
    };

    std::vector<core::DynInst> instrs;
    /** One state per change of line along the block, in PC order. */
    std::vector<LineState> lines;
    unsigned consumed = 0;         ///< Instructions already fetched.
    /** lines[] index of the line holding instrs[consumed]. */
    unsigned lineIndex = 0;
    bool linesRequested = false;   ///< FDIP / fetch issued requests.
};

/** The decoupled front-end. */
class FrontEnd
{
  public:
    struct Config
    {
        unsigned ftqEntries = 24;       ///< Table 4.
        unsigned ftqInstrs = 192;       ///< Table 4.
        unsigned fetchWidth = 8;        ///< Table 4.
        unsigned decodeQueueCap = 32;   ///< Buffer feeding decode.
        bool fdip = true;
        unsigned fdipLinesPerCycle = 2;
        unsigned maxBlockInstrs = 64;   ///< Safety cap per FTQ entry.
        unsigned resteerLatency = 10;   ///< After mispredict resolve.
        unsigned predecodeDelay = 3;    ///< BTB fill after bytes arrive.
        unsigned btbEntries = 16384;    ///< Table 4.
        unsigned btbWays = 8;
        Tage::Config tage;
        Ittage::Config ittage;
        unsigned rasDepth = 32;
    };

    FrontEnd(const Config &config, trace::TraceSource &source,
             cache::Hierarchy &hierarchy);

    /** BPU stage: form and predict at most one basic block. */
    void predict(std::uint64_t now);

    /** FDIP stage: prefetch lines for queued blocks. */
    void prefetch(std::uint64_t now);

    /**
     * Fetch stage: deliver line-ready instructions from the FTQ head
     * into @p decode_queue, up to fetchWidth.
     */
    void fetch(std::uint64_t now,
               std::deque<core::DynInst> &decode_queue);

    /** Back-end callback: the mispredicted branch @p seq resolved. */
    void onBranchResolved(std::uint64_t seq, std::uint64_t cycle);

    /**
     * The instruction line the decode stage is waiting on: set when
     * the FTQ head's next instruction sits in a line whose fill is
     * still outstanding. This is the line a decode starvation is
     * attributed to (§3).
     */
    std::optional<std::uint64_t>
    pendingFetchLine(std::uint64_t now) const;

    /**
     * The earliest cycle at or after @p now at which predict, FDIP or
     * fetch can act, or at which pendingFetchLine changes (~0 when
     * only another stage can wake the front-end): now when one of the
     * three has work, else the FTQ-head line's arrival or the end of
     * a BPU stall. @p decode_queued is the decode queue's length.
     */
    std::uint64_t nextEvent(std::uint64_t now,
                            std::size_t decode_queued) const;

    /** True when the FTQ holds no deliverable work. */
    bool ftqEmpty() const { return ftqSize_ == 0; }

    /** Sequence number of the mispredicted branch the BPU is halted
     *  on, if any (testing/diagnosis). */
    std::optional<std::uint64_t> haltedBranch() const
    {
        return haltedOnSeq_;
    }

    FrontEndStats &stats() { return stats_; }
    const FrontEndStats &stats() const { return stats_; }

    /**
     * Functional-warming mode, mirroring
     * cache::Hierarchy::setWarming: BTB/TAGE/RAS state trains
     * exactly as in a counted run while the stats accumulated under
     * warming are discarded when the mode ends, leaving the
     * measurement counters unperturbed.
     */
    void setWarming(bool warming)
    {
        if (warming_ && !warming)
            stats_.reset();
        warming_ = warming;
    }
    bool warming() const { return warming_; }

    BasicBlockBtb &btb() { return btb_; }
    Tage &tage() { return tage_; }

  private:
    /** Records pulled from the source per batched fill() call. The
     *  BPU consumes from this local buffer, so the per-instruction
     *  virtual TraceSource::next() dispatch is paid once per batch. */
    static constexpr std::size_t kFeedBatch = 256;

    /** Next committed record, refilling the feed buffer as needed. */
    const trace::TraceRecord &
    nextRecord()
    {
        if (feedPos_ == kFeedBatch) {
            source_.fill(feed_.data(), kFeedBatch);
            feedPos_ = 0;
        }
        return feed_[feedPos_++];
    }

    /** Pull trace records to build the next dynamic basic block
     *  into @p entry, replacing its previous contents. */
    void buildBlock(FtqEntry &entry);

    /** The FTQ entry @p offset places behind the head. */
    FtqEntry &
    ftqAt(unsigned offset)
    {
        unsigned slot = ftqHead_ + offset;
        if (slot >= config_.ftqEntries)
            slot -= config_.ftqEntries;
        return ftq_[slot];
    }

    /** Predict/teach the terminator; set halt/penalty state. */
    void predictTerminator(FtqEntry &entry, std::uint64_t now);

    /** Issue the hierarchy requests for a block's lines. */
    void requestLines(FtqEntry &entry, std::uint64_t now,
                      cache::RequestKind kind);

    Config config_;
    trace::TraceSource &source_;
    cache::Hierarchy &hierarchy_;

    BasicBlockBtb btb_;
    Tage tage_;
    Ittage ittage_;
    ReturnAddressStack ras_;

    std::array<trace::TraceRecord, kFeedBatch> feed_;
    std::size_t feedPos_ = kFeedBatch;  ///< Empty until first refill.

    /** The FTQ: a ring of ftqEntries reused entries. */
    std::vector<FtqEntry> ftq_;
    unsigned ftqHead_ = 0;
    unsigned ftqSize_ = 0;
    unsigned ftqInstrCount_ = 0;
    /** Offset from the head below which every entry has requested
     *  its lines, so FDIP resumes its walk there. */
    unsigned prefetchCursor_ = 0;

    std::uint64_t seq_ = 0;
    std::uint64_t bpuStallUntil_ = 0;
    /** Line the BPU is stalled on (BTB-miss pre-decode wait); used to
     *  attribute decode starvation when the FTQ has drained. */
    std::optional<std::uint64_t> bpuWaitLine_;
    std::optional<std::uint64_t> haltedOnSeq_;

    FrontEndStats stats_;
    bool warming_ = false;
};

} // namespace emissary::frontend

#endif // EMISSARY_FRONTEND_FRONTEND_HH
