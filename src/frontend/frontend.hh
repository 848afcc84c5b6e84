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
 *
 * Because the BPU walks the committed path in trace order, each
 * block's outcome (BTB hit, mispredict, pre-decode wait) is a pure
 * function of the record stream and the PredictorConfig: no cache,
 * L2 policy or timing reaches it. The BranchPredictor computes it,
 * and a PredictionStream holds one stream's outcomes computed once,
 * so every machine that replays the same stream from record 0 under
 * the same PredictorConfig can read them instead of predicting.
 * FrontEnd applies an outcome the same way wherever it came from.
 */

#ifndef EMISSARY_FRONTEND_FRONTEND_HH
#define EMISSARY_FRONTEND_FRONTEND_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
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

/**
 * Everything besides the record stream that decides a block's
 * predicted outcome: how blocks are cut and the predictor tables'
 * geometry and seeds. Two machines whose PredictorConfigs are equal
 * predict every block of one stream alike (PredictionStream's key).
 */
struct PredictorConfig
{
    unsigned maxBlockInstrs = 64;   ///< Safety cap per FTQ entry.
    unsigned btbEntries = 16384;    ///< Table 4.
    unsigned btbWays = 8;
    Tage::Config tage;
    Ittage::Config ittage;
    unsigned rasDepth = 32;
};

/** Every field equal, seeds and history lengths included. */
bool operator==(const PredictorConfig &a, const PredictorConfig &b);

/** Outcome bits of one predicted block (BranchPredictor::predict). */
enum BlockOutcome : std::uint8_t
{
    kBtbHit = 1,        ///< The BTB knew the block.
    kMispredict = 2,    ///< Halt enqueue until the branch resolves.
    kPredecodeWait = 4, ///< Stall until the block's bytes pre-decode.
};

/**
 * The branch-prediction unit: basic-block BTB, TAGE, ITTAGE and RAS.
 * Copyable, so a reader of a finished PredictionStream can continue
 * from the producer's final state.
 */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const PredictorConfig &config);

    /**
     * Predict the block of @p instrs instructions starting at
     * @p start_pc and ending in @p terminator, train every predictor
     * on the resolved outcome, teach the BTB the block, and return
     * the BlockOutcome bits. A block cut at maxBlockInstrs (no
     * control terminator) predicts nothing and returns 0. Call once
     * per block, in trace order.
     */
    std::uint8_t predict(std::uint64_t start_pc,
                         const trace::TraceRecord &terminator,
                         unsigned instrs);

  private:
    BasicBlockBtb btb_;
    Tage tage_;
    Ittage ittage_;
    ReturnAddressStack ras_;
};

/**
 * One record stream's block outcomes, predicted once and read by any
 * number of machines replaying that stream from record 0 under an
 * equal PredictorConfig. One byte per block, in block order.
 *
 * A producer feeds the stream's records in order (append) and then
 * finishes it; readers on other threads may read meanwhile. Like
 * trace::RecordBuffer, the storage is allocated up front (not
 * zero-filled) and the predicted prefix is published through one
 * atomic count, here with a done bit, so a reader blocks only on a
 * block past the published count. A stream holds at most @p
 * max_blocks outcomes: a reader that needs more, once the stream is
 * finished, continues inline from a copy of finalState(), the
 * predictor after the last published block.
 */
class PredictionStream
{
  public:
    PredictionStream(const PredictorConfig &config,
                     std::uint64_t max_blocks);

    const PredictorConfig &config() const { return config_; }

    /**
     * Cut @p n more records into blocks exactly as FrontEnd does,
     * predict every block they complete, and publish the new count.
     * A block still open at the end waits for the next call. Once
     * max_blocks outcomes are held, further records are ignored.
     * One producer thread; never waits.
     */
    void append(const trace::TraceRecord *records, std::size_t n) noexcept;

    /** Publish the done bit: no outcome follows the published ones. */
    void finish() noexcept;

    /** Outcomes published so far (acquire). */
    std::uint64_t
    published() const
    {
        return published_.load(std::memory_order_acquire) >> 1;
    }

    /**
     * Block until more than @p block outcomes are published or the
     * stream is finished; return the published count, which is at
     * most @p block only when the stream ended first.
     */
    std::uint64_t await(std::uint64_t block) const;

    /** Outcome of block @p block, which must be below published().
     *  Read through the fixed storage pointer only. */
    std::uint8_t outcome(std::uint64_t block) const
    {
        return outcomes_.get()[block];
    }

    /** The predictor after the last published block. Valid once
     *  await() has returned a count at or below its argument. */
    const BranchPredictor &finalState() const { return predictor_; }

  private:
    PredictorConfig config_;
    BranchPredictor predictor_;
    std::unique_ptr<std::uint8_t[]> outcomes_;
    std::uint64_t capacity_ = 0;
    std::uint64_t blocks_ = 0;        ///< Producer's count.
    std::uint64_t blockStart_ = 0;    ///< PC of the open block.
    unsigned blockInstrs_ = 0;        ///< Records in the open block.
    /** (published count << 1) | done (release stores, acquire
     *  loads). */
    std::atomic<std::uint64_t> published_{0};
};

/** The decoupled front-end. */
class FrontEnd
{
  public:
    struct Config : PredictorConfig
    {
        unsigned ftqEntries = 24;       ///< Table 4.
        unsigned ftqInstrs = 192;       ///< Table 4.
        unsigned fetchWidth = 8;        ///< Table 4.
        unsigned decodeQueueCap = 32;   ///< Buffer feeding decode.
        bool fdip = true;
        unsigned fdipLinesPerCycle = 2;
        unsigned resteerLatency = 10;   ///< After mispredict resolve.
        unsigned predecodeDelay = 3;    ///< BTB fill after bytes arrive.
    };

    /**
     * @param predictions Outcomes of @p source's stream read from its
     *        first record (not owned; nullptr = predict inline). Its
     *        config() must equal @p config's predictor part. The
     *        front-end then allocates no predictor tables until it
     *        runs past the stream's end.
     * @throws std::invalid_argument on a predictor config mismatch.
     */
    FrontEnd(const Config &config, trace::TraceSource &source,
             cache::Hierarchy &hierarchy,
             const PredictionStream *predictions = nullptr);

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

    /** BlockOutcome bits of the last block formed, read from the
     *  stream or predicted (testing/diagnosis). */
    std::uint8_t lastOutcome() const { return lastOutcome_; }

    /** Seconds spent blocked on outcomes the PredictionStream had
     *  not published yet (0 when predicting inline). */
    double predictionWaitSeconds() const
    {
        return predictionWaitSeconds_;
    }

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

    /** The outcome of the block just built into @p entry: the
     *  stream's next one, or the inline predictor's. */
    std::uint8_t
    outcomeOf(const FtqEntry &entry)
    {
        if (stream_) {
            if (streamBlock_ < streamReady_ || awaitStream())
                return stream_->outcome(streamBlock_++);
            predictPastStream();
        }
        return bpu_->predict(entry.instrs.front().rec.pc,
                             entry.instrs.back().rec,
                             static_cast<unsigned>(entry.instrs.size()));
    }

    /** Refresh the published count, waiting (timed) when the next
     *  block is not published; false once the stream has ended. */
    bool awaitStream();

    /** Hand over from an ended stream to inline prediction from a
     *  copy of the stream's final predictor state. */
    void predictPastStream();

    /** Apply a block's outcome bits: stats, halt on a mispredict and
     *  the pre-decode stall with its line requests. */
    void applyOutcome(FtqEntry &entry, std::uint8_t outcome,
                      std::uint64_t now);

    /** Issue the hierarchy requests for a block's lines. */
    void requestLines(FtqEntry &entry, std::uint64_t now,
                      cache::RequestKind kind);

    Config config_;
    trace::TraceSource &source_;
    cache::Hierarchy &hierarchy_;

    /** Inline predictor; empty while the front-end reads a stream. */
    std::optional<BranchPredictor> bpu_;
    const PredictionStream *stream_ = nullptr;
    std::uint64_t streamBlock_ = 0;  ///< Index of the next block.
    std::uint64_t streamReady_ = 0;  ///< Outcomes known published.
    double predictionWaitSeconds_ = 0.0;
    std::uint8_t lastOutcome_ = 0;

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
