#include "frontend/frontend.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace emissary::frontend
{

namespace
{
constexpr unsigned kLineShift = 6;  // 64 B lines.
} // namespace

bool
operator==(const PredictorConfig &a, const PredictorConfig &b)
{
    // A field added to PredictorConfig, Tage::Config or
    // Ittage::Config joins this list.
    return a.maxBlockInstrs == b.maxBlockInstrs &&
           a.btbEntries == b.btbEntries && a.btbWays == b.btbWays &&
           a.tage.bimodalLog == b.tage.bimodalLog &&
           a.tage.tableLog == b.tage.tableLog &&
           a.tage.tagBits == b.tage.tagBits &&
           a.tage.historyLengths == b.tage.historyLengths &&
           a.tage.seed == b.tage.seed &&
           a.ittage.tableLog == b.ittage.tableLog &&
           a.ittage.tagBits == b.ittage.tagBits &&
           a.ittage.historyLengths == b.ittage.historyLengths &&
           a.ittage.seed == b.ittage.seed && a.rasDepth == b.rasDepth;
}

BranchPredictor::BranchPredictor(const PredictorConfig &config)
    : btb_(config.btbEntries, config.btbWays),
      tage_(config.tage),
      ittage_(config.ittage),
      ras_(config.rasDepth)
{
}

std::uint8_t
BranchPredictor::predict(std::uint64_t start_pc,
                         const trace::TraceRecord &rec, unsigned instrs)
{
    if (!trace::isControl(rec.cls))
        return 0;  // Oversized straight-line block; nothing to predict.

    const BtbEntry *btb_entry = btb_.lookup(start_pc);
    const bool btb_hit = btb_entry != nullptr;

    bool mispredict = false;
    // Pre-decode wait: block boundary/target unknown until the
    // block's bytes arrive and the pre-decoder fills the BTB.
    bool predecode_wait = !btb_hit;

    switch (rec.cls) {
      case trace::InstClass::CondBranch: {
        const bool pred_taken = tage_.predict(rec.pc);
        tage_.update(rec.pc, rec.taken);
        if (btb_hit) {
            if (pred_taken != rec.taken) {
                mispredict = true;
            } else if (rec.taken && btb_entry->takenTarget != 0 &&
                       btb_entry->takenTarget != rec.nextPc) {
                // Stale target (aliased entry): re-steer like a
                // mispredict.
                mispredict = true;
            } else if (rec.taken && btb_entry->takenTarget == 0) {
                // Direction known but target never observed; the
                // pre-decoder supplies it from the block's bytes.
                predecode_wait = true;
            }
        }
        break;
      }
      case trace::InstClass::DirectJump:
      case trace::InstClass::Call: {
        if (rec.cls == trace::InstClass::Call)
            ras_.push(rec.pc + trace::kInstBytes);
        tage_.updateUnconditional(rec.pc);
        break;
      }
      case trace::InstClass::IndirectJump:
      case trace::InstClass::IndirectCall: {
        const std::uint64_t base =
            btb_hit ? btb_entry->takenTarget : 0;
        const std::uint64_t pred = ittage_.predict(rec.pc, base);
        ittage_.update(rec.pc, rec.nextPc);
        mispredict = pred != rec.nextPc;
        if (rec.cls == trace::InstClass::IndirectCall)
            ras_.push(rec.pc + trace::kInstBytes);
        tage_.updateUnconditional(rec.pc);
        break;
      }
      case trace::InstClass::Return: {
        mispredict = ras_.pop() != rec.nextPc;
        tage_.updateUnconditional(rec.pc);
        break;
      }
      default:
        break;
    }

    // Teach the BTB the block descriptor (pre-decoder path). For
    // conditional branches the taken target is only learnable once
    // observed taken.
    BtbEntry teach;
    teach.startPc = start_pc;
    teach.instrCount = static_cast<std::uint16_t>(instrs);
    teach.endClass = rec.cls;
    if (rec.cls == trace::InstClass::CondBranch && !rec.taken) {
        teach.takenTarget = btb_hit ? btb_entry->takenTarget : 0;
    } else {
        teach.takenTarget = rec.nextPc;
    }
    btb_.install(teach);

    return static_cast<std::uint8_t>((btb_hit ? kBtbHit : 0) |
                                     (mispredict ? kMispredict : 0) |
                                     (predecode_wait ? kPredecodeWait : 0));
}

PredictionStream::PredictionStream(const PredictorConfig &config,
                                   std::uint64_t max_blocks)
    : config_(config),
      predictor_(config),
      // Default-initialised: only the pages the producer writes are
      // ever touched.
      outcomes_(new std::uint8_t[max_blocks]),
      capacity_(max_blocks)
{
}

void
PredictionStream::append(const trace::TraceRecord *records,
                         std::size_t n) noexcept
{
    // FrontEnd::buildBlock's cut: a block ends at a control
    // instruction or at maxBlockInstrs records.
    for (std::size_t i = 0; i < n && blocks_ < capacity_; ++i) {
        const trace::TraceRecord &rec = records[i];
        if (blockInstrs_++ == 0)
            blockStart_ = rec.pc;
        if (!trace::isControl(rec.cls) &&
            blockInstrs_ < config_.maxBlockInstrs)
            continue;
        outcomes_[blocks_++] =
            predictor_.predict(blockStart_, rec, blockInstrs_);
        blockInstrs_ = 0;
    }
    published_.store(blocks_ << 1, std::memory_order_release);
    published_.notify_all();
}

void
PredictionStream::finish() noexcept
{
    published_.store((blocks_ << 1) | 1, std::memory_order_release);
    published_.notify_all();
}

std::uint64_t
PredictionStream::await(std::uint64_t block) const
{
    std::uint64_t state = published_.load(std::memory_order_acquire);
    while ((state >> 1) <= block && !(state & 1)) {
        published_.wait(state, std::memory_order_acquire);
        state = published_.load(std::memory_order_acquire);
    }
    return state >> 1;
}

FrontEnd::FrontEnd(const Config &config, trace::TraceSource &source,
                   cache::Hierarchy &hierarchy,
                   const PredictionStream *predictions)
    : config_(config),
      source_(source),
      hierarchy_(hierarchy),
      stream_(predictions),
      ftq_(config.ftqEntries)
{
    if (!stream_)
        bpu_.emplace(config);
    else if (!(stream_->config() == config))
        throw std::invalid_argument(
            "FrontEnd: the prediction stream's predictor config differs "
            "from the machine's");
}

void
FrontEnd::buildBlock(FtqEntry &entry)
{
    entry.instrs.clear();
    entry.lines.clear();
    entry.consumed = 0;
    entry.lineIndex = 0;
    entry.linesRequested = false;
    std::uint64_t last_line = ~std::uint64_t{0};
    while (true) {
        core::DynInst &inst = entry.instrs.emplace_back();
        inst.rec = nextRecord();
        inst.seq = ++seq_;

        const std::uint64_t line = inst.rec.pc >> kLineShift;
        if (line != last_line) {
            entry.lines.push_back(FtqEntry::LineState{line, 0, false});
            last_line = line;
        }
        if (trace::isControl(inst.rec.cls) ||
            entry.instrs.size() >= config_.maxBlockInstrs)
            break;
    }
}

bool
FrontEnd::awaitStream()
{
    streamReady_ = stream_->published();
    if (streamBlock_ < streamReady_)
        return true;
    const auto start = std::chrono::steady_clock::now();
    streamReady_ = stream_->await(streamBlock_);
    predictionWaitSeconds_ += std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    return streamBlock_ < streamReady_;
}

void
FrontEnd::predictPastStream()
{
    bpu_.emplace(stream_->finalState());
    stream_ = nullptr;
}

void
FrontEnd::applyOutcome(FtqEntry &entry, std::uint8_t outcome,
                       std::uint64_t now)
{
    core::DynInst &term = entry.instrs.back();
    const trace::TraceRecord &rec = term.rec;
    if (!trace::isControl(rec.cls))
        return;  // Oversized straight-line block; nothing predicted.

    if (!(outcome & kBtbHit))
        ++stats_.btbMisses;
    const bool mispredict = (outcome & kMispredict) != 0;
    switch (rec.cls) {
      case trace::InstClass::CondBranch:
        ++stats_.condBranches;
        stats_.condMispredicts += mispredict;
        break;
      case trace::InstClass::IndirectJump:
      case trace::InstClass::IndirectCall:
        ++stats_.indirectBranches;
        stats_.indirectMispredicts += mispredict;
        break;
      case trace::InstClass::Return:
        ++stats_.returns;
        stats_.returnMispredicts += mispredict;
        break;
      default:
        break;
    }

    if (mispredict) {
        term.mispredicted = true;
        haltedOnSeq_ = term.seq;
    }

    if (outcome & kPredecodeWait) {
        // Enqueuing stalls on BTB misses (§5.2): the next block's
        // prediction cannot start until this block's bytes reach the
        // pre-decoder, i.e. until its lines arrive. This serializes
        // cold-path fetch at roughly one miss latency per block and
        // is exactly where an L2 hit on a protected line (14 cycles)
        // beats an L3/DRAM trip (46/246 cycles). Meanwhile the two
        // fall-through lines are prefetched (paper §5.2), which lets
        // straight-line cold code pipeline its stalls.
        if (rec.taken)
            ++stats_.btbMissResteers;
        const cache::RequestKind kind =
            config_.fdip ? cache::RequestKind::Fdip
                         : cache::RequestKind::Demand;
        requestLines(entry, now, kind);
        std::uint64_t bytes_ready = now;
        for (const auto &line : entry.lines)
            bytes_ready = std::max(bytes_ready, line.readyCycle);
        bpuStallUntil_ = std::max(
            bpuStallUntil_, bytes_ready + config_.predecodeDelay);
        bpuWaitLine_ = entry.lines.back().lineAddr;

        const std::uint64_t last_line = entry.lines.back().lineAddr;
        hierarchy_.requestInstruction(last_line + 1, now, kind);
        hierarchy_.requestInstruction(last_line + 2, now, kind);
    }
}

void
FrontEnd::predict(std::uint64_t now)
{
    if (haltedOnSeq_ || now < bpuStallUntil_)
        return;
    if (ftqSize_ >= config_.ftqEntries ||
        ftqInstrCount_ >= config_.ftqInstrs)
        return;

    FtqEntry &entry = ftqAt(ftqSize_);
    buildBlock(entry);
    lastOutcome_ = outcomeOf(entry);
    applyOutcome(entry, lastOutcome_, now);
    ftqInstrCount_ += static_cast<unsigned>(entry.instrs.size());
    ++stats_.blocksFormed;
    ++ftqSize_;
}

void
FrontEnd::requestLines(FtqEntry &entry, std::uint64_t now,
                       cache::RequestKind kind)
{
    for (auto &line : entry.lines) {
        if (line.requested)
            continue;
        line.readyCycle =
            hierarchy_.requestInstruction(line.lineAddr, now, kind);
        line.requested = true;
        if (kind == cache::RequestKind::Fdip)
            ++stats_.fdipRequests;
    }
    entry.linesRequested = true;
}

void
FrontEnd::prefetch(std::uint64_t now)
{
    if (!config_.fdip)
        return;
    unsigned budget = config_.fdipLinesPerCycle;
    unsigned offset = prefetchCursor_;
    for (; offset < ftqSize_ && budget > 0; ++offset) {
        FtqEntry &entry = ftqAt(offset);
        if (entry.linesRequested)
            continue;
        const unsigned cost =
            static_cast<unsigned>(entry.lines.size());
        requestLines(entry, now, cache::RequestKind::Fdip);
        budget -= std::min(budget, cost);
    }
    prefetchCursor_ = offset;
}

void
FrontEnd::fetch(std::uint64_t now,
                std::deque<core::DynInst> &decode_queue)
{
    unsigned budget = config_.fetchWidth;
    while (budget > 0 && ftqSize_ > 0 &&
           decode_queue.size() < config_.decodeQueueCap) {
        FtqEntry &entry = ftq_[ftqHead_];
        if (!entry.linesRequested) {
            // FDIP disabled (or hasn't reached this entry): issue the
            // demand requests now.
            requestLines(entry, now,
                         config_.fdip ? cache::RequestKind::Fdip
                                      : cache::RequestKind::Demand);
        }

        // A line that recurs in a block gets a second state, but all
        // of a block's lines are requested in one call, so both
        // states carry the same readyCycle.
        if (entry.lines[entry.lineIndex].readyCycle > now)
            break;  // Head line still in flight: fetch stalls.

        decode_queue.push_back(entry.instrs[entry.consumed]);
        ++stats_.fetchedInstrs;
        ++entry.consumed;
        --budget;
        if (entry.consumed == entry.instrs.size()) {
            ftqInstrCount_ -=
                static_cast<unsigned>(entry.instrs.size());
            if (++ftqHead_ == config_.ftqEntries)
                ftqHead_ = 0;
            --ftqSize_;
            if (prefetchCursor_ > 0)
                --prefetchCursor_;
        } else if ((entry.instrs[entry.consumed].rec.pc >> kLineShift) !=
                   entry.lines[entry.lineIndex].lineAddr) {
            ++entry.lineIndex;
        }
    }
}

void
FrontEnd::onBranchResolved(std::uint64_t seq, std::uint64_t cycle)
{
    if (haltedOnSeq_ && *haltedOnSeq_ == seq) {
        haltedOnSeq_.reset();
        bpuStallUntil_ =
            std::max(bpuStallUntil_, cycle + config_.resteerLatency);
    }
}

std::uint64_t
FrontEnd::nextEvent(std::uint64_t now, std::size_t decode_queued) const
{
    // FDIP walks (or at least advances its cursor over) the entries
    // past the cursor.
    if (config_.fdip && prefetchCursor_ < ftqSize_)
        return now;
    std::uint64_t next = ~std::uint64_t{0};
    // The end of a BPU stall frees predict, and it ends the window
    // in which a drained FTQ blames bpuWaitLine_, halted or not.
    if (now < bpuStallUntil_)
        next = bpuStallUntil_;
    else if (!haltedOnSeq_ && ftqSize_ < config_.ftqEntries &&
             ftqInstrCount_ < config_.ftqInstrs)
        return now;
    if (ftqSize_ > 0 && decode_queued < config_.decodeQueueCap) {
        const FtqEntry &head = ftq_[ftqHead_];
        if (!head.linesRequested)
            return now;
        const std::uint64_t arrival = head.lines[head.lineIndex].readyCycle;
        next = std::min(next, std::max(now, arrival));
    }
    return next;
}

std::optional<std::uint64_t>
FrontEnd::pendingFetchLine(std::uint64_t now) const
{
    if (ftqSize_ == 0) {
        // The FTQ drained while the BPU waits for a cold block's
        // bytes: the decode stage is starving on that block's line.
        if (bpuWaitLine_ && now < bpuStallUntil_)
            return bpuWaitLine_;
        return std::nullopt;
    }
    const FtqEntry &entry = ftq_[ftqHead_];
    if (!entry.linesRequested)
        return std::nullopt;
    const FtqEntry::LineState &line = entry.lines[entry.lineIndex];
    if (line.readyCycle > now)
        return line.lineAddr;
    return std::nullopt;
}

} // namespace emissary::frontend
