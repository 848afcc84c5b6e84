#include "trace/replay.hh"

#include <cassert>
#include <chrono>
#include <stdexcept>

namespace emissary::trace
{

void
RecordBuffer::appendFrom(TraceSource &source, std::uint64_t records,
                         const ChunkObserver &observer)
{
    constexpr std::size_t kChunk = kPublishRecords;
    TraceRecord chunk[kChunk];
    std::uint64_t remaining = records;
    std::uint64_t packed = 0;
    while (remaining > 0) {
        const std::size_t n = static_cast<std::size_t>(
            remaining < kChunk ? remaining : kChunk);
        source.fill(chunk, n);
        for (std::size_t i = 0; i < n; ++i) {
            const TraceRecord &rec = chunk[i];
            pc_.push_back(rec.pc);
            nextPc_.push_back(rec.nextPc);
            memAddr_.push_back(rec.memAddr);
            assert(static_cast<std::uint8_t>(rec.cls) < 0x80);
            clsTaken_.push_back(
                static_cast<std::uint8_t>(rec.cls) |
                (rec.taken ? std::uint8_t{0x80} : std::uint8_t{0}));
        }
        remaining -= n;
        if (observer)
            observer(chunk, n);
        // Publish the chunk; the last store also publishes the
        // source's final state (a synthetic buffer's tail snapshot).
        packed += n;
        packed_.store(packed, std::memory_order_release);
        packed_.notify_all();
    }
}

RecordBuffer::RecordBuffer(const SyntheticProgram &program,
                           std::uint64_t records, Packing packing)
    : records_(records), name_(program.profile().name)
{
    pc_.reserve(records);
    nextPc_.reserve(records);
    memAddr_.reserve(records);
    clsTaken_.reserve(records);

    const std::uint64_t code_lines =
        (program.staticCodeBytes() + 63) / 64 + 1;
    codeBitmapWords_ = (code_lines + 63) / 64;

    tail_ = std::make_unique<SyntheticExecutor>(program);
    if (packing == Packing::Now)
        pack();
}

void
RecordBuffer::pack(const ChunkObserver &observer) noexcept
{
    assert(tail_ && packed() == 0);
    appendFrom(*tail_, records_, observer);
}

void
RecordBuffer::waitPacked(std::uint64_t records) const
{
    std::uint64_t now = packed();
    while (now < records) {
        packed_.wait(now, std::memory_order_acquire);
        now = packed();
    }
}

RecordBuffer::RecordBuffer(TraceSource &source, std::uint64_t records,
                           TailFactory tail_factory)
    : records_(records),
      name_(source.name()),
      tailFactory_(std::move(tail_factory))
{
    pc_.reserve(records);
    nextPc_.reserve(records);
    memAddr_.reserve(records);
    clsTaken_.reserve(records);
    appendFrom(source, records, {});
}

RecordBuffer::RecordBuffer(std::string name, std::uint64_t records,
                           TailFactory tail_factory)
    : pc_(records, 0),
      nextPc_(records, 0),
      memAddr_(records, 0),
      clsTaken_(records, 0),
      records_(records),
      packed_(records),
      name_(std::move(name)),
      tailFactory_(std::move(tail_factory))
{
}

void
RecordBuffer::writeRange(std::uint64_t start, const TraceRecord *recs,
                         std::size_t n)
{
    if (start + n > records_)
        throw std::out_of_range(
            "RecordBuffer::writeRange: span past the buffer (" +
            name_ + ")");
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = recs[i];
        pc_[start + i] = rec.pc;
        nextPc_[start + i] = rec.nextPc;
        memAddr_[start + i] = rec.memAddr;
        assert(static_cast<std::uint8_t>(rec.cls) < 0x80);
        clsTaken_[start + i] =
            static_cast<std::uint8_t>(rec.cls) |
            (rec.taken ? std::uint8_t{0x80} : std::uint8_t{0});
    }
}

std::unique_ptr<TraceSource>
RecordBuffer::makeTail(std::uint64_t position) const
{
    if (!tailFactory_)
        throw std::logic_error(
            "RecordBuffer: cursor overran a buffer with no tail "
            "continuation (" +
            name_ + ")");
    return tailFactory_(position);
}

ReplayCursor::ReplayCursor(std::shared_ptr<const RecordBuffer> buffer)
    : buffer_(std::move(buffer)),
      touchedBitmap_(buffer_->codeBitmapWords(), 0)
{
}

ReplayCursor::ReplayCursor(std::shared_ptr<const RecordBuffer> buffer,
                           std::uint64_t start_record)
    : buffer_(std::move(buffer)),
      pos_(start_record),
      touchedBitmap_(buffer_->codeBitmapWords(), 0)
{
    if (start_record > buffer_->size())
        throw std::out_of_range(
            "ReplayCursor: start record past the buffer (" +
            buffer_->name() + ")");
}

const char *
ReplayCursor::name() const
{
    return buffer_->name().c_str();
}

void
ReplayCursor::touchCode(std::uint64_t pc)
{
    // Trace-backed buffers keep no bitmap (footprint comes from the
    // container's metadata); arbitrary trace PCs would not fit the
    // synthetic code-segment indexing anyway.
    if (touchedBitmap_.empty())
        return;
    const std::uint64_t line =
        (pc - SyntheticProgram::kCodeBase) / 64;
    const std::uint64_t word = line / 64;
    const std::uint64_t bit = std::uint64_t{1} << (line % 64);
    if (!(touchedBitmap_[word] & bit)) {
        touchedBitmap_[word] |= bit;
        ++touchedLines_;
    }
}

void
ReplayCursor::awaitPacked(std::uint64_t records)
{
    if (buffer_->packed() >= records)
        return;
    const auto start = std::chrono::steady_clock::now();
    buffer_->waitPacked(records);
    waitSeconds_ += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
}

TraceSource &
ReplayCursor::tail()
{
    if (!tailSource_) {
        // The tail continues after the last record, so it needs the
        // whole buffer (a synthetic buffer's snapshot is published
        // with the final count).
        awaitPacked(buffer_->size());
        if (buffer_->synthetic()) {
            // Overran the buffer: continue the stream from the
            // generator snapshot. The snapshot's footprint bitmap
            // already covers every buffered record, so the count
            // hands over exactly.
            auto exec = std::make_unique<SyntheticExecutor>(
                buffer_->tailExecutor());
            tailExecutor_ = exec.get();
            tailSource_ = std::move(exec);
        } else {
            tailSource_ = buffer_->makeTail(buffer_->size());
        }
    }
    return *tailSource_;
}

std::uint64_t
ReplayCursor::uniqueCodeLines() const
{
    return tailExecutor_ ? tailExecutor_->uniqueCodeLines()
                         : touchedLines_;
}

TraceRecord
ReplayCursor::next()
{
    if (pos_ < buffer_->size()) {
        awaitPacked(pos_ + 1);
        const TraceRecord rec = buffer_->record(pos_++);
        touchCode(rec.pc);
        return rec;
    }
    ++pos_;
    return tail().next();
}

void
ReplayCursor::fill(TraceRecord *out, std::size_t n)
{
    std::size_t i = 0;
    const std::uint64_t avail = buffer_->size() - std::min(
        pos_, buffer_->size());
    const std::size_t from_buffer = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, avail));
    if (from_buffer > 0)
        awaitPacked(pos_ + from_buffer);
    for (; i < from_buffer; ++i, ++pos_) {
        out[i] = buffer_->record(pos_);
        touchCode(out[i].pc);
    }
    if (i < n) {
        tail().fill(out + i, n - i);
        pos_ += n - i;
    }
}

} // namespace emissary::trace
