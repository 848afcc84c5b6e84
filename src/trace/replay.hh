/**
 * @file
 * Trace replay cache: generate a workload's committed-path stream
 * once, then replay it under every policy of a sweep.
 *
 * The paper's methodology replays the *identical* committed-path
 * stream under every L2 policy (§6 — Algorithm 1 changes replacement
 * only), so a (workloads x policies) grid re-executing the synthetic
 * program per cell does O(workloads x policies) redundant work. A
 * RecordBuffer is the packed, immutable image of one workload's
 * stream; ReplayCursor is a cheap, non-virtual decoder over it that
 * any number of policy runs (and worker threads) can replay
 * concurrently through their own cursors.
 *
 * A buffer may also be read while it packs: its record arrays are
 * allocated up front, the packer publishes the packed prefix through
 * one atomic count, and a cursor that would read past that count
 * blocks until the packer gets there. The grid engine uses this to
 * start a row's cells as soon as the row's buffer exists instead of
 * after its whole stream is generated (core::runGrid). The packing
 * loop also hands each chunk to an optional observer before it
 * publishes the chunk: the grid's row builds predict the row's block
 * outcomes there (frontend::PredictionStream), so whatever a cursor
 * can read has already been predicted.
 *
 * Determinism contract: a run fed by a ReplayCursor produces
 * bit-identical Metrics to the same run fed by a live
 * SyntheticExecutor (tests/test_replay.cpp). The buffer therefore
 * also carries what runPolicy reads back from the source after the
 * run — the workload name and enough state to continue the
 * unique-code-line footprint count — and a snapshot of the generating
 * executor at end-of-buffer, so a cursor that (unexpectedly) runs off
 * the end continues the live stream exactly where generation stopped
 * instead of replaying from record zero.
 */

#ifndef EMISSARY_TRACE_REPLAY_HH
#define EMISSARY_TRACE_REPLAY_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/executor.hh"
#include "trace/program.hh"
#include "trace/record.hh"

namespace emissary::trace
{

/**
 * Packed, immutable committed-path stream of one workload.
 *
 * Storage is struct-of-arrays: three 64-bit lanes (pc, nextPc,
 * memAddr) plus one byte packing the instruction class with the
 * branch outcome — 25 bytes per record against the 40 of a padded
 * TraceRecord[] — so sequential decode streams through memory.
 */
class RecordBuffer
{
  public:
    /** Packed bytes per buffered record (capacity planning). */
    static constexpr std::uint64_t kBytesPerRecord = 3 * 8 + 1;

    /**
     * Records the front-end can read past the committed-instruction
     * window: FTQ + decode queue + ROB occupancy, the final commit
     * overshoot, and batched-fill rounding. Generously padded — a
     * cursor overrun is legal but costs a live-execution tail.
     */
    static constexpr std::uint64_t kLookaheadRecords = 32768;

    /** Buffer length needed to replay a warmup+measure window. */
    static std::uint64_t
    recordsForWindow(std::uint64_t window_instructions)
    {
        return window_instructions + kLookaheadRecords;
    }

    /** Whether a synthetic buffer packs in its constructor. */
    enum class Packing
    {
        Now,      ///< The constructor returns a complete buffer.
        Deferred  ///< pack() fills it, while cursors may read it.
    };

    /**
     * Allocate room for the first @p records of @p program's stream
     * (profile-seeded, exactly as runPolicy's live executor) and,
     * unless @p packing is Deferred, generate and pack them. The
     * buffer's storage is allocated here, so everything that may
     * throw happens before a deferred buffer is shared. @p program
     * must outlive a deferred buffer's pack().
     */
    RecordBuffer(const SyntheticProgram &program, std::uint64_t records,
                 Packing packing = Packing::Now);

    /**
     * Sees each chunk of up to kPublishRecords records, in stream
     * order, after the buffer stores the chunk and before it publishes
     * it. Runs on the packing thread and must not throw.
     */
    using ChunkObserver =
        std::function<void(const TraceRecord *records, std::size_t n)>;

    /**
     * Generate and pack a Deferred buffer's records, publishing the
     * packed prefix every kPublishRecords records and the tail
     * executor snapshot together with the final count. Each chunk
     * goes to @p observer (if set) before it is published. Call once,
     * from one thread; cursors on other threads may read the buffer
     * meanwhile. Never waits on anything, so a packer always makes
     * progress. Noexcept because a reader waiting on a record that a
     * failed pack never publishes would wait forever.
     */
    void pack(const ChunkObserver &observer = {}) noexcept;

    /** Records between two publications of the packed count. */
    static constexpr std::uint64_t kPublishRecords = 4096;

    /**
     * Produces a TraceSource continuing the stream from absolute
     * record position @p position (for cursor overrun on buffers not
     * backed by a synthetic executor).
     */
    using TailFactory = std::function<std::unique_ptr<TraceSource>(
        std::uint64_t position)>;

    /**
     * Pack the next @p records pulled from @p source, serially (the
     * source's wrap-around is unrolled into the buffer). No
     * footprint bitmap is kept: trace-backed cells take their
     * Fig. 4 footprint from the container's pack-time metadata, not
     * from the replay (docs/workloads.md).
     *
     * @param tail_factory Optional overrun fallback; a cursor that
     *        runs off the buffer continues from the source this
     *        produces. Without one, overrun throws.
     */
    RecordBuffer(TraceSource &source, std::uint64_t records,
                 TailFactory tail_factory);

    /**
     * Preallocated trace-backed buffer of @p records zeroed slots,
     * to be populated by writeRange — the parallel EMTC decode path
     * (core::buildTraceReplay) fills disjoint spans from
     * several workers at once. It counts as packed from the start,
     * so it must be fully written before any cursor replays it; no
     * footprint bitmap is kept, exactly like the streaming trace
     * constructor.
     */
    RecordBuffer(std::string name, std::uint64_t records,
                 TailFactory tail_factory);

    /**
     * Store @p n records at slots [@p start, @p start + n). Plain
     * array stores into the preallocated lanes: concurrent calls are
     * safe exactly when their ranges are disjoint.
     * @throws std::out_of_range when the span exceeds the buffer.
     */
    void writeRange(std::uint64_t start, const TraceRecord *recs,
                    std::size_t n);

    /** Records the buffer holds once packed. */
    std::uint64_t size() const { return records_; }

    /** Records packed and published so far (acquire): records below
     *  this count may be read. Equals size() once packing is done. */
    std::uint64_t
    packed() const
    {
        return packed_.load(std::memory_order_acquire);
    }

    /** Block until at least @p records (<= size()) are packed. */
    void waitPacked(std::uint64_t records) const;

    /** Packed bytes held (excludes the tail snapshot). */
    std::uint64_t
    packedBytes() const
    {
        return size() * kBytesPerRecord;
    }

    /** Workload name, as the live executor reports it. */
    const std::string &name() const { return name_; }

    /** Decode record @p i, which must be below packed(). Reads go
     *  through data(): the vectors may still be growing, and only
     *  their (fixed) start pointers are safe to read meanwhile. */
    TraceRecord
    record(std::uint64_t i) const
    {
        const std::uint8_t cls_taken = clsTaken_.data()[i];
        TraceRecord rec;
        rec.pc = pc_.data()[i];
        rec.nextPc = nextPc_.data()[i];
        rec.memAddr = memAddr_.data()[i];
        rec.cls = static_cast<InstClass>(cls_taken & 0x7f);
        rec.taken = (cls_taken & 0x80) != 0;
        return rec;
    }

    /** Words of the unique-code-line bitmap a cursor must allocate
     *  (same sizing as SyntheticExecutor's footprint bitmap; 0 for
     *  trace-backed buffers, which keep no bitmap). */
    std::uint64_t codeBitmapWords() const { return codeBitmapWords_; }

    /** True when generated from a SyntheticProgram (the buffer then
     *  carries a tail executor snapshot and a footprint bitmap). */
    bool synthetic() const { return tail_ != nullptr; }

    /** Generator snapshot at end-of-buffer; cursors that exhaust a
     *  synthetic buffer copy it and continue the stream live. Valid
     *  once packed() == size(). */
    const SyntheticExecutor &tailExecutor() const { return *tail_; }

    /** Overrun continuation for a trace-backed buffer.
     *  @throws std::logic_error when no tail factory was given. */
    std::unique_ptr<TraceSource>
    makeTail(std::uint64_t position) const;

  private:
    void appendFrom(TraceSource &source, std::uint64_t records,
                    const ChunkObserver &observer);

    /** Reserved for size() records up front and appended in place,
     *  so their start pointers never move while cursors read. */
    std::vector<std::uint64_t> pc_;
    std::vector<std::uint64_t> nextPc_;
    std::vector<std::uint64_t> memAddr_;
    /** Bits 0..6: InstClass; bit 7: branch taken. */
    std::vector<std::uint8_t> clsTaken_;
    std::uint64_t records_ = 0;
    /** The published prefix (release stores, acquire loads). */
    std::atomic<std::uint64_t> packed_{0};
    std::string name_;
    std::uint64_t codeBitmapWords_ = 0;
    /** A synthetic buffer's generator: it packs the records, and its
     *  state after the last one is the tail snapshot. */
    std::unique_ptr<SyntheticExecutor> tail_;
    TailFactory tailFactory_;
};

/**
 * TraceSource replaying a RecordBuffer.
 *
 * The class is final and its fill() is a straight SoA decode loop, so
 * per-instruction cost is a few loads and stores — no program walk,
 * no RNG draws, no virtual dispatch inside the batch. Each cursor is
 * independent; share one buffer across any number of threads. A
 * cursor on a buffer that is still packing reads the published count
 * once per fill() and blocks only when the batch would read past it.
 */
class ReplayCursor final : public TraceSource
{
  public:
    explicit ReplayCursor(std::shared_ptr<const RecordBuffer> buffer);

    /**
     * Chunk-addressed cursor: start replaying at absolute record
     * @p start_record instead of 0 — a time-parallel chunk's warming
     * prefix or measure slice begins mid-stream. Footprint counting
     * covers only records the cursor actually serves; the chunk
     * splicer ORs the per-chunk touchedBitmap()s to recover the
     * whole-window census.
     */
    ReplayCursor(std::shared_ptr<const RecordBuffer> buffer,
                 std::uint64_t start_record);

    TraceRecord next() override;
    void fill(TraceRecord *out, std::size_t n) override;
    const char *name() const override;

    /** Records handed out so far. */
    std::uint64_t position() const { return pos_; }

    /** Unique 64 B instruction lines touched so far — matches the
     *  live executor's count at the same position exactly. Always 0
     *  for trace-backed buffers (no bitmap; see RecordBuffer). */
    std::uint64_t uniqueCodeLines() const;

    /** True once the cursor ran past the buffer and switched to the
     *  tail continuation (diagnostic; should not happen when the
     *  buffer was sized with recordsForWindow). */
    bool overran() const { return tailSource_ != nullptr; }

    /** The unique-code-line bitmap behind uniqueCodeLines() (empty
     *  for trace-backed buffers). Word i bit b covers code line
     *  i*64+b; the time-parallel splice ORs chunk bitmaps. */
    const std::vector<std::uint64_t> &
    touchedBitmap() const
    {
        return touchedBitmap_;
    }

    /** Seconds spent blocked on records the buffer had not packed
     *  yet (0 for a buffer packed before the cursor reached it). */
    double waitSeconds() const { return waitSeconds_; }

  private:
    void touchCode(std::uint64_t pc);
    /** Block, timed, until the buffer has packed @p records. */
    void awaitPacked(std::uint64_t records);
    TraceSource &tail();

    std::shared_ptr<const RecordBuffer> buffer_;
    std::uint64_t pos_ = 0;
    std::vector<std::uint64_t> touchedBitmap_;
    std::uint64_t touchedLines_ = 0;
    double waitSeconds_ = 0.0;
    std::unique_ptr<TraceSource> tailSource_;
    /** Non-null when the tail is a copied executor snapshot (the
     *  footprint count then hands over to the snapshot's bitmap). */
    const SyntheticExecutor *tailExecutor_ = nullptr;
};

} // namespace emissary::trace

#endif // EMISSARY_TRACE_REPLAY_HH
