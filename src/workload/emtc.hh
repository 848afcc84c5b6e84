/**
 * @file
 * EMTC: the compressed, block-indexed trace container, and the one
 * on-disk trace format: emissary_sim --record writes it
 * (RecordingSource), and every trace path a run, a catalog or a
 * service request names opens as one.
 *
 * EMTC stores the committed-path stream delta-encoded in
 * self-contained blocks — a sequential instruction costs one byte,
 * against 26 bytes for the record's fields unpacked —
 * behind a fixed-size block index, so a reader streams with bounded
 * memory (one packed + one decoded block in flight) and seeks to any
 * record through the index. Every block and the index itself carry a
 * CRC-32, so corruption is detected at read time rather than as
 * silent metric drift.
 *
 * On-disk layout (all integers little-endian; byte-level spec in
 * docs/workloads.md):
 *
 *   header   "EMTC" u32 version=1; u64 recordCount;
 *            u32 recordsPerBlock; u32 nameBytes;
 *            u64 uniqueCodeLines; u64 reserved=0   (40 bytes)
 *   name     nameBytes bytes of workload display name
 *   blocks   back-to-back packed blocks
 *   index    per block: u64 offset; u32 packedBytes; u32 crc32
 *   tail     u64 indexOffset; u32 blockCount; u32 indexCrc;
 *            "EMTE"                                 (20 bytes)
 *
 * Block encoding, per record (prevPc/prevMem reset to 0 at each
 * block start so blocks decode independently):
 *
 *   header byte   bits 0-3 InstClass; bit 4 taken;
 *                 bit 5 nextPc == pc + 4 (no nextPc bytes);
 *                 bit 6 pc == previous record's nextPc (no pc bytes)
 *   [pc]          zigzag varint of pc - prevPc, when bit 6 clear
 *   [nextPc]      zigzag varint of nextPc - pc, when bit 5 clear
 *   [memAddr]     zigzag varint of memAddr - prevMem, for Load/Store
 */

#ifndef EMISSARY_WORKLOAD_EMTC_HH
#define EMISSARY_WORKLOAD_EMTC_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "trace/record.hh"

namespace emissary::workload
{

/** Records per block unless the writer is told otherwise. */
constexpr std::uint32_t kDefaultRecordsPerBlock = 4096;

/** Bytes of the fixed EMTC header (before the name). */
constexpr std::size_t kEmtcHeaderBytes = 40;

/** Bytes of one block-index entry. */
constexpr std::size_t kEmtcIndexEntryBytes = 16;

/** Bytes of the fixed footer tail at end-of-file. */
constexpr std::size_t kEmtcTailBytes = 20;

/** Container metadata, readable without decoding any block. */
struct TraceInfo
{
    std::string path;
    std::string name;             ///< Embedded workload display name.
    std::uint32_t version = 0;
    std::uint64_t recordCount = 0;
    std::uint32_t recordsPerBlock = 0;
    std::uint32_t blockCount = 0;
    /** Unique 64 B instruction lines across the whole trace,
     *  computed at pack time (Fig. 4 footprint). */
    std::uint64_t uniqueCodeLines = 0;
    /** Total container size on disk, header to tail. */
    std::uint64_t fileBytes = 0;
    /** Sum of packed block payload bytes. */
    std::uint64_t packedPayloadBytes = 0;
    /**
     * CRC-32 of the block index. The index stores every block's own
     * CRC-32, so this single value is a digest of the container's
     * full payload — the sweep-result cache uses it as the trace's
     * content identity (core::cellCacheCanonical).
     */
    std::uint32_t indexCrc = 0;

    /** Bytes the same stream costs unpacked: 26 per record (pc,
     *  nextPc, memAddr, class, taken) behind a 16-byte header. */
    std::uint64_t
    unpackedBytes() const
    {
        return 16 + recordCount * 26;
    }

    /** Size reduction vs. unpackedBytes (>1 means EMTC is smaller). */
    double
    compressionRatio() const
    {
        return fileBytes > 0 ? static_cast<double>(unpackedBytes()) /
                                   static_cast<double>(fileBytes)
                             : 0.0;
    }
};

/**
 * Read an EMTC file's header, name and index tail.
 * @throws std::runtime_error naming the path and defect on any
 *         malformed or corrupt metadata.
 */
TraceInfo readTraceInfo(const std::string &path);

/** Streaming EMTC writer: records in, packed CRC'd blocks out. */
class PackedTraceWriter
{
  public:
    /**
     * @param path Output container path.
     * @param name Workload display name embedded in the header.
     * @throws std::runtime_error when the file cannot be opened.
     */
    PackedTraceWriter(const std::string &path, std::string name,
                      std::uint32_t records_per_block =
                          kDefaultRecordsPerBlock);
    ~PackedTraceWriter();

    PackedTraceWriter(const PackedTraceWriter &) = delete;
    PackedTraceWriter &operator=(const PackedTraceWriter &) = delete;

    /** Append one record. */
    void append(const trace::TraceRecord &rec);

    /** Append @p n records. */
    void
    append(const trace::TraceRecord *recs, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            append(recs[i]);
    }

    /** Flush the open block, write index + tail, patch the header,
     *  and close. Called by the destructor if omitted. */
    void finish();

    std::uint64_t recordCount() const { return count_; }

    /** Packed payload bytes written so far (flushed blocks only). */
    std::uint64_t packedPayloadBytes() const { return payloadBytes_; }

  private:
    struct IndexEntry
    {
        std::uint64_t offset;
        std::uint32_t packedBytes;
        std::uint32_t crc;
    };

    void flushBlock();

    std::FILE *file_ = nullptr;
    std::string path_;
    std::uint32_t recordsPerBlock_;
    std::vector<unsigned char> block_;   ///< Encoded open block.
    std::uint32_t blockRecords_ = 0;
    std::uint64_t prevPc_ = 0;
    std::uint64_t prevNextPc_ = 0;
    std::uint64_t prevMem_ = 0;
    std::vector<IndexEntry> index_;
    std::uint64_t count_ = 0;
    std::uint64_t payloadBytes_ = 0;
    std::unordered_set<std::uint64_t> codeLines_;
    bool finished_ = false;
};

/**
 * Decorator that tees a source into a PackedTraceWriter while the
 * pipeline consumes it (core::RunTelemetry::recordTo). Overrides
 * fill() so the batched frontend feed records whole batches through
 * the inner source's bulk path; a recorded-then-replayed run is
 * bit-identical to the live run (tests/test_tracefile.cpp).
 */
class RecordingSource final : public trace::TraceSource
{
  public:
    RecordingSource(trace::TraceSource &inner, PackedTraceWriter &writer)
        : inner_(inner), writer_(writer)
    {
    }

    trace::TraceRecord
    next() override
    {
        const trace::TraceRecord rec = inner_.next();
        writer_.append(rec);
        return rec;
    }

    void
    fill(trace::TraceRecord *out, std::size_t n) override
    {
        inner_.fill(out, n);
        writer_.append(out, n);
    }

    const char *name() const override { return inner_.name(); }

  private:
    trace::TraceSource &inner_;
    PackedTraceWriter &writer_;
};

/**
 * Streaming EMTC reader: an infinite TraceSource over the container
 * (wrapping at the end of the served window), holding one packed and
 * one decoded block in memory regardless of trace size.
 *
 * Each source owns its own file handle and cursor, so grid cells on
 * different worker threads can stream the same container
 * concurrently through their own instances.
 */
class PackedTraceSource final : public trace::TraceSource
{
  public:
    /**
     * @param path Container to stream.
     * @param skip_records Records dropped from the front before the
     *        served window starts (catalog warmup-skip).
     * @param max_records Serve only the first @p max_records of the
     *        remaining stream, wrapping within that window
     *        (0 = all).
     * @throws std::runtime_error naming the path and defect on
     *         malformed metadata, or when skip_records consumes the
     *         whole trace.
     */
    explicit PackedTraceSource(const std::string &path,
                               std::uint64_t skip_records = 0,
                               std::uint64_t max_records = 0);
    ~PackedTraceSource() override;

    PackedTraceSource(const PackedTraceSource &) = delete;
    PackedTraceSource &operator=(const PackedTraceSource &) = delete;

    trace::TraceRecord next() override;
    void fill(trace::TraceRecord *out, std::size_t n) override;
    const char *name() const override { return displayName_.c_str(); }

    const TraceInfo &info() const { return info_; }

    /** Records in the served (post skip/limit) window. */
    std::uint64_t recordCount() const { return count_; }

    /** Times the stream wrapped back to the window start. */
    std::uint64_t wraps() const { return wraps_; }

    /** Advance the cursor @p n records without serving them (block
     *  seek through the index; skipped blocks are never decoded). */
    void skipRecords(std::uint64_t n);

  private:
    struct IndexEntry
    {
        std::uint64_t offset;
        std::uint32_t packedBytes;
        std::uint32_t crc;
    };

    /** Load + CRC-check + decode the block holding record @p rec. */
    void loadBlockFor(std::uint64_t rec);

    std::FILE *file_ = nullptr;
    TraceInfo info_;
    std::string displayName_;
    std::vector<IndexEntry> index_;
    std::uint64_t first_ = 0;   ///< Window start (absolute record).
    std::uint64_t count_ = 0;   ///< Window length in records.
    std::uint64_t cur_ = 0;     ///< Next absolute record to serve.
    std::uint64_t wraps_ = 0;
    std::uint32_t loadedBlock_ = ~0u;
    std::vector<trace::TraceRecord> decoded_;
    std::vector<unsigned char> packed_;
};

/**
 * Decode every block of @p path, checking each block CRC, the index
 * CRC, and the header's record count against what the blocks hold.
 * A single flipped byte anywhere in the payload fails the CRC of its
 * block and is reported with the block number.
 *
 * @return The verified record count.
 * @throws std::runtime_error naming the path and defect.
 */
std::uint64_t verifyPackedTrace(const std::string &path);

} // namespace emissary::workload

#endif // EMISSARY_WORKLOAD_EMTC_HH
