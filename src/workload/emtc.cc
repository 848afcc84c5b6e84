#include "workload/emtc.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/crc32.hh"

namespace emissary::workload
{

namespace
{

constexpr char kMagic[4] = {'E', 'M', 'T', 'C'};
constexpr char kEndMagic[4] = {'E', 'M', 'T', 'E'};
constexpr std::uint32_t kVersion = 1;

// Record header byte: bits 0-3 class, bit 4 taken, bit 5 sequential
// nextPc, bit 6 pc chained from previous nextPc.
constexpr unsigned char kTakenBit = 0x10;
constexpr unsigned char kSeqNextBit = 0x20;
constexpr unsigned char kChainPcBit = 0x40;

constexpr std::uint8_t kMaxClass =
    static_cast<std::uint8_t>(trace::InstClass::Return);

[[noreturn]] void
fail(const std::string &path, const std::string &defect)
{
    throw std::runtime_error("EMTC: " + path + ": " + defect);
}

std::uint64_t
zigzag(std::uint64_t delta)
{
    const std::int64_t v = static_cast<std::int64_t>(delta);
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (~(z & 1) + 1);
}

void
putVarint(std::vector<unsigned char> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<unsigned char>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<unsigned char>(v));
}

[[noreturn]] void
failVarint(const std::string &path, std::uint32_t block)
{
    fail(path, "block " + std::to_string(block) + ": truncated varint");
}

std::uint64_t
getVarint(const unsigned char *data, std::size_t size,
          std::size_t &pos, const std::string &path,
          std::uint32_t block)
{
    std::uint64_t value = 0;
    unsigned shift = 0;
    while (true) {
        if (pos >= size || shift >= 64)
            failVarint(path, block);
        const unsigned char byte = data[pos++];
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return value;
        shift += 7;
    }
}

/** Longest varint getVarint accepts: 10 bytes carry 64 bits. */
constexpr std::size_t kMaxVarintBytes = 10;

/** Longest encoded record: header byte plus three varints. */
constexpr std::size_t kMaxRecordBytes = 1 + 3 * kMaxVarintBytes;

/**
 * getVarint for a caller that guarantees kMaxVarintBytes bytes at
 * @p pos: no per-byte bounds check, the same value, and the same
 * error for a varint longer than 10 bytes.
 */
inline std::uint64_t
getVarintUnchecked(const unsigned char *data, std::size_t &pos,
                   const std::string &path, std::uint32_t block)
{
    std::uint64_t byte = data[pos++];
    if (!(byte & 0x80))
        return byte;
    std::uint64_t value = byte & 0x7f;
    for (unsigned shift = 7; shift < 64; shift += 7) {
        byte = data[pos++];
        value |= (byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return value;
    }
    failVarint(path, block);
}

void
putU32(unsigned char *out, std::uint32_t v)
{
    std::memcpy(out, &v, 4);
}

void
putU64(unsigned char *out, std::uint64_t v)
{
    std::memcpy(out, &v, 8);
}

std::uint32_t
getU32(const unsigned char *in)
{
    std::uint32_t v;
    std::memcpy(&v, in, 4);
    return v;
}

std::uint64_t
getU64(const unsigned char *in)
{
    std::uint64_t v;
    std::memcpy(&v, in, 8);
    return v;
}

struct RawIndexEntry
{
    std::uint64_t offset;
    std::uint32_t packedBytes;
    std::uint32_t crc;
};

/**
 * Decode one record at @p pos; @p read_varint reads the next varint.
 * The class check comes before any varint, as the format requires.
 */
template <typename ReadVarint>
inline trace::TraceRecord
decodeRecord(const unsigned char *data, std::size_t &pos,
             std::uint64_t &prev_pc, std::uint64_t &prev_next,
             std::uint64_t &prev_mem, const std::string &path,
             std::uint32_t block, ReadVarint read_varint)
{
    const unsigned char header = data[pos++];
    const std::uint8_t cls_bits = header & 0x0f;
    if (cls_bits > kMaxClass)
        fail(path, "block " + std::to_string(block) +
                       ": invalid instruction class " +
                       std::to_string(cls_bits));

    trace::TraceRecord rec;
    rec.cls = static_cast<trace::InstClass>(cls_bits);
    rec.taken = (header & kTakenBit) != 0;
    rec.pc = (header & kChainPcBit)
                 ? prev_next
                 : prev_pc + unzigzag(read_varint());
    rec.nextPc = (header & kSeqNextBit)
                     ? rec.pc + trace::kInstBytes
                     : rec.pc + unzigzag(read_varint());
    if (trace::isMemory(rec.cls)) {
        rec.memAddr = prev_mem + unzigzag(read_varint());
        prev_mem = rec.memAddr;
    }
    prev_pc = rec.pc;
    prev_next = rec.nextPc;
    return rec;
}

/**
 * Decode one packed block into @p out (exactly @p n records).
 * prevPc/prevNextPc/prevMem start at zero, mirroring the encoder's
 * per-block reset, so any block decodes without its predecessors.
 *
 * While a whole longest record (kMaxRecordBytes) remains, varints
 * are read without per-byte bounds checks: no record can run past
 * the block there. The block's tail takes the checked path, so both
 * report every defect with the same error.
 */
void
decodeBlock(const unsigned char *data, std::size_t size,
            std::size_t n, trace::TraceRecord *out,
            const std::string &path, std::uint32_t block)
{
    std::size_t pos = 0;
    std::uint64_t prev_pc = 0;
    std::uint64_t prev_next = 0;
    std::uint64_t prev_mem = 0;
    std::size_t i = 0;
    const auto unchecked = [&] {
        return getVarintUnchecked(data, pos, path, block);
    };
    for (; i < n && size - pos >= kMaxRecordBytes; ++i)
        out[i] = decodeRecord(data, pos, prev_pc, prev_next, prev_mem,
                              path, block, unchecked);
    const auto checked = [&] {
        return getVarint(data, size, pos, path, block);
    };
    for (; i < n; ++i) {
        if (pos >= size)
            fail(path, "block " + std::to_string(block) +
                           ": truncated at record " +
                           std::to_string(i) + " of " +
                           std::to_string(n));
        out[i] = decodeRecord(data, pos, prev_pc, prev_next, prev_mem,
                              path, block, checked);
    }
    if (pos != size)
        fail(path, "block " + std::to_string(block) + ": " +
                       std::to_string(size - pos) +
                       " undecoded trailing bytes");
}

/**
 * Read and validate the header, embedded name, tail and block index
 * of an open EMTC file. Shared by the streaming source, the info
 * command and the verifier.
 */
TraceInfo
readMetadata(std::FILE *file, const std::string &path,
             std::vector<RawIndexEntry> &index)
{
    unsigned char header[kEmtcHeaderBytes];
    if (std::fread(header, 1, sizeof(header), file) != sizeof(header))
        fail(path, "truncated header");
    if (std::memcmp(header, kMagic, 4) != 0)
        fail(path, "bad magic (not an EMTC container)");

    TraceInfo info;
    info.path = path;
    info.version = getU32(header + 4);
    if (info.version != kVersion)
        fail(path, "unsupported version " +
                       std::to_string(info.version) + " (expected " +
                       std::to_string(kVersion) + ")");
    info.recordCount = getU64(header + 8);
    info.recordsPerBlock = getU32(header + 16);
    const std::uint32_t name_bytes = getU32(header + 20);
    info.uniqueCodeLines = getU64(header + 24);
    if (info.recordCount == 0)
        fail(path, "empty trace (header declares 0 records)");
    if (info.recordsPerBlock == 0)
        fail(path, "invalid records-per-block 0");

    if (name_bytes > 4096)
        fail(path, "implausible name length " +
                       std::to_string(name_bytes));
    info.name.resize(name_bytes);
    if (name_bytes > 0 &&
        std::fread(info.name.data(), 1, name_bytes, file) !=
            name_bytes)
        fail(path, "truncated workload name");

    std::fseek(file, 0, SEEK_END);
    const long file_end = std::ftell(file);
    if (file_end < 0 ||
        static_cast<std::uint64_t>(file_end) <
            kEmtcHeaderBytes + name_bytes + kEmtcTailBytes)
        fail(path, "file too small for header and tail");
    info.fileBytes = static_cast<std::uint64_t>(file_end);

    unsigned char tail[kEmtcTailBytes];
    std::fseek(file,
               file_end - static_cast<long>(kEmtcTailBytes),
               SEEK_SET);
    if (std::fread(tail, 1, sizeof(tail), file) != sizeof(tail))
        fail(path, "truncated tail");
    if (std::memcmp(tail + 16, kEndMagic, 4) != 0)
        fail(path, "bad end magic (truncated or not an EMTC "
                   "container)");
    const std::uint64_t index_offset = getU64(tail);
    info.blockCount = getU32(tail + 8);
    const std::uint32_t index_crc = getU32(tail + 12);
    info.indexCrc = index_crc;

    const std::uint64_t expected_blocks =
        (info.recordCount + info.recordsPerBlock - 1) /
        info.recordsPerBlock;
    if (info.blockCount != expected_blocks)
        fail(path, "block count mismatch: tail declares " +
                       std::to_string(info.blockCount) +
                       " blocks, record count needs " +
                       std::to_string(expected_blocks));

    const std::uint64_t index_bytes =
        static_cast<std::uint64_t>(info.blockCount) *
        kEmtcIndexEntryBytes;
    if (index_offset + index_bytes + kEmtcTailBytes !=
        info.fileBytes)
        fail(path, "index offset/size inconsistent with file size");

    std::vector<unsigned char> raw(index_bytes);
    std::fseek(file, static_cast<long>(index_offset), SEEK_SET);
    if (!raw.empty() &&
        std::fread(raw.data(), 1, raw.size(), file) != raw.size())
        fail(path, "truncated block index");
    if (crc32(raw.data(), raw.size()) != index_crc)
        fail(path, "block index CRC mismatch");

    index.clear();
    index.reserve(info.blockCount);
    for (std::uint32_t b = 0; b < info.blockCount; ++b) {
        const unsigned char *entry =
            raw.data() + b * kEmtcIndexEntryBytes;
        RawIndexEntry e;
        e.offset = getU64(entry);
        e.packedBytes = getU32(entry + 8);
        e.crc = getU32(entry + 12);
        if (e.offset < kEmtcHeaderBytes + name_bytes ||
            e.offset + e.packedBytes > index_offset)
            fail(path, "block " + std::to_string(b) +
                           ": offset/size outside the payload "
                           "region");
        info.packedPayloadBytes += e.packedBytes;
        index.push_back(e);
    }
    return info;
}

/** Records held by block @p b (the last block may be short). */
std::size_t
blockRecords(const TraceInfo &info, std::uint32_t b)
{
    const std::uint64_t start =
        static_cast<std::uint64_t>(b) * info.recordsPerBlock;
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(info.recordsPerBlock,
                                info.recordCount - start));
}

} // namespace

TraceInfo
readTraceInfo(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        fail(path, "cannot open");
    struct Closer
    {
        std::FILE *f;
        ~Closer() { std::fclose(f); }
    } closer{file};
    std::vector<RawIndexEntry> index;
    return readMetadata(file, path, index);
}

PackedTraceWriter::PackedTraceWriter(const std::string &path,
                                     std::string name,
                                     std::uint32_t records_per_block)
    : path_(path), recordsPerBlock_(records_per_block)
{
    if (recordsPerBlock_ == 0)
        throw std::runtime_error(
            "PackedTraceWriter: records_per_block must be > 0");
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        fail(path_, "cannot open for writing");

    unsigned char header[kEmtcHeaderBytes] = {};
    std::memcpy(header, kMagic, 4);
    putU32(header + 4, kVersion);
    putU64(header + 8, 0);  // Record count, patched by finish().
    putU32(header + 16, recordsPerBlock_);
    putU32(header + 20, static_cast<std::uint32_t>(name.size()));
    putU64(header + 24, 0);  // Unique code lines, patched too.
    if (std::fwrite(header, 1, sizeof(header), file_) !=
            sizeof(header) ||
        (!name.empty() &&
         std::fwrite(name.data(), 1, name.size(), file_) !=
             name.size()))
        fail(path_, "short write");
    block_.reserve(recordsPerBlock_ * 4);
}

PackedTraceWriter::~PackedTraceWriter()
{
    if (!finished_)
        finish();
}

void
PackedTraceWriter::append(const trace::TraceRecord &rec)
{
    unsigned char header =
        static_cast<unsigned char>(rec.cls) & 0x0f;
    if (rec.taken)
        header |= kTakenBit;

    // The committed path chains (pc == previous nextPc) except at
    // block starts, and most instructions fall through — so the
    // common record is this header byte and nothing else.
    const bool chained =
        blockRecords_ > 0 && rec.pc == prevNextPc_;
    const bool seq_next = rec.nextPc == rec.pc + trace::kInstBytes;
    if (chained)
        header |= kChainPcBit;
    if (seq_next)
        header |= kSeqNextBit;
    block_.push_back(header);
    if (!chained)
        putVarint(block_, zigzag(rec.pc - prevPc_));
    if (!seq_next)
        putVarint(block_, zigzag(rec.nextPc - rec.pc));
    if (trace::isMemory(rec.cls)) {
        putVarint(block_, zigzag(rec.memAddr - prevMem_));
        prevMem_ = rec.memAddr;
    }
    prevPc_ = rec.pc;
    prevNextPc_ = rec.nextPc;
    codeLines_.insert(rec.pc >> 6);

    ++count_;
    if (++blockRecords_ == recordsPerBlock_)
        flushBlock();
}

void
PackedTraceWriter::flushBlock()
{
    if (blockRecords_ == 0)
        return;
    const long offset = std::ftell(file_);
    if (offset < 0)
        fail(path_, "ftell failed");
    if (std::fwrite(block_.data(), 1, block_.size(), file_) !=
        block_.size())
        fail(path_, "short write");
    index_.push_back(
        {static_cast<std::uint64_t>(offset),
         static_cast<std::uint32_t>(block_.size()),
         crc32(block_.data(), block_.size())});
    payloadBytes_ += block_.size();
    block_.clear();
    blockRecords_ = 0;
    prevPc_ = 0;
    prevNextPc_ = 0;
    prevMem_ = 0;
}

void
PackedTraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    flushBlock();

    const long index_offset = std::ftell(file_);
    if (index_offset < 0)
        fail(path_, "ftell failed");
    std::vector<unsigned char> raw(index_.size() *
                                   kEmtcIndexEntryBytes);
    for (std::size_t b = 0; b < index_.size(); ++b) {
        unsigned char *entry =
            raw.data() + b * kEmtcIndexEntryBytes;
        putU64(entry, index_[b].offset);
        putU32(entry + 8, index_[b].packedBytes);
        putU32(entry + 12, index_[b].crc);
    }
    unsigned char tail[kEmtcTailBytes];
    putU64(tail, static_cast<std::uint64_t>(index_offset));
    putU32(tail + 8, static_cast<std::uint32_t>(index_.size()));
    putU32(tail + 12, crc32(raw.data(), raw.size()));
    std::memcpy(tail + 16, kEndMagic, 4);
    if ((!raw.empty() &&
         std::fwrite(raw.data(), 1, raw.size(), file_) !=
             raw.size()) ||
        std::fwrite(tail, 1, sizeof(tail), file_) != sizeof(tail))
        fail(path_, "short write");

    std::fseek(file_, 8, SEEK_SET);
    unsigned char patch[8];
    putU64(patch, count_);
    std::fwrite(patch, 1, 8, file_);
    std::fseek(file_, 24, SEEK_SET);
    putU64(patch, codeLines_.size());
    std::fwrite(patch, 1, 8, file_);
    std::fclose(file_);
    file_ = nullptr;
}

PackedTraceSource::PackedTraceSource(const std::string &path,
                                     std::uint64_t skip_records,
                                     std::uint64_t max_records)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        fail(path, "cannot open");
    std::vector<RawIndexEntry> raw_index;
    try {
        info_ = readMetadata(file_, path, raw_index);
    } catch (...) {
        std::fclose(file_);
        file_ = nullptr;
        throw;
    }
    index_.reserve(raw_index.size());
    for (const RawIndexEntry &e : raw_index)
        index_.push_back({e.offset, e.packedBytes, e.crc});

    if (skip_records >= info_.recordCount)
        fail(path, "skip_records " + std::to_string(skip_records) +
                       " consumes the whole trace (" +
                       std::to_string(info_.recordCount) +
                       " records)");
    first_ = skip_records;
    count_ = info_.recordCount - skip_records;
    if (max_records > 0 && max_records < count_)
        count_ = max_records;
    cur_ = first_;
    displayName_ =
        "emtc:" + (info_.name.empty() ? path : info_.name);
    decoded_.reserve(info_.recordsPerBlock);
}

PackedTraceSource::~PackedTraceSource()
{
    if (file_)
        std::fclose(file_);
}

void
PackedTraceSource::loadBlockFor(std::uint64_t rec)
{
    const std::uint32_t block =
        static_cast<std::uint32_t>(rec / info_.recordsPerBlock);
    if (block == loadedBlock_)
        return;
    const IndexEntry &entry = index_[block];
    packed_.resize(entry.packedBytes);
    std::fseek(file_, static_cast<long>(entry.offset), SEEK_SET);
    if (std::fread(packed_.data(), 1, packed_.size(), file_) !=
        packed_.size())
        fail(info_.path, "block " + std::to_string(block) +
                             ": truncated payload");
    if (crc32(packed_.data(), packed_.size()) != entry.crc)
        fail(info_.path, "block " + std::to_string(block) +
                             ": CRC mismatch (corrupt container)");
    const std::size_t n = blockRecords(info_, block);
    decoded_.resize(n);
    decodeBlock(packed_.data(), packed_.size(), n, decoded_.data(),
                info_.path, block);
    loadedBlock_ = block;
}

trace::TraceRecord
PackedTraceSource::next()
{
    loadBlockFor(cur_);
    const std::uint64_t block_start =
        static_cast<std::uint64_t>(loadedBlock_) *
        info_.recordsPerBlock;
    const trace::TraceRecord rec = decoded_[cur_ - block_start];
    if (++cur_ == first_ + count_) {
        cur_ = first_;
        ++wraps_;
    }
    return rec;
}

void
PackedTraceSource::fill(trace::TraceRecord *out, std::size_t n)
{
    std::size_t i = 0;
    while (i < n) {
        loadBlockFor(cur_);
        const std::uint64_t block_start =
            static_cast<std::uint64_t>(loadedBlock_) *
            info_.recordsPerBlock;
        const std::uint64_t window_end = first_ + count_;
        const std::uint64_t avail =
            std::min(block_start + decoded_.size(), window_end) -
            cur_;
        const std::size_t run = static_cast<std::size_t>(
            std::min<std::uint64_t>(n - i, avail));
        std::copy_n(decoded_.begin() +
                        static_cast<std::ptrdiff_t>(cur_ -
                                                    block_start),
                    run, out + i);
        i += run;
        cur_ += run;
        if (cur_ == window_end) {
            cur_ = first_;
            ++wraps_;
        }
    }
}

void
PackedTraceSource::skipRecords(std::uint64_t n)
{
    // Pure cursor arithmetic: skipped blocks are never read, so a
    // deep warmup-skip costs one seek when serving resumes.
    const std::uint64_t from_start = cur_ - first_ + n;
    wraps_ += from_start / count_;
    cur_ = first_ + from_start % count_;
}

std::uint64_t
verifyPackedTrace(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        fail(path, "cannot open");
    struct Closer
    {
        std::FILE *f;
        ~Closer() { std::fclose(f); }
    } closer{file};

    std::vector<RawIndexEntry> index;
    const TraceInfo info = readMetadata(file, path, index);

    std::vector<unsigned char> packed;
    std::vector<trace::TraceRecord> decoded;
    std::uint64_t records = 0;
    for (std::uint32_t b = 0; b < info.blockCount; ++b) {
        packed.resize(index[b].packedBytes);
        std::fseek(file, static_cast<long>(index[b].offset),
                   SEEK_SET);
        if (std::fread(packed.data(), 1, packed.size(), file) !=
            packed.size())
            fail(path, "block " + std::to_string(b) +
                           ": truncated payload");
        if (crc32(packed.data(), packed.size()) != index[b].crc)
            fail(path, "block " + std::to_string(b) +
                           ": CRC mismatch (corrupt container)");
        const std::size_t n = blockRecords(info, b);
        decoded.resize(n);
        decodeBlock(packed.data(), packed.size(), n, decoded.data(),
                    path, b);
        records += n;
    }
    if (records != info.recordCount)
        fail(path, "decoded " + std::to_string(records) +
                       " records but header declares " +
                       std::to_string(info.recordCount));
    return records;
}

} // namespace emissary::workload
