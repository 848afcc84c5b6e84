/**
 * @file
 * Tests for the EMTC compressed trace container: the pack -> unpack
 * round trip must be record-exact, a simulation fed from the
 * streaming decoder must be bit-identical to one fed from the
 * buffered EMTR path, corruption anywhere must be caught by a CRC,
 * skip/limit windows must wrap exactly like the legacy source, and
 * the block decoder must name every defect of a crafted block the
 * same way wherever in the block it sits.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/experiment.hh"
#include "trace/executor.hh"
#include "trace/file.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "util/crc32.hh"
#include "workload/emtc.hh"

namespace emissary
{
namespace
{

std::string
tempPath(const char *tag, const char *ext)
{
    return std::string(::testing::TempDir()) + "/emissary_" + tag +
           ext;
}

trace::WorkloadProfile
tinyProfile()
{
    trace::WorkloadProfile p;
    p.name = "emtc-test";
    p.codeFootprintBytes = 64 * 1024;
    p.transactionTypes = 4;
    p.functionsPerTransaction = 4;
    p.dataFootprintBytes = 1 << 20;
    p.hotDataBytes = 64 * 1024;
    p.seed = 27182;
    return p;
}

/** Generate @p records of the tiny profile's stream. */
std::vector<trace::TraceRecord>
generate(std::uint64_t records)
{
    const trace::SyntheticProgram program(tinyProfile());
    trace::SyntheticExecutor executor(program);
    std::vector<trace::TraceRecord> out(records);
    executor.fill(out.data(), out.size());
    return out;
}

std::string
packRecords(const std::vector<trace::TraceRecord> &records,
            const char *tag,
            std::uint32_t records_per_block =
                workload::kDefaultRecordsPerBlock)
{
    const std::string path = tempPath(tag, ".emtc");
    workload::PackedTraceWriter writer(path, "emtc-test",
                                       records_per_block);
    writer.append(records.data(), records.size());
    writer.finish();
    return path;
}

std::string
readFileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string bytes;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.append(buf, n);
    std::fclose(f);
    return bytes;
}

void
expectRecordsEqual(const trace::TraceRecord &a,
                   const trace::TraceRecord &b, std::uint64_t i)
{
    ASSERT_EQ(a.pc, b.pc) << "record " << i;
    ASSERT_EQ(a.nextPc, b.nextPc) << "record " << i;
    ASSERT_EQ(a.memAddr, b.memAddr) << "record " << i;
    ASSERT_EQ(a.cls, b.cls) << "record " << i;
    ASSERT_EQ(a.taken, b.taken) << "record " << i;
}

TEST(Emtc, RoundTripIsRecordExact)
{
    const auto records = generate(20'000);
    // A small block size forces many blocks and exercises the
    // per-block delta reset.
    const std::string path = packRecords(records, "roundtrip", 512);

    workload::PackedTraceSource source(path);
    EXPECT_EQ(source.recordCount(), records.size());
    EXPECT_STREQ(source.name(), "emtc:emtc-test");
    EXPECT_EQ(source.info().blockCount,
              (records.size() + 511) / 512);

    // Mixed next() and odd-sized fill() batches so block-boundary
    // bookkeeping is exercised from both entry points.
    std::uint64_t consumed = 0;
    std::vector<trace::TraceRecord> got(700);
    while (consumed + 701 <= records.size()) {
        source.fill(got.data(), 700);
        for (std::size_t i = 0; i < 700; ++i)
            expectRecordsEqual(got[i], records[consumed + i],
                               consumed + i);
        consumed += 700;
        expectRecordsEqual(source.next(), records[consumed],
                           consumed);
        ++consumed;
    }
    while (consumed < records.size()) {
        expectRecordsEqual(source.next(), records[consumed],
                           consumed);
        ++consumed;
    }
    // The stream wraps to stay infinite (wrap counted eagerly when
    // the last window record is served, exactly like
    // FileTraceSource).
    EXPECT_EQ(source.wraps(), 1u);
    expectRecordsEqual(source.next(), records.front(),
                       records.size());
    EXPECT_EQ(source.wraps(), 1u);
    std::remove(path.c_str());
}

TEST(Emtc, InfoReportsTheContainer)
{
    const auto records = generate(10'000);
    const std::string path = packRecords(records, "info");

    const workload::TraceInfo info = workload::readTraceInfo(path);
    EXPECT_EQ(info.version, 1u);
    EXPECT_EQ(info.recordCount, records.size());
    EXPECT_EQ(info.name, "emtc-test");
    EXPECT_EQ(info.blockCount,
              (records.size() + workload::kDefaultRecordsPerBlock -
               1) /
                  workload::kDefaultRecordsPerBlock);
    EXPECT_GT(info.uniqueCodeLines, 0u);
    EXPECT_GT(info.fileBytes, 0u);

    // The headline claim: the delta-encoded container is much
    // smaller than raw EMTR — at least the 2x the roadmap demands
    // (measured ~10x on the synthetic suite).
    EXPECT_GT(info.compressionRatio(), 2.0);
    std::remove(path.c_str());
}

TEST(Emtc, FootprintCensusMatchesTheGenerator)
{
    const trace::SyntheticProgram program(tinyProfile());
    trace::SyntheticExecutor executor(program);
    std::vector<trace::TraceRecord> records(10'000);
    executor.fill(records.data(), records.size());

    const std::string path = packRecords(records, "footprint");
    EXPECT_EQ(workload::readTraceInfo(path).uniqueCodeLines,
              executor.uniqueCodeLines());
    std::remove(path.c_str());
}

TEST(Emtc, StreamingRunMatchesBufferedEmtrRun)
{
    // Same stream, both on-disk formats.
    const auto records = generate(120'000);
    const std::string emtc_path = packRecords(records, "runpolicy");
    const std::string emtr_path = tempPath("runpolicy", ".emtr");
    {
        trace::TraceWriter writer(emtr_path);
        writer.append(records.data(), records.size());
        writer.finish();
    }

    core::RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 60'000;
    const auto l2 = replacement::PolicySpec::parse("P(8):S&E");
    const auto l1i = replacement::PolicySpec::parse("TPLRU");

    core::RunTelemetry emtr_instr;
    trace::FileTraceSource emtr_source(emtr_path);
    core::Metrics emtr_metrics =
        core::run(emtr_source, {l2}, 0, l1i, options, nullptr,
                  &emtr_instr)
            .front();

    core::RunTelemetry emtc_instr;
    workload::PackedTraceSource emtc_source(emtc_path);
    core::Metrics emtc_metrics =
        core::run(emtc_source, {l2}, 0, l1i, options, nullptr,
                  &emtc_instr)
            .front();

    // The sources describe themselves differently; everything the
    // simulation computed must not.
    emtc_metrics.benchmark = emtr_metrics.benchmark;
    EXPECT_EQ(emtc_metrics.toJson().dump(),
              emtr_metrics.toJson().dump());

    ASSERT_EQ(emtc_instr.registries.front().names(),
              emtr_instr.registries.front().names());
    for (const std::string &name : emtc_instr.registries.front().names())
        EXPECT_EQ(emtc_instr.registries.front().value(name),
                  emtr_instr.registries.front().value(name))
            << name;

    std::remove(emtc_path.c_str());
    std::remove(emtr_path.c_str());
}

TEST(Emtc, VerifyDetectsASingleFlippedByte)
{
    const auto records = generate(8'000);
    const std::string path = packRecords(records, "corrupt", 1024);
    EXPECT_EQ(workload::verifyPackedTrace(path), records.size());

    // Flip one byte in the middle of the packed payload (past the
    // header + name, well before the index).
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 2'000, SEEK_SET), 0);
    int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, 2'000, SEEK_SET), 0);
    std::fputc(byte ^ 0x01, f);
    std::fclose(f);

    try {
        workload::verifyPackedTrace(path);
        FAIL() << "corruption not detected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("CRC"),
                  std::string::npos)
            << e.what();
    }
    // The streaming reader trips over the same CRC when it reaches
    // the corrupt block.
    workload::PackedTraceSource source(path);
    EXPECT_THROW(
        {
            trace::TraceRecord sink[512];
            for (int i = 0; i < 16; ++i)
                source.fill(sink, 512);
        },
        std::runtime_error);
    std::remove(path.c_str());
}

TEST(Emtc, MetadataDefectsAreNamed)
{
    EXPECT_THROW(workload::readTraceInfo("/nonexistent/x.emtc"),
                 std::runtime_error);

    // Truncating the tail destroys the footer.
    const auto records = generate(2'000);
    const std::string path = packRecords(records, "metadata");
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size - 8), 0);
    EXPECT_THROW(workload::readTraceInfo(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Emtc, SkipAndLimitWindowWraps)
{
    const auto records = generate(6'000);
    const std::string path = packRecords(records, "window", 512);

    workload::PackedTraceSource source(path, 1'000, 2'500);
    EXPECT_EQ(source.recordCount(), 2'500u);
    for (std::uint64_t i = 0; i < 2'500; ++i)
        expectRecordsEqual(source.next(), records[1'000 + i], i);
    EXPECT_EQ(source.wraps(), 1u);
    // Wrap goes back to the window start, not the trace start.
    expectRecordsEqual(source.next(), records[1'000], 2'500);
    EXPECT_EQ(source.wraps(), 1u);

    // skipRecords is modular within the window.
    workload::PackedTraceSource skipped(path, 1'000, 2'500);
    skipped.skipRecords(2'400);
    std::vector<trace::TraceRecord> got(200);
    skipped.fill(got.data(), got.size());
    for (std::size_t i = 0; i < 100; ++i)
        expectRecordsEqual(got[i], records[3'400 + i], i);
    for (std::size_t i = 100; i < 200; ++i)
        expectRecordsEqual(got[i], records[1'000 + i - 100], i);

    // A skip consuming the whole trace is a configuration error.
    EXPECT_THROW(workload::PackedTraceSource(path, 6'000),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(Emtc, CommittedFixtureBytesAreStable)
{
    // tests/data/tiny.emtc is generated by
    // scripts/make_test_fixtures.sh: 2000 records of the xapian
    // stream in 512-record blocks. Both the generator and the
    // encoder are deterministic, so a fresh pack must reproduce the
    // committed container byte-for-byte — a mismatch means the
    // on-disk format drifted without a version bump.
    const std::string committed =
        std::string(EMISSARY_TEST_DATA_DIR) + "/tiny.emtc";
    EXPECT_EQ(workload::verifyPackedTrace(committed), 2'000u);
    EXPECT_EQ(workload::readTraceInfo(committed).name, "xapian");

    const trace::SyntheticProgram program(
        trace::profileByName("xapian"));
    trace::SyntheticExecutor executor(program);
    std::vector<trace::TraceRecord> records(2'000);
    executor.fill(records.data(), records.size());
    const std::string fresh = tempPath("fixture", ".emtc");
    {
        workload::PackedTraceWriter writer(fresh, "xapian", 512);
        writer.append(records.data(), records.size());
        writer.finish();
    }
    EXPECT_EQ(readFileBytes(fresh), readFileBytes(committed));
    std::remove(fresh.c_str());
}

TEST(Emtc, WindowMatchesFileTraceSourceWindow)
{
    const auto records = generate(5'000);
    const std::string emtc_path = packRecords(records, "window-eq");
    const std::string emtr_path = tempPath("window_eq", ".emtr");
    {
        trace::TraceWriter writer(emtr_path);
        writer.append(records.data(), records.size());
        writer.finish();
    }

    workload::PackedTraceSource packed(emtc_path, 700, 3'000);
    trace::FileTraceSource buffered(emtr_path, 700, 3'000);
    ASSERT_EQ(packed.recordCount(), buffered.recordCount());
    for (std::uint64_t i = 0; i < 7'000; ++i)
        expectRecordsEqual(packed.next(), buffered.next(), i);
    EXPECT_EQ(packed.wraps(), buffered.wraps());

    std::remove(emtc_path.c_str());
    std::remove(emtr_path.c_str());
}

/**
 * Write a one-block EMTC container whose block holds @p payload and
 * whose header declares @p records records. The block and index CRCs
 * are recomputed, so only the block decoder can object.
 */
std::string
craftContainer(const std::vector<unsigned char> &payload,
               std::uint32_t records, const char *tag)
{
    const auto put = [](std::string &out, auto value) {
        char bytes[sizeof(value)];
        std::memcpy(bytes, &value, sizeof(value));
        out.append(bytes, sizeof(value));
    };
    std::string file = "EMTC";
    put(file, std::uint32_t{1});
    put(file, std::uint64_t{records});
    put(file, std::uint32_t{records}); // One block holds them all.
    put(file, std::uint32_t{0});       // No name.
    put(file, std::uint64_t{0});       // Unique code lines.
    put(file, std::uint64_t{0});       // Reserved.
    const std::uint64_t block_offset = file.size();
    file.append(payload.begin(), payload.end());

    std::string index;
    put(index, block_offset);
    put(index, static_cast<std::uint32_t>(payload.size()));
    put(index, crc32(payload.data(), payload.size()));
    const std::uint64_t index_offset = file.size();
    file += index;
    put(file, index_offset);
    put(file, std::uint32_t{1});
    put(file, crc32(index.data(), index.size()));
    file += "EMTE";

    const std::string path = tempPath(tag, ".emtc");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr) << path;
    std::fwrite(file.data(), 1, file.size(), f);
    std::fclose(f);
    return path;
}

/**
 * The decoder's error for @p path with its "EMTC: <path>: " prefix
 * cut, or "" when the block decodes. The verifier and the streaming
 * source must agree on it.
 */
std::string
decodeError(const std::string &path)
{
    const std::string prefix = "EMTC: " + path + ": ";
    const auto defect = [&prefix](const std::runtime_error &error) {
        const std::string what = error.what();
        EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
        return what.substr(std::min(prefix.size(), what.size()));
    };
    std::string verified;
    try {
        workload::verifyPackedTrace(path);
    } catch (const std::runtime_error &error) {
        verified = defect(error);
    }
    std::string streamed;
    try {
        workload::PackedTraceSource source(path);
        source.next();
    } catch (const std::runtime_error &error) {
        streamed = defect(error);
    }
    EXPECT_EQ(verified, streamed);
    return verified;
}

/** Record header bytes (docs/workloads.md): class in bits 0-3, bit 5
 *  sequential nextPc, bit 6 pc chained from the last nextPc. */
constexpr unsigned char kPlainRecord = 0x60;       // IntAlu, 1 byte.
constexpr unsigned char kUnchainedRecord = 0x20;   // pc varint next.

TEST(Emtc, BlockDefectsAreNamedWhereverTheyFall)
{
    // Each defect sits once at the head of a block with 40 more bytes
    // after it (the decoder's unchecked path, which runs while a
    // whole 31-byte record fits) and once in the block's last bytes
    // (its checked tail). Both must report the same named error.
    struct Defect
    {
        const char *what;
        std::vector<unsigned char> record;
        std::string error;
    };
    std::vector<unsigned char> over_long = {kUnchainedRecord};
    over_long.insert(over_long.end(), 10, 0xff); // 11th byte needed.
    over_long.push_back(0x01);
    const std::vector<Defect> defects = {
        {"over-long varint", over_long, "block 0: truncated varint"},
        {"class above Return", {0x6b},
         "block 0: invalid instruction class 11"},
        {"class 15", {0x6f}, "block 0: invalid instruction class 15"},
    };
    const std::vector<unsigned char> filler(40, kPlainRecord);
    for (const Defect &defect : defects) {
        std::vector<unsigned char> head = defect.record;
        head.insert(head.end(), filler.begin(), filler.end());
        const std::string head_path = craftContainer(
            head, static_cast<std::uint32_t>(1 + filler.size()),
            "defect_head");
        EXPECT_EQ(decodeError(head_path), defect.error) << defect.what;
        std::remove(head_path.c_str());

        std::vector<unsigned char> tail = filler;
        tail.insert(tail.end(), defect.record.begin(),
                    defect.record.end());
        const std::string tail_path = craftContainer(
            tail, static_cast<std::uint32_t>(filler.size() + 1),
            "defect_tail");
        EXPECT_EQ(decodeError(tail_path), defect.error) << defect.what;
        std::remove(tail_path.c_str());
    }

    // Truncation: a block that ends one record early, both when it is
    // long enough to start unchecked and when it is shorter than one
    // longest record; and a varint cut by the block's end.
    const std::string short_long =
        craftContainer(filler, 41, "truncated_long");
    EXPECT_EQ(decodeError(short_long),
              "block 0: truncated at record 40 of 41");
    std::remove(short_long.c_str());
    const std::string short_short = craftContainer(
        std::vector<unsigned char>(5, kPlainRecord), 6,
        "truncated_short");
    EXPECT_EQ(decodeError(short_short),
              "block 0: truncated at record 5 of 6");
    std::remove(short_short.c_str());
    std::vector<unsigned char> cut = filler;
    cut.insert(cut.end(), {kUnchainedRecord, 0x80, 0x80});
    const std::string cut_path = craftContainer(cut, 41, "cut_varint");
    EXPECT_EQ(decodeError(cut_path), "block 0: truncated varint");
    std::remove(cut_path.c_str());
    // The longest cut record: a Load with two whole 10-byte varints
    // and a third cut after 9 bytes, 30 bytes from the block's end,
    // one byte short of what the unchecked reads need.
    std::vector<unsigned char> longest = filler;
    longest.push_back(0x03); // Load, pc and nextPc both explicit.
    for (int varint = 0; varint < 2; ++varint) {
        longest.insert(longest.end(), 9, 0xff);
        longest.push_back(0x01);
    }
    longest.insert(longest.end(), 9, 0x80);
    ASSERT_EQ(longest.size() - filler.size(), 30u);
    const std::string longest_path =
        craftContainer(longest, 41, "cut_longest");
    EXPECT_EQ(decodeError(longest_path), "block 0: truncated varint");
    std::remove(longest_path.c_str());

    // Trailing bytes after the last record: 40 of them (the unchecked
    // path decodes every record and stops) and 3.
    for (const std::size_t extra : {std::size_t{40}, std::size_t{3}}) {
        std::vector<unsigned char> trailing(10 + extra, kPlainRecord);
        const std::string path =
            craftContainer(trailing, 10, "trailing");
        EXPECT_EQ(decodeError(path),
                  "block 0: " + std::to_string(extra) +
                      " undecoded trailing bytes");
        std::remove(path.c_str());
    }

    // Control: the same filler declared with its true count decodes.
    const std::string clean = craftContainer(filler, 40, "clean");
    EXPECT_EQ(decodeError(clean), "");
    std::remove(clean.c_str());
}

TEST(Emtc, LongestRecordsRoundTripOnBothDecodePaths)
{
    // Deltas of 2^63 and more take 10-byte varints, so these records
    // are 31 bytes each, the longest the format has. 96-record blocks
    // put records at every distance from a block's end, across the
    // unchecked and checked decode paths.
    const std::uint64_t extremes[] = {0, 4, ~0ull, 1ull << 63,
                                      (1ull << 63) - 4, 0x7f, 0x80};
    std::vector<trace::TraceRecord> records;
    for (std::size_t i = 0; i < 1'000; ++i) {
        trace::TraceRecord rec;
        rec.cls = i % 3 == 0   ? trace::InstClass::Load
                  : i % 3 == 1 ? trace::InstClass::Store
                               : trace::InstClass::Return;
        rec.pc = extremes[i % 7];
        rec.nextPc = extremes[(i / 7 + 3) % 7];
        rec.memAddr =
            trace::isMemory(rec.cls) ? extremes[(i / 49 + 5) % 7] : 0;
        rec.taken = i % 2 == 0;
        records.push_back(rec);
    }
    const std::string path = packRecords(records, "longest", 96);
    EXPECT_EQ(workload::verifyPackedTrace(path), records.size());
    workload::PackedTraceSource source(path);
    for (std::uint64_t i = 0; i < records.size(); ++i)
        expectRecordsEqual(source.next(), records[i], i);
    std::remove(path.c_str());
}

} // namespace
} // namespace emissary
