/**
 * @file
 * Tests for the EMTC compressed trace container: the pack -> unpack
 * round trip must be record-exact, a simulation fed from the
 * streaming decoder must be bit-identical to one fed from the
 * buffered EMTR path, corruption anywhere must be caught by a CRC,
 * and skip/limit windows must wrap exactly like the legacy source.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/experiment.hh"
#include "trace/executor.hh"
#include "trace/file.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
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

} // namespace
} // namespace emissary
