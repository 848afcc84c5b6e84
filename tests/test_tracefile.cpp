/**
 * @file
 * Tests for binary trace recording and replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "trace/executor.hh"
#include "trace/file.hh"
#include "trace/program.hh"

namespace emissary::trace
{
namespace
{

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/emissary_" + tag +
           ".trc";
}

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p;
    p.name = "file-test";
    p.codeFootprintBytes = 64 * 1024;
    p.transactionTypes = 4;
    p.functionsPerTransaction = 4;
    p.dataFootprintBytes = 1 << 20;
    p.hotDataBytes = 64 * 1024;
    p.seed = 31415;
    return p;
}

TEST(TraceFile, RoundTrip)
{
    const std::string path = tempPath("roundtrip");
    const SyntheticProgram program(tinyProfile());
    SyntheticExecutor executor(program);

    std::vector<TraceRecord> expected;
    {
        TraceWriter writer(path);
        for (int i = 0; i < 5000; ++i) {
            const TraceRecord rec = executor.next();
            writer.append(rec);
            expected.push_back(rec);
        }
        writer.finish();
        EXPECT_EQ(writer.recordCount(), 5000u);
    }

    FileTraceSource replay(path);
    EXPECT_EQ(replay.recordCount(), 5000u);
    for (const TraceRecord &want : expected) {
        const TraceRecord got = replay.next();
        ASSERT_EQ(got.pc, want.pc);
        ASSERT_EQ(got.nextPc, want.nextPc);
        ASSERT_EQ(got.memAddr, want.memAddr);
        ASSERT_EQ(static_cast<int>(got.cls),
                  static_cast<int>(want.cls));
        ASSERT_EQ(got.taken, want.taken);
    }
    // The stream wraps to stay infinite.
    EXPECT_EQ(replay.next().pc, expected.front().pc);
    EXPECT_EQ(replay.wraps(), 1u);
    std::remove(path.c_str());
}

TEST(TraceFile, RecordingSourceTees)
{
    const std::string path = tempPath("tee");
    const SyntheticProgram program(tinyProfile());
    SyntheticExecutor executor(program);
    {
        TraceWriter writer(path);
        RecordingSource tee(executor, writer);
        for (int i = 0; i < 1000; ++i)
            tee.next();
        writer.finish();
    }
    FileTraceSource replay(path);
    EXPECT_EQ(replay.recordCount(), 1000u);
    std::remove(path.c_str());
}

TEST(TraceFile, RecordingSourceBulkFillTeesBatches)
{
    const std::string path = tempPath("bulktee");
    const SyntheticProgram program(tinyProfile());

    // Feed through fill() in odd-sized batches; the recorded file
    // must hold exactly the served stream, in order.
    std::vector<TraceRecord> served;
    {
        SyntheticExecutor executor(program);
        TraceWriter writer(path);
        RecordingSource tee(executor, writer);
        TraceRecord chunk[257];
        const std::size_t batches[] = {1, 257, 31, 256, 100};
        for (const std::size_t n : batches) {
            tee.fill(chunk, n);
            served.insert(served.end(), chunk, chunk + n);
        }
        writer.finish();
    }

    FileTraceSource replay(path);
    ASSERT_EQ(replay.recordCount(), served.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
        const TraceRecord got = replay.next();
        ASSERT_EQ(got.pc, served[i].pc) << "record " << i;
        ASSERT_EQ(got.nextPc, served[i].nextPc) << "record " << i;
        ASSERT_EQ(got.memAddr, served[i].memAddr) << "record " << i;
        ASSERT_EQ(got.cls, served[i].cls) << "record " << i;
        ASSERT_EQ(got.taken, served[i].taken) << "record " << i;
    }
    std::remove(path.c_str());
}

TEST(TraceFile, RecordedThenReplayedRunIsBitIdentical)
{
    const std::string path = tempPath("replay_run");
    const SyntheticProgram program(tinyProfile());

    core::RunOptions options;
    options.warmupInstructions = 10'000;
    options.measureInstructions = 40'000;
    const auto l2 = replacement::PolicySpec::parse("P(8):S&E");
    const auto l1i = replacement::PolicySpec::parse("TPLRU");

    // Live run, teeing every served record (the simulator pulls via
    // the batched fill path) to disk.
    core::Metrics live;
    {
        SyntheticExecutor executor(program);
        TraceWriter writer(path);
        RecordingSource tee(executor, writer);
        live = core::run(tee, l2, l1i, options);
        writer.finish();
    }

    // Replaying the recording must reproduce the run bit-exactly.
    FileTraceSource replay(path);
    core::Metrics replayed =
        core::run(replay, l2, l1i, options);
    replayed.benchmark = live.benchmark;
    EXPECT_EQ(replayed.toJson().dump(), live.toJson().dump());
    std::remove(path.c_str());
}

TEST(TraceFile, SkipAndLimitWindow)
{
    const std::string path = tempPath("window");
    const SyntheticProgram program(tinyProfile());
    SyntheticExecutor executor(program);
    std::vector<TraceRecord> records(4'000);
    executor.fill(records.data(), records.size());
    {
        TraceWriter writer(path);
        writer.append(records.data(), records.size());
        writer.finish();
    }

    FileTraceSource window(path, 500, 2'000);
    EXPECT_EQ(window.recordCount(), 2'000u);
    for (std::uint64_t i = 0; i < 2'000; ++i)
        ASSERT_EQ(window.next().pc, records[500 + i].pc)
            << "record " << i;
    // Wrap returns to the window start, not record zero.
    EXPECT_EQ(window.next().pc, records[500].pc);
    EXPECT_EQ(window.wraps(), 1u);

    // skipRecords is modular within the window.
    FileTraceSource skipped(path, 500, 2'000);
    skipped.skipRecords(2'100);
    EXPECT_EQ(skipped.next().pc, records[600].pc);
    EXPECT_EQ(skipped.wraps(), 1u);

    EXPECT_THROW(FileTraceSource(path, 4'000), std::runtime_error);
    std::remove(path.c_str());
}

namespace
{

/** Write a trace file with @p declared in the header but @p actual
 *  records in the body. */
std::string
craftTrace(const char *tag, const char magic[4],
           std::uint32_t version, std::uint64_t declared,
           std::uint64_t actual)
{
    const std::string path = tempPath(tag);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    std::fwrite(magic, 1, 4, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&declared, sizeof(declared), 1, f);
    const unsigned char record[kEmtrRecordBytes] = {};
    for (std::uint64_t i = 0; i < actual; ++i)
        std::fwrite(record, 1, kEmtrRecordBytes, f);
    std::fclose(f);
    return path;
}

void
expectOpenFails(const std::string &path, const char *needle)
{
    try {
        FileTraceSource source(path);
        FAIL() << "accepted " << path;
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path), std::string::npos)
            << "error must name the path: " << what;
        EXPECT_NE(what.find(needle), std::string::npos)
            << "wanted '" << needle << "' in: " << what;
    }
}

} // namespace

TEST(TraceFile, CorruptFixturesAreNamedSpecifically)
{
    // Truncated: the header promises more records than the file
    // holds.
    const std::string truncated =
        craftTrace("truncated", "EMTR", 1, 100, 40);
    expectOpenFails(truncated, "truncated");
    std::remove(truncated.c_str());

    // Bad magic.
    const std::string bad_magic =
        craftTrace("badmagic", "XMTR", 1, 10, 10);
    expectOpenFails(bad_magic, "bad magic");
    std::remove(bad_magic.c_str());

    // Unsupported version.
    const std::string bad_version =
        craftTrace("badversion", "EMTR", 9, 10, 10);
    expectOpenFails(bad_version, "version");
    std::remove(bad_version.c_str());

    // Record-count mismatch: trailing bytes after the declared
    // records.
    const std::string trailing =
        craftTrace("trailing", "EMTR", 1, 10, 12);
    expectOpenFails(trailing, "mismatch");
    std::remove(trailing.c_str());

    // Header itself cut short.
    const std::string short_header = tempPath("shortheader");
    std::FILE *f = std::fopen(short_header.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("EMTR\x01", 1, 5, f);
    std::fclose(f);
    expectOpenFails(short_header, "truncated");
    std::remove(short_header.c_str());

    // Declared-empty trace.
    const std::string empty = craftTrace("empty", "EMTR", 1, 0, 0);
    expectOpenFails(empty, "empty");
    std::remove(empty.c_str());
}

TEST(TraceFile, RejectsGarbage)
{
    const std::string path = tempPath("garbage");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("not a trace", 1, 11, f);
    std::fclose(f);
    EXPECT_THROW(FileTraceSource{path}, std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsMissingFile)
{
    EXPECT_THROW(FileTraceSource{"/nonexistent/emissary.trc"},
                 std::runtime_error);
    EXPECT_THROW(TraceWriter{"/nonexistent/dir/out.trc"},
                 std::runtime_error);
}

} // namespace
} // namespace emissary::trace
