/**
 * @file
 * Tests for trace recording: workload::RecordingSource tees the
 * stream a run consumes into an EMTC container, and replaying that
 * container reproduces the run bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/replay_build.hh"
#include "trace/executor.hh"
#include "trace/program.hh"
#include "workload/emtc.hh"

namespace emissary::workload
{
namespace
{

using trace::SyntheticExecutor;
using trace::SyntheticProgram;
using trace::TraceRecord;

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/emissary_" + tag +
           ".emtc";
}

trace::WorkloadProfile
tinyProfile()
{
    trace::WorkloadProfile p;
    p.name = "file-test";
    p.codeFootprintBytes = 64 * 1024;
    p.transactionTypes = 4;
    p.functionsPerTransaction = 4;
    p.dataFootprintBytes = 1 << 20;
    p.hotDataBytes = 64 * 1024;
    p.seed = 31415;
    return p;
}

TEST(TraceFile, RecordingSourceTees)
{
    const std::string path = tempPath("tee");
    const SyntheticProgram program(tinyProfile());
    SyntheticExecutor executor(program);
    std::vector<TraceRecord> served;
    {
        PackedTraceWriter writer(path, "tee");
        RecordingSource tee(executor, writer);
        for (int i = 0; i < 1000; ++i)
            served.push_back(tee.next());
        writer.finish();
    }
    PackedTraceSource replay(path);
    EXPECT_EQ(replay.recordCount(), 1000u);
    for (const TraceRecord &want : served) {
        const TraceRecord got = replay.next();
        ASSERT_EQ(got.pc, want.pc);
        ASSERT_EQ(got.nextPc, want.nextPc);
        ASSERT_EQ(got.memAddr, want.memAddr);
        ASSERT_EQ(got.cls, want.cls);
        ASSERT_EQ(got.taken, want.taken);
    }
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
        PackedTraceWriter writer(path, "bulktee");
        RecordingSource tee(executor, writer);
        TraceRecord chunk[257];
        const std::size_t batches[] = {1, 257, 31, 256, 100};
        for (const std::size_t n : batches) {
            tee.fill(chunk, n);
            served.insert(served.end(), chunk, chunk + n);
        }
        writer.finish();
    }

    PackedTraceSource replay(path);
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
    // the batched fill path) to disk, as emissary_sim --record does.
    core::Metrics live;
    {
        PackedTraceWriter writer(path, program.profile().name);
        core::RunTelemetry telemetry;
        telemetry.recordTo = &writer;
        live = core::run(program, l2, l1i, options, nullptr, nullptr,
                         &telemetry);
        writer.finish();
    }

    // Replaying the recording must reproduce the run bit-exactly, up
    // to the name the stream reports and the footprint rule (the
    // container's census covers every recorded record).
    const core::GridWorkload row("replay_run", path);
    core::Metrics replayed = core::run(
        core::ChunkSourceFactory([&row](std::uint64_t start_record) {
            return core::openTraceSource(row, start_record);
        }),
        l2, l1i, options);
    replayed.benchmark = live.benchmark;
    replayed.codeFootprintLines = live.codeFootprintLines;
    EXPECT_EQ(replayed.toJson().dump(), live.toJson().dump());
    std::remove(path.c_str());
}

TEST(TraceFile, RecordingToAMissingDirectoryThrows)
{
    EXPECT_THROW(PackedTraceWriter("/nonexistent/dir/out.emtc", "x"),
                 std::runtime_error);
}

} // namespace
} // namespace emissary::workload
