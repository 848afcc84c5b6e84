/**
 * @file
 * Tests for the single runner (core::run) over its four source kinds.
 *
 * Contract under test:
 *  - every RunSource kind serves the identical records, so a live
 *    program and a synthetic buffer give bit-identical Metrics and
 *    registries, and an EMTC container of the same stream, read as a
 *    stream or through a chunk factory at T = 1, gives identical
 *    counters (only the footprint rule differs by kind);
 *  - a chunked window on a source without random access runs one
 *    exact pass and reports one chunk; the grid marks such a cell
 *    sequential while a trace row stays time-parallel;
 *  - the record tee captures the stream without changing the run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/observability.hh"
#include "core/replay_build.hh"
#include "core/threadpool.hh"
#include "trace/executor.hh"
#include "trace/file.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "trace/replay.hh"
#include "workload/emtc.hh"

namespace emissary
{
namespace
{

using core::CellExecution;
using core::Metrics;
using core::RunOptions;
using core::RunTelemetry;
using replacement::PolicySpec;

RunOptions
smallWindow()
{
    RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 60'000;
    return options;
}

std::uint64_t
windowRecords(const RunOptions &options)
{
    return trace::RecordBuffer::recordsForWindow(
        options.warmupInstructions + options.measureInstructions);
}

/** Pack @p records of @p program's stream into an EMTC container. */
void
packProgram(const trace::SyntheticProgram &program,
            const std::string &path, std::uint64_t records)
{
    trace::SyntheticExecutor executor(program);
    workload::PackedTraceWriter writer(path, program.profile().name);
    std::vector<trace::TraceRecord> chunk(4096);
    for (std::uint64_t done = 0; done < records;) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk.size(), records - done));
        executor.fill(chunk.data(), n);
        writer.append(chunk.data(), n);
        done += n;
    }
    writer.finish();
}

std::string
registryText(const RunTelemetry &report)
{
    return core::registryJson(report.registries.front()).dump(0);
}

/** Sets an environment variable for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

TEST(Runner, SourceKindsServeTheSameRun)
{
    const RunOptions options = smallWindow();
    const PolicySpec l2 = PolicySpec::parse("P(8):S&E&R(1/32)");
    const PolicySpec l1i = PolicySpec::parse(options.l1iPolicy);
    const trace::SyntheticProgram program(
        trace::profileByName("tomcat"));

    RunTelemetry live_report;
    const Metrics live =
        core::run(program, {l2}, 0, l1i, options, nullptr, &live_report)
            .front();
    EXPECT_EQ(live_report.chunks, 1u);
    EXPECT_GT(live.codeFootprintLines, 0u);

    // A synthetic buffer: bit-identical, footprint included.
    const auto buffer = std::make_shared<const trace::RecordBuffer>(
        program, windowRecords(options));
    RunTelemetry buffer_report;
    const Metrics buffered = core::run(buffer, {l2}, 0, l1i, options,
                                       nullptr, &buffer_report)
                                 .front();
    EXPECT_EQ(buffered.toJson().dump(0), live.toJson().dump(0));
    EXPECT_EQ(registryText(buffer_report), registryText(live_report));

    // The same stream as an EMTC container: consumed as a stream and
    // opened through a chunk factory at T = 1. Both report the
    // container's census as their footprint.
    const std::string path =
        std::string(::testing::TempDir()) + "/emissary_runner.emtc";
    packProgram(program, path, windowRecords(options));
    const std::uint64_t census =
        workload::readTraceInfo(path).uniqueCodeLines;

    workload::PackedTraceSource stream(path);
    RunTelemetry stream_report;
    const Metrics streamed =
        core::run(core::RunSource(stream, census), {l2}, 0, l1i, options,
                  nullptr, &stream_report)
            .front();
    EXPECT_EQ(streamed.cycles, live.cycles);
    EXPECT_EQ(streamed.codeFootprintLines, census);
    EXPECT_EQ(registryText(stream_report), registryText(live_report));

    const core::GridWorkload row("tomcat.emtc", path);
    const core::RunSource factory(
        core::ChunkSourceFactory([&row](std::uint64_t start_record) {
            return core::openTraceSource(row, start_record);
        }),
        census);
    EXPECT_TRUE(factory.randomAccess());
    core::ThreadPool pool(2);
    RunTelemetry factory_report;
    const Metrics opened = core::run(factory, {l2}, 0, l1i, options,
                                     &pool, &factory_report)
                               .front();
    EXPECT_EQ(factory_report.chunks, 1u);
    EXPECT_EQ(opened.toJson().dump(0), streamed.toJson().dump(0));
    EXPECT_EQ(registryText(factory_report), registryText(live_report));
    std::remove(path.c_str());
}

TEST(Runner, ChunkedWindowWithoutRandomAccessRunsOnePass)
{
    const RunOptions sequential = smallWindow();
    RunOptions chunked = sequential;
    chunked.timeChunks = 4;
    chunked.chunkWarmupRecords = 10'000;
    const PolicySpec l2 = PolicySpec::parse("P(8):S&E");
    const PolicySpec l1i = PolicySpec::parse(sequential.l1iPolicy);
    const trace::SyntheticProgram program(
        trace::profileByName("kafka"));
    core::ThreadPool pool(2);

    RunTelemetry exact_report;
    const Metrics exact = core::run(program, {l2}, 0, l1i, sequential,
                                    &pool, &exact_report)
                              .front();

    // A live program cannot start a chunk mid-stream: one exact
    // pass, and the report says so.
    RunTelemetry report;
    const Metrics fallback =
        core::run(program, {l2}, 0, l1i, chunked, &pool, &report)
            .front();
    EXPECT_FALSE(core::RunSource(program).randomAccess());
    EXPECT_EQ(report.chunks, 1u);
    EXPECT_EQ(fallback.toJson().dump(0), exact.toJson().dump(0));
    EXPECT_EQ(registryText(report), registryText(exact_report));

    // The one-chunk observations stay on: the P(N) range is set.
    EXPECT_TRUE(report.l2SameRunRange.contains(8));

    // The same window over a buffer does chunk.
    const auto buffer = std::make_shared<const trace::RecordBuffer>(
        program, windowRecords(chunked));
    RunTelemetry spliced;
    core::run(buffer, {l2}, 0, l1i, chunked, &pool, &spliced);
    EXPECT_EQ(spliced.chunks, 4u);
    EXPECT_FALSE(spliced.l2SameRunRange.contains(8));
}

TEST(Runner, RecordTeeKeepsTheRunAndCapturesTheStream)
{
    const RunOptions options = smallWindow();
    const PolicySpec l2 = PolicySpec::parse("P(8):S&E");
    const PolicySpec l1i = PolicySpec::parse(options.l1iPolicy);
    const trace::SyntheticProgram program(
        trace::profileByName("verilator"));
    const std::string path =
        std::string(::testing::TempDir()) + "/emissary_runner.emtr";

    const Metrics plain = core::run(program, {l2}, 0, l1i, options)
                              .front();
    RunTelemetry report;
    Metrics recorded;
    {
        trace::TraceWriter writer(path);
        report.recordTo = &writer;
        recorded = core::run(program, {l2}, 0, l1i, options, nullptr,
                             &report)
                       .front();
        writer.finish();
    }
    // The tee is invisible to the run, footprint included.
    EXPECT_EQ(recorded.toJson().dump(0), plain.toJson().dump(0));

    // Replaying the recording reproduces every counter.
    trace::FileTraceSource replay(path);
    RunTelemetry replay_report;
    const Metrics replayed = core::run(replay, {l2}, 0, l1i, options,
                                       nullptr, &replay_report)
                                 .front();
    EXPECT_EQ(replayed.cycles, plain.cycles);
    EXPECT_EQ(registryText(replay_report), registryText(report));
    std::remove(path.c_str());
}

TEST(Runner, EmptyLaneListThrows)
{
    const trace::SyntheticProgram program(
        trace::profileByName("tomcat"));
    EXPECT_THROW(core::run(program, {}, 0, PolicySpec::parse("TPLRU"),
                           smallWindow()),
                 std::invalid_argument);
}

TEST(RunnerGrid, ReplayBudgetZeroChunksOnlyTraceRows)
{
    // Without a replay budget a synthetic row runs live and cannot
    // chunk; a trace row still opens chunks from its file.
    RunOptions options = smallWindow();
    const trace::SyntheticProgram program(
        trace::profileByName("tomcat"));
    const std::string path =
        std::string(::testing::TempDir()) + "/emissary_runner_grid.emtc";
    packProgram(program, path, windowRecords(options));

    options.timeChunks = 2;
    options.chunkWarmupRecords = 10'000;
    const core::PolicyGrid grid = core::PolicyGrid::sweep(
        std::vector<core::GridWorkload>{
            core::GridWorkload(trace::profileByName("tomcat")),
            core::GridWorkload("tomcat.emtc", path)},
        {"TPLRU"}, options);

    core::ThreadPool pool(2);
    const ScopedEnv no_budget("EMISSARY_REPLAY_BUDGET_MB", "0");
    const core::GridResults results = core::runGrid(grid, pool);
    EXPECT_EQ(results.executionAt(0, 0), CellExecution::Sequential);
    EXPECT_EQ(results.executionAt(1, 0), CellExecution::TimeParallel);

    // The fallen-back cell is the exact sequential result.
    RunOptions exact = options;
    exact.timeChunks = 1;
    Metrics oracle = core::runPolicy(program, "TPLRU", exact);
    EXPECT_EQ(results.at(0, 0).toJson().dump(0),
              oracle.toJson().dump(0));
    std::remove(path.c_str());
}

} // namespace
} // namespace emissary
