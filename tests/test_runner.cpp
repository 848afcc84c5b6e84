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
 *  - the record tee captures the stream without changing the run;
 *  - runGrid streams EMTC rows (RowSource::Stream) and still gives
 *    what core::run gives over the row's replay buffer, while
 *    synthetic and raw EMTR rows keep their buffer within the replay
 *    budget; the sweep JSON and the "replay_build" slices name each
 *    row's source;
 *  - a row whose build fails fails the grid with the build's own
 *    error, and only after every other row's build and cell is done.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/observability.hh"
#include "core/replay_build.hh"
#include "core/threadpool.hh"
#include "stats/span_recorder.hh"
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
using core::RowSource;
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

/** Write @p records of @p program's stream as a raw EMTR file. */
void
writeProgram(const trace::SyntheticProgram &program,
             const std::string &path, std::uint64_t records)
{
    trace::SyntheticExecutor executor(program);
    trace::TraceWriter writer(path);
    std::vector<trace::TraceRecord> all(records);
    executor.fill(all.data(), all.size());
    writer.append(all.data(), all.size());
    writer.finish();
}

std::string
registryText(const RunTelemetry &report)
{
    return core::registryJson(report.registries.front()).dump(0);
}

std::string
registryText(const stats::Registry &registry)
{
    return core::registryJson(registry).dump(0);
}

/** The "source" of every run manifest of @p grid's sweep JSON. */
std::vector<std::string>
sweepSources(const core::PolicyGrid &grid,
             const core::GridResults &results)
{
    const stats::JsonValue doc = core::sweepJson(grid, results);
    const stats::JsonValue *runs = doc.find("runs");
    std::vector<std::string> sources;
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const stats::JsonValue *source = runs->at(i).find("source");
        sources.push_back(source ? source->asString() : "(none)");
    }
    return sources;
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

TEST(RunnerGrid, EmtcRowsStreamAndMatchTheirReplayBuffer)
{
    // Every EMTC row streams from its container, and each of its
    // cells equals core::run over the row's whole-window replay
    // buffer: one policy and a 4-lane fused row, at T = 1 and T = 4,
    // over the whole container and over a window that wraps it.
    const trace::SyntheticProgram program(
        trace::profileByName("tomcat"));
    const RunOptions base = smallWindow();
    const std::string path = std::string(::testing::TempDir()) +
                             "/emissary_runner_stream.emtc";
    packProgram(program, path, windowRecords(base));
    const std::uint64_t census =
        workload::readTraceInfo(path).uniqueCodeLines;

    const std::vector<core::GridWorkload> rows = {
        core::GridWorkload("tomcat.emtc", path),
        // 30k served records under an 80k-record window, skipping
        // the container's first 1000.
        core::GridWorkload("tomcat.window", path, 1'000, 30'000)};
    const std::vector<std::vector<std::string>> lane_sets = {
        {"P(8):S&E"}, {"TPLRU", "P(8):S&E", "DRRIP", "LRU"}};
    core::ThreadPool pool(3);
    for (const core::GridWorkload &row : rows) {
        for (const std::vector<std::string> &policies : lane_sets) {
            for (const unsigned chunks : {1u, 4u}) {
                SCOPED_TRACE(row.name + " lanes " +
                             std::to_string(policies.size()) + " T " +
                             std::to_string(chunks));
                RunOptions options = base;
                options.timeChunks = chunks;
                options.chunkWarmupRecords = 10'000;
                const core::PolicyGrid grid = core::PolicyGrid::sweep(
                    std::vector<core::GridWorkload>{row}, policies,
                    options);
                core::GridOptions grid_options;
                grid_options.fused = policies.size() > 1;
                grid_options.collectRegistries = true;
                const core::GridResults results =
                    core::runGrid(grid, pool, grid_options);
                EXPECT_EQ(results.sourceAt(0), RowSource::Stream);
                EXPECT_EQ(sweepSources(grid, results),
                          std::vector<std::string>(policies.size(),
                                                   "stream"));

                std::vector<PolicySpec> lanes;
                for (const std::string &policy : policies)
                    lanes.push_back(PolicySpec::parse(policy));
                RunTelemetry report;
                std::vector<Metrics> oracle = core::run(
                    core::RunSource(
                        core::buildTraceReplay(
                            row, windowRecords(options), pool),
                        census),
                    lanes, 0, PolicySpec::parse(options.l1iPolicy),
                    options, &pool, &report);
                ASSERT_EQ(oracle.size(), policies.size());
                for (std::size_t r = 0; r < policies.size(); ++r) {
                    oracle[r].benchmark = row.name;
                    EXPECT_EQ(results.at(0, r).toJson().dump(0),
                              oracle[r].toJson().dump(0))
                        << policies[r];
                    EXPECT_EQ(registryText(results.registryAt(0, r)),
                              registryText(report.registries[r]))
                        << policies[r];
                }
                EXPECT_EQ(results.executionAt(0, 0),
                          chunks > 1 ? CellExecution::TimeParallel
                          : grid_options.fused
                              ? CellExecution::FusedTiming
                              : CellExecution::Sequential);
            }
        }
    }
    std::remove(path.c_str());
}

TEST(RunnerGrid, SourcesAreNamedPerRow)
{
    // One stream three ways: generated, packed as EMTC and written as
    // raw EMTR. Within the budget the synthetic and EMTR rows replay
    // a buffer and the EMTC row streams; without one the synthetic
    // row runs live and the EMTR row reopens its file per pass.
    const trace::SyntheticProgram program(
        trace::profileByName("tomcat"));
    const RunOptions options = smallWindow();
    const std::string emtc = std::string(::testing::TempDir()) +
                             "/emissary_runner_sources.emtc";
    const std::string emtr = std::string(::testing::TempDir()) +
                             "/emissary_runner_sources.emtr";
    packProgram(program, emtc, windowRecords(options));
    writeProgram(program, emtr, windowRecords(options));
    const core::PolicyGrid grid = core::PolicyGrid::sweep(
        std::vector<core::GridWorkload>{
            core::GridWorkload(trace::profileByName("tomcat")),
            core::GridWorkload("tomcat.emtc", emtc),
            core::GridWorkload("tomcat.emtr", emtr)},
        {"TPLRU", "P(8):S&E"}, options);
    core::GridOptions grid_options;
    grid_options.collectRegistries = true;
    core::ThreadPool pool(3);

    stats::SpanRecorder recorder;
    const core::GridResults buffered =
        core::runGrid(grid, pool, grid_options, {}, &recorder);
    EXPECT_EQ(buffered.sourceAt(0), RowSource::Replay);
    EXPECT_EQ(buffered.sourceAt(1), RowSource::Stream);
    EXPECT_EQ(buffered.sourceAt(2), RowSource::Replay);
    EXPECT_EQ(sweepSources(grid, buffered),
              (std::vector<std::string>{"replay", "replay", "stream",
                                        "stream", "replay", "replay"}));
    std::map<std::string, std::string> slices;
    for (const stats::SpanRecorder::Track &track : recorder.tracks())
        for (const stats::SpanRecorder::Span &span : track.spans) {
            if (std::string(span.name) != "replay_build")
                continue;
            std::map<std::string, std::string> args;
            for (const auto &[key, value] : span.args)
                args[key] = value.asString();
            slices[args["workload"]] = args["source"];
        }
    EXPECT_EQ(slices, (std::map<std::string, std::string>{
                          {"tomcat", "replay"},
                          {"tomcat.emtc", "stream"},
                          {"tomcat.emtr", "replay"}}));

    // The EMTR row matches the EMTC row in every counter; only the
    // name and the footprint rule (EMTR carries no census) differ.
    for (std::size_t r = 0; r < grid.runs.size(); ++r) {
        EXPECT_EQ(registryText(buffered.registryAt(2, r)),
                  registryText(buffered.registryAt(1, r)));
        Metrics emtr_cell = buffered.at(2, r);
        emtr_cell.benchmark = buffered.at(1, r).benchmark;
        emtr_cell.codeFootprintLines =
            buffered.at(1, r).codeFootprintLines;
        EXPECT_EQ(emtr_cell.toJson().dump(0),
                  buffered.at(1, r).toJson().dump(0));
    }

    const ScopedEnv no_budget("EMISSARY_REPLAY_BUDGET_MB", "0");
    const core::GridResults unbuffered =
        core::runGrid(grid, pool, grid_options);
    EXPECT_EQ(unbuffered.sourceAt(0), RowSource::Live);
    EXPECT_EQ(unbuffered.sourceAt(1), RowSource::Stream);
    EXPECT_EQ(unbuffered.sourceAt(2), RowSource::Stream);
    for (std::size_t w = 0; w < grid.workloads.size(); ++w)
        for (std::size_t r = 0; r < grid.runs.size(); ++r) {
            EXPECT_EQ(unbuffered.at(w, r).toJson().dump(0),
                      buffered.at(w, r).toJson().dump(0));
            EXPECT_EQ(registryText(unbuffered.registryAt(w, r)),
                      registryText(buffered.registryAt(w, r)));
        }
    std::remove(emtc.c_str());
    std::remove(emtr.c_str());
}

TEST(RunnerGrid, FailedRowBuildThrowsAfterEveryOtherJob)
{
    // Row 0's container is corrupt, so its build throws at once while
    // row 1 still generates and packs 4M records. runGrid must wait
    // for row 1's build before it rethrows (it writes state local to
    // runGrid; the ASan stage catches a write after it returned), and
    // the error is the container's. The failed build stops the grid:
    // at one worker, where jobs start in submission order, row 1's
    // cell starts after the failure and never simulates.
    const std::string corrupt = std::string(::testing::TempDir()) +
                                "/emissary_runner_corrupt.emtc";
    {
        std::ofstream out(corrupt, std::ios::binary);
        out << "this is not an EMTC container";
    }
    RunOptions options;
    options.warmupInstructions = 1'000'000;
    options.measureInstructions = 3'000'000;
    const core::PolicyGrid grid = core::PolicyGrid::sweep(
        std::vector<core::GridWorkload>{
            core::GridWorkload("corrupt.emtc", corrupt),
            core::GridWorkload(trace::profileByName("tomcat"))},
        {"TPLRU"}, options);
    for (const unsigned workers : {1u, 2u}) {
        SCOPED_TRACE(workers);
        core::ThreadPool pool(workers);
        std::size_t tomcat_cells = 0;
        try {
            core::runGrid(grid, pool,
                          [&](std::size_t w, std::size_t) {
                              tomcat_cells += w == 1 ? 1 : 0;
                          });
            ADD_FAILURE() << "a corrupt container must fail the grid";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()).rfind("EMTC: " + corrupt, 0),
                      0u)
                << e.what();
        }
        if (workers == 1) {
            EXPECT_EQ(tomcat_cells, 0u);
        }
    }
    std::remove(corrupt.c_str());
}

} // namespace
} // namespace emissary
