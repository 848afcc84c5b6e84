/**
 * @file
 * Tests for time-parallel chunked replay (core::run with
 * RunOptions::timeChunks > 1) and the parallel EMTC decode
 * (core::buildTraceReplay).
 *
 * Determinism contract under test:
 *  - with timeChunks <= 1 a chunkable source runs the sequential
 *    engine — bit-identical Metrics and counter registry;
 *  - for fixed (timeChunks, chunkWarmupRecords) the spliced result is
 *    bit-identical at any worker count and scheduling order, for the
 *    buffer variant, the chunk-source-factory variant, and the grid
 *    engine;
 *  - the spliced counters track the sequential oracle within loose
 *    structural bounds (the tight, measured bounds live in
 *    bench/bench_mode_validation.cpp and docs/performance.md);
 *  - chunked runs carry their own cache identity: canonicalRunOptions
 *    normalises every sequential spelling to one string, and
 *    cellCacheCanonical embeds a time_slicing clause only for chunked
 *    cells, so a chunked estimate can never serve an exact request;
 *  - buildTraceReplay's parallel span fill produces a buffer
 *    bit-identical to the serial streaming pack.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/replay_build.hh"
#include "core/threadpool.hh"
#include "fused_pass.hh"
#include "stats/span_recorder.hh"
#include "trace/executor.hh"
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

RunOptions
smallWindow()
{
    RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 80'000;
    return options;
}

RunOptions
chunkedWindow(unsigned chunks, std::uint64_t warmup_records = 10'000)
{
    RunOptions options = smallWindow();
    options.timeChunks = chunks;
    options.chunkWarmupRecords = warmup_records;
    return options;
}

void
expectMetricsIdentical(const Metrics &a, const Metrics &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1iMpki, b.l1iMpki);
    EXPECT_EQ(a.l1dMpki, b.l1dMpki);
    EXPECT_EQ(a.l2InstMpki, b.l2InstMpki);
    EXPECT_EQ(a.l2DataMpki, b.l2DataMpki);
    EXPECT_EQ(a.l3Mpki, b.l3Mpki);
    EXPECT_EQ(a.starvationCycles, b.starvationCycles);
    EXPECT_EQ(a.starvationIqEmptyCycles, b.starvationIqEmptyCycles);
    EXPECT_EQ(a.feStallCycles, b.feStallCycles);
    EXPECT_EQ(a.beStallCycles, b.beStallCycles);
    EXPECT_EQ(a.totalStallCycles, b.totalStallCycles);
    EXPECT_EQ(a.decodeRate, b.decodeRate);
    EXPECT_EQ(a.issueRate, b.issueRate);
    EXPECT_EQ(a.condMispredictsPerKi, b.condMispredictsPerKi);
    EXPECT_EQ(a.btbMissesPerKi, b.btbMissesPerKi);
    EXPECT_EQ(a.energy.coreDynamicJ, b.energy.coreDynamicJ);
    EXPECT_EQ(a.energy.cacheDynamicJ, b.energy.cacheDynamicJ);
    EXPECT_EQ(a.energy.dramJ, b.energy.dramJ);
    EXPECT_EQ(a.energy.leakageJ, b.energy.leakageJ);
    EXPECT_EQ(a.priorityDistribution, b.priorityDistribution);
    EXPECT_EQ(a.highPriorityFills, b.highPriorityFills);
    EXPECT_EQ(a.priorityUpgrades, b.priorityUpgrades);
    EXPECT_EQ(a.codeFootprintLines, b.codeFootprintLines);
}

void
expectRegistriesIdentical(const stats::Registry &a,
                          const stats::Registry &b)
{
    ASSERT_EQ(a.names(), b.names());
    for (const std::string &name : a.names())
        EXPECT_EQ(a.value(name), b.value(name)) << name;
}

std::shared_ptr<const trace::RecordBuffer>
packWorkload(const char *name, const RunOptions &options)
{
    const trace::SyntheticProgram program(trace::profileByName(name));
    return std::make_shared<const trace::RecordBuffer>(
        program, trace::RecordBuffer::recordsForWindow(
                     options.warmupInstructions +
                     options.measureInstructions));
}

TEST(TimeParallelRun, SequentialDefaultBitIdentical)
{
    const RunOptions options = smallWindow();
    const auto l1i =
        replacement::PolicySpec::parse(options.l1iPolicy);
    const auto buffer = packWorkload("tomcat", options);
    const auto l2 =
        replacement::PolicySpec::parse("P(8):S&E&R(1/32)");

    const trace::SyntheticProgram program(
        trace::profileByName("tomcat"));
    core::RunTelemetry sequential_report;
    const Metrics sequential =
        core::run(program, l2, l1i, options, nullptr, nullptr,
                  &sequential_report);

    // timeChunks of 0 and 1 both mean "not chunked": a chunkable
    // buffer must run the live program's sequential engine exactly,
    // whatever the pool width.
    core::ThreadPool pool(3);
    for (const unsigned chunks : {0u, 1u}) {
        SCOPED_TRACE("timeChunks=" + std::to_string(chunks));
        RunOptions spelled = options;
        spelled.timeChunks = chunks;
        core::RunTelemetry report;
        const Metrics chunked =
            core::run(buffer, l2, l1i, spelled, nullptr, &pool, &report);
        EXPECT_EQ(report.chunks, 1u);
        expectMetricsIdentical(sequential, chunked);
        expectRegistriesIdentical(sequential_report.registry,
                                  report.registry);
    }
}

TEST(TimeParallelRun, DeterministicAcrossWorkerCounts)
{
    const RunOptions options = chunkedWindow(4);
    const auto l1i =
        replacement::PolicySpec::parse(options.l1iPolicy);

    for (const char *workload : {"tomcat", "kafka"}) {
        SCOPED_TRACE(workload);
        const auto buffer = packWorkload(workload, options);
        for (const char *policy : {"TPLRU", "P(8):S&E&R(1/32)"}) {
            SCOPED_TRACE(policy);
            const auto l2 = replacement::PolicySpec::parse(policy);

            core::ThreadPool one(1);
            core::ThreadPool four(4);
            core::RunTelemetry report1;
            core::RunTelemetry report4;
            const Metrics serial =
                core::run(buffer, l2, l1i, options, nullptr, &one, &report1);
            const Metrics wide =
                core::run(buffer, l2, l1i, options, nullptr, &four, &report4);

            EXPECT_EQ(report1.chunks, 4u);
            expectMetricsIdentical(serial, wide);
            expectRegistriesIdentical(report1.registry,
                                      report4.registry);
        }
    }
}

TEST(TimeParallelRun, ChunkSlicesCountSteppedCycles)
{
    const RunOptions options = chunkedWindow(4);
    const auto l1i =
        replacement::PolicySpec::parse(options.l1iPolicy);
    const auto buffer = packWorkload("verilator", options);
    stats::SpanRecorder spans;
    core::RunTelemetry report;
    report.spans = &spans;
    core::ThreadPool pool(2);
    core::run(buffer, replacement::PolicySpec::parse("TPLRU"), l1i, options,
              nullptr, &pool, &report);

    // Each chunk slice says how many of its cycles were stepped; the
    // rest were idle cycles added in bulk.
    unsigned chunks = 0;
    for (const stats::SpanRecorder::Track &track : spans.tracks()) {
        for (const stats::SpanRecorder::Span &span : track.spans) {
            if (std::string(span.name) != "chunk")
                continue;
            ++chunks;
            ASSERT_GE(span.args.size(), 2u);
            EXPECT_EQ(span.args[0].first, "cycles");
            EXPECT_EQ(span.args[1].first, "stepped_cycles");
            const std::uint64_t cycles = span.args[0].second.asUint();
            const std::uint64_t stepped = span.args[1].second.asUint();
            EXPECT_GT(stepped, 0u);
            EXPECT_LT(stepped, cycles);
        }
    }
    EXPECT_EQ(chunks, 4u);
}

TEST(TimeParallelRun, TracksSequentialOracle)
{
    const RunOptions sequential_options = smallWindow();
    const auto l1i = replacement::PolicySpec::parse(
        sequential_options.l1iPolicy);
    const auto buffer = packWorkload("tomcat", sequential_options);
    const auto l2 =
        replacement::PolicySpec::parse("P(8):S&E&R(1/32)");

    const Metrics oracle =
        core::run(buffer, l2, l1i, sequential_options);
    core::ThreadPool pool(4);

    const auto near = [](double got, double want, double rel,
                         double abs_slack) {
        return std::fabs(got - want) <=
               rel * std::fabs(want) + abs_slack;
    };

    // Full-prefix warming (W >= every slice start): each chunk
    // functionally replays the entire stream before its slice, so
    // machine state at the slice boundary is the sequential state
    // and the splice is near-exact — only the per-chunk commit-batch
    // overshoot at chunk boundaries can move the counters.
    {
        const Metrics chunked =
            core::run(buffer, l2, l1i, chunkedWindow(4, 1'000'000), nullptr,
                      &pool);
        EXPECT_TRUE(near(static_cast<double>(chunked.instructions),
                         static_cast<double>(oracle.instructions),
                         0.001, 64.0))
            << chunked.instructions << " vs " << oracle.instructions;
        EXPECT_TRUE(near(static_cast<double>(chunked.cycles),
                         static_cast<double>(oracle.cycles), 0.01,
                         16.0))
            << chunked.cycles << " vs " << oracle.cycles;
        EXPECT_TRUE(near(chunked.l2InstMpki, oracle.l2InstMpki,
                         0.02, 0.1))
            << chunked.l2InstMpki << " vs " << oracle.l2InstMpki;
        EXPECT_TRUE(near(chunked.l2DataMpki, oracle.l2DataMpki,
                         0.02, 0.1))
            << chunked.l2DataMpki << " vs " << oracle.l2DataMpki;
        // The footprint census is a union over chunk bitmaps
        // covering the same stream; only lookahead overshoot at the
        // window's end can move it, and that by a few lines.
        EXPECT_TRUE(near(
            static_cast<double>(chunked.codeFootprintLines),
            static_cast<double>(oracle.codeFootprintLines), 0.01,
            16.0))
            << chunked.codeFootprintLines << " vs "
            << oracle.codeFootprintLines;
    }

    // Short warming on a deliberately tiny window (20k-instruction
    // slices behind a 20k-record prefix) maximises the boundary
    // error; it must stay bounded, not exact. The production-scale
    // error (mean L2I MPKI error <= 0.2 at 1M warming records) is
    // measured by bench_mode_validation.
    {
        const Metrics chunked =
            core::run(buffer, l2, l1i, chunkedWindow(4, 20'000), nullptr,
                      &pool);
        EXPECT_TRUE(near(static_cast<double>(chunked.cycles),
                         static_cast<double>(oracle.cycles), 0.5,
                         0.0))
            << chunked.cycles << " vs " << oracle.cycles;
        EXPECT_TRUE(near(chunked.l2InstMpki, oracle.l2InstMpki,
                         0.75, 1.0))
            << chunked.l2InstMpki << " vs " << oracle.l2InstMpki;
        EXPECT_TRUE(near(chunked.l2DataMpki, oracle.l2DataMpki,
                         0.75, 1.0))
            << chunked.l2DataMpki << " vs " << oracle.l2DataMpki;
    }
}

TEST(TimeParallelRun, FactoryVariantDeterministicOnEmtc)
{
    // Pack a synthetic stream into a real EMTC container, then chunk
    // it through the chunk-source factory (each chunk seeks its own
    // PackedTraceSource) and through a replay buffer of the same
    // container. All spellings must agree bit-for-bit.
    const RunOptions options = chunkedWindow(4);
    const std::uint64_t records =
        trace::RecordBuffer::recordsForWindow(
            options.warmupInstructions +
            options.measureInstructions);
    const std::string path = std::string(::testing::TempDir()) +
                             "/emissary_timeparallel.emtc";
    {
        const trace::SyntheticProgram program(
            trace::profileByName("tomcat"));
        trace::SyntheticExecutor executor(program);
        workload::PackedTraceWriter writer(path, "tomcat-trace");
        std::vector<trace::TraceRecord> chunk(4096);
        for (std::uint64_t done = 0; done < records;) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(chunk.size(),
                                        records - done));
            executor.fill(chunk.data(), n);
            writer.append(chunk.data(), n);
            done += n;
        }
        writer.finish();
    }

    const core::GridWorkload row("tomcat-trace", path);
    const core::RunSource open_chunk(core::ChunkSourceFactory(
        [&row](std::uint64_t start_record) {
            return core::openTraceSource(row, start_record);
        }));
    const auto l1i =
        replacement::PolicySpec::parse(options.l1iPolicy);
    const auto l2 =
        replacement::PolicySpec::parse("P(8):S&E&R(1/32)");

    core::ThreadPool one(1);
    core::ThreadPool four(4);
    const Metrics factory1 =
        core::run(open_chunk, l2, l1i, options, nullptr, &one);
    const Metrics factory4 =
        core::run(open_chunk, l2, l1i, options, nullptr, &four);
    expectMetricsIdentical(factory1, factory4);

    // A replay buffer of the same container serves the identical
    // records, so the buffer variant must splice the same result.
    const auto buffer = core::buildTraceReplay(row, records, four);
    const Metrics buffered =
        core::run(buffer, l2, l1i, options, nullptr, &four);
    expectMetricsIdentical(factory4, buffered);

    std::remove(path.c_str());
}

TEST(TimeParallelGroup, DeterministicAcrossWorkerCounts)
{
    const RunOptions options = chunkedWindow(3);
    const auto l1i =
        replacement::PolicySpec::parse(options.l1iPolicy);
    const auto buffer = packWorkload("kafka", options);
    const std::vector<replacement::PolicySpec> specs = {
        replacement::PolicySpec::parse("TPLRU"),
        replacement::PolicySpec::parse("P(8):S&E&R(1/32)"),
        replacement::PolicySpec::parse("M:R(1/2)")};

    core::ThreadPool one(1);
    core::ThreadPool four(4);
    std::vector<stats::Registry> registries1;
    std::vector<stats::Registry> registries4;
    const std::vector<Metrics> serial = test::runFusedPass(
        buffer, specs, 0, l1i, options, &one, &registries1);
    const std::vector<Metrics> wide = test::runFusedPass(
        buffer, specs, 0, l1i, options, &four, &registries4);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(wide.size(), specs.size());
    ASSERT_EQ(registries1.size(), specs.size());
    ASSERT_EQ(registries4.size(), specs.size());
    for (std::size_t lane = 0; lane < specs.size(); ++lane) {
        SCOPED_TRACE("lane " + std::to_string(lane));
        expectMetricsIdentical(serial[lane], wide[lane]);
        expectRegistriesIdentical(registries1[lane],
                                  registries4[lane]);
    }

    // A single-lane chunked run is the chunked group's timing lane,
    // and the scheduler slices every random-access kind alike: a
    // factory opening cursors over the same buffer splices the same
    // result. Only the footprint rule differs by kind (a factory
    // reports its census, here 0).
    const Metrics solo =
        core::run(buffer, specs.front(), l1i, options, nullptr, &four);
    const core::RunSource cursors(core::ChunkSourceFactory(
        [&buffer](std::uint64_t start_record) {
            return std::make_unique<trace::ReplayCursor>(buffer,
                                                         start_record);
        }));
    Metrics single =
        core::run(cursors, specs.front(), l1i, options, nullptr, &one);
    expectMetricsIdentical(solo, serial.front());
    EXPECT_EQ(single.codeFootprintLines, 0u);
    single.codeFootprintLines = solo.codeFootprintLines;
    expectMetricsIdentical(solo, single);
}

TEST(TimeParallelGrid, ProvenanceAndWorkerCountInvariance)
{
    const RunOptions options = chunkedWindow(2);
    const core::PolicyGrid grid = core::PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat"),
            trace::profileByName("kafka")},
        {"TPLRU", "P(8):S&E&R(1/32)"}, options);

    core::ThreadPool one(1);
    core::ThreadPool three(3);
    const core::GridResults narrow = core::runGrid(grid, one);
    const core::GridResults wide = core::runGrid(grid, three);

    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        for (std::size_t r = 0; r < grid.runs.size(); ++r) {
            expectMetricsIdentical(narrow.at(w, r), wide.at(w, r));
            EXPECT_EQ(narrow.executionAt(w, r),
                      CellExecution::TimeParallel);
            EXPECT_EQ(wide.executionAt(w, r),
                      CellExecution::TimeParallel);
        }
    }
    // A chunked splice is an approximation, not a fused estimate.
    EXPECT_FALSE(narrow.fused());

    // Provenance reaches the sweep artifact: per-cell execution tags
    // plus the top-level time_parallel clause.
    const stats::JsonValue doc = core::sweepJson(grid, narrow);
    ASSERT_NE(doc.find("time_parallel"), nullptr);
    const stats::JsonValue &tp = *doc.find("time_parallel");
    EXPECT_EQ(tp.find("time_chunks")->asUint(), 2u);
    EXPECT_EQ(tp.find("chunked_columns")->asUint(),
              grid.runs.size());
    ASSERT_GT(doc.find("runs")->size(), 0u);
    EXPECT_EQ(doc.find("runs")->at(0).find("execution")->asString(),
              "time_parallel");
}

TEST(TimeParallelCache, ChunkedRunsCarryTheirOwnIdentity)
{
    // Every sequential spelling shares one canonical string...
    RunOptions sequential = smallWindow();
    const std::string base = core::canonicalRunOptions(sequential);
    RunOptions spelled = sequential;
    spelled.timeChunks = 1;
    spelled.chunkWarmupRecords = 123'456;
    EXPECT_EQ(core::canonicalRunOptions(spelled), base);

    // ...chunked runs do not, and each (T, W) is its own identity.
    const std::string chunked2 =
        core::canonicalRunOptions(chunkedWindow(2));
    const std::string chunked4 =
        core::canonicalRunOptions(chunkedWindow(4));
    const std::string chunked4_long =
        core::canonicalRunOptions(chunkedWindow(4, 50'000));
    EXPECT_NE(chunked2, base);
    EXPECT_NE(chunked2, chunked4);
    EXPECT_NE(chunked4, chunked4_long);

    // The cell key embeds a time_slicing clause only for chunked
    // cells, so a chunked estimate can never serve an exact request.
    const core::GridWorkload workload(
        trace::profileByName("tomcat"));
    const core::RunSpec exact_run("TPLRU", sequential);
    const core::RunSpec chunked_run("TPLRU", chunkedWindow(2));
    const std::string exact_key = core::cellCacheCanonical(
        workload, exact_run, "", 0, "sha");
    const std::string chunked_key = core::cellCacheCanonical(
        workload, chunked_run, "", 0, "sha");
    EXPECT_EQ(exact_key.find("time_slicing"), std::string::npos);
    EXPECT_NE(chunked_key.find("time_slicing"), std::string::npos);
    EXPECT_NE(exact_key, chunked_key);
}

TEST(ParallelDecode, BitIdenticalToSerialStreamingPack)
{
    // Enough records to clear the parallel path's minimum task size
    // (2 * kMinTaskRecords) with several spans.
    const std::uint64_t records = 700'000;
    const std::string path = std::string(::testing::TempDir()) +
                             "/emissary_parallel_decode.emtc";
    {
        const trace::SyntheticProgram program(
            trace::profileByName("kafka"));
        trace::SyntheticExecutor executor(program);
        workload::PackedTraceWriter writer(path, "kafka-trace");
        std::vector<trace::TraceRecord> chunk(4096);
        for (std::uint64_t done = 0; done < records;) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(chunk.size(),
                                        records - done));
            executor.fill(chunk.data(), n);
            writer.append(chunk.data(), n);
            done += n;
        }
        writer.finish();
    }

    const core::GridWorkload row("kafka-trace", path);
    core::ThreadPool one(1);
    core::ThreadPool four(4);
    // workerCount 1 takes the serial streaming constructor; 4 takes
    // the preallocate-and-span-fill path. Same bytes either way.
    const auto serial = core::buildTraceReplay(row, records, one);
    const auto parallel = core::buildTraceReplay(row, records, four);

    ASSERT_EQ(serial->size(), records);
    ASSERT_EQ(parallel->size(), records);
    EXPECT_EQ(serial->name(), parallel->name());
    for (std::uint64_t i = 0; i < records; ++i) {
        const trace::TraceRecord a = serial->record(i);
        const trace::TraceRecord b = parallel->record(i);
        ASSERT_EQ(a.pc, b.pc) << "record " << i;
        ASSERT_EQ(a.nextPc, b.nextPc) << "record " << i;
        ASSERT_EQ(a.memAddr, b.memAddr) << "record " << i;
        ASSERT_EQ(a.cls, b.cls) << "record " << i;
        ASSERT_EQ(a.taken, b.taken) << "record " << i;
    }

    std::remove(path.c_str());
}

} // namespace
} // namespace emissary
