/**
 * @file
 * Tests for the trace replay cache: RecordBuffer must pack the live
 * executor's stream exactly, ReplayCursor must decode it (and fall
 * back to the tail snapshot on overrun) without perturbing a single
 * field, and — the headline determinism contract — a run over the
 * buffer must produce bit-identical Metrics and registry counters to
 * a run of the live program. The grid engine's replay path is checked
 * against a budget-disabled live grid the same way. A buffer read
 * while another thread packs it must serve exactly what the same
 * buffer packed up front serves. A run that reads its block outcomes
 * from a frontend::PredictionStream equals the live run too: when
 * the stream is still being predicted as its readers start, when the
 * run outruns a capped stream, and for chunk 0 of a chunked run.
 *
 * The per-workload equivalence test runs a fast subset by default;
 * set EMISSARY_REPLAY_FULL=1 (the test_replay_full ctest entry) to
 * sweep every workload in trace::datacenterSuite().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/threadpool.hh"
#include "frontend/frontend.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "trace/replay.hh"

namespace emissary
{
namespace
{

using core::Metrics;
using core::RunTelemetry;
using core::RunOptions;

void
expectRecordsEqual(const trace::TraceRecord &a,
                   const trace::TraceRecord &b, std::uint64_t i)
{
    EXPECT_EQ(a.pc, b.pc) << "record " << i;
    EXPECT_EQ(a.nextPc, b.nextPc) << "record " << i;
    EXPECT_EQ(a.memAddr, b.memAddr) << "record " << i;
    EXPECT_EQ(a.cls, b.cls) << "record " << i;
    EXPECT_EQ(a.taken, b.taken) << "record " << i;
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

TEST(RecordBuffer, PacksTheLiveStreamExactly)
{
    const trace::SyntheticProgram program(
        trace::profileByName("tomcat"));
    const std::uint64_t records = 50'000;
    const trace::RecordBuffer buffer(program, records);

    EXPECT_EQ(buffer.size(), records);
    EXPECT_EQ(buffer.packedBytes(),
              records * trace::RecordBuffer::kBytesPerRecord);

    trace::SyntheticExecutor live(program);
    EXPECT_STREQ(buffer.name().c_str(), live.name());
    for (std::uint64_t i = 0; i < records; ++i)
        expectRecordsEqual(buffer.record(i), live.next(), i);
}

TEST(ReplayCursor, MixedNextAndFillDecodeTheBuffer)
{
    const trace::SyntheticProgram program(
        trace::profileByName("verilator"));
    const std::uint64_t records = 20'000;
    auto buffer = std::make_shared<const trace::RecordBuffer>(
        program, records);

    trace::ReplayCursor cursor(buffer);
    trace::SyntheticExecutor live(program);
    EXPECT_STREQ(cursor.name(), live.name());

    // Interleave single pulls with odd-sized batches to exercise both
    // entry points and batch-boundary bookkeeping.
    std::uint64_t consumed = 0;
    const std::size_t batches[] = {1, 7, 256, 100, 1000, 3, 511};
    std::vector<trace::TraceRecord> got(1024);
    while (consumed + 2048 < records) {
        for (const std::size_t n : batches) {
            cursor.fill(got.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                expectRecordsEqual(got[i], live.next(), consumed + i);
            consumed += n;
        }
        expectRecordsEqual(cursor.next(), live.next(), consumed);
        ++consumed;
    }
    EXPECT_EQ(cursor.position(), consumed);
    EXPECT_FALSE(cursor.overran());
    EXPECT_EQ(cursor.uniqueCodeLines(), live.uniqueCodeLines());
}

TEST(ReplayCursor, OverrunContinuesFromTheTailSnapshot)
{
    const trace::SyntheticProgram program(
        trace::profileByName("kafka"));
    auto buffer = std::make_shared<const trace::RecordBuffer>(
        program, 1'000);

    trace::ReplayCursor cursor(buffer);
    trace::SyntheticExecutor live(program);

    // Read 3x the buffer: the cursor must cross into the tail
    // snapshot without skipping or repeating a record.
    std::vector<trace::TraceRecord> got(300);
    for (std::uint64_t consumed = 0; consumed < 3'000;
         consumed += got.size()) {
        cursor.fill(got.data(), got.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            expectRecordsEqual(got[i], live.next(), consumed + i);
    }
    EXPECT_TRUE(cursor.overran());
    EXPECT_EQ(cursor.uniqueCodeLines(), live.uniqueCodeLines());
}

/** What one cursor served: its records, footprint and overrun. */
struct Served
{
    std::vector<trace::TraceRecord> records;
    std::uint64_t uniqueCodeLines = 0;
    bool overran = false;
};

/** Read @p count records from record @p start: one next(), then
 *  fill()s of an odd batch size that straddles publications. */
Served
serve(const std::shared_ptr<const trace::RecordBuffer> &buffer,
      std::uint64_t start, std::uint64_t count)
{
    trace::ReplayCursor cursor(buffer, start);
    Served out;
    out.records.resize(count);
    out.records[0] = cursor.next();
    for (std::uint64_t i = 1; i < count;) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(777, count - i));
        cursor.fill(out.records.data() + i, n);
        i += n;
    }
    out.uniqueCodeLines = cursor.uniqueCodeLines();
    out.overran = cursor.overran();
    return out;
}

void
expectServedEqual(const Served &got, const Served &want)
{
    ASSERT_EQ(got.records.size(), want.records.size());
    for (std::size_t i = 0; i < want.records.size(); ++i) {
        const trace::TraceRecord &a = got.records[i];
        const trace::TraceRecord &b = want.records[i];
        if (a.pc != b.pc || a.nextPc != b.nextPc ||
            a.memAddr != b.memAddr || a.cls != b.cls ||
            a.taken != b.taken) {
            expectRecordsEqual(a, b, i);
            return;
        }
    }
    EXPECT_EQ(got.uniqueCodeLines, want.uniqueCodeLines);
    EXPECT_EQ(got.overran, want.overran);
}

TEST(ReplayCursor, ReadersOfAPackingBufferSeeTheEagerBuffer)
{
    const trace::SyntheticProgram program(
        trace::profileByName("tomcat"));
    const std::uint64_t records = 200'000;
    const auto eager =
        std::make_shared<const trace::RecordBuffer>(program, records);
    const auto packing = std::make_shared<trace::RecordBuffer>(
        program, records, trace::RecordBuffer::Packing::Deferred);
    EXPECT_EQ(packing->size(), records);
    EXPECT_EQ(packing->packed(), 0u);

    // From the start, from mid-stream, across the end into the tail
    // executor, and from the end itself (tail only).
    struct Reader
    {
        std::uint64_t start;
        std::uint64_t count;
    };
    const std::vector<Reader> readers = {{0, records},
                                         {records / 2 + 123, 60'000},
                                         {records - 1'000, 20'000},
                                         {records, 5'000}};
    std::vector<Served> got(readers.size());
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < readers.size(); ++i)
        threads.emplace_back([&, i]() {
            ready.fetch_add(1);
            got[i] = serve(packing, readers[i].start, readers[i].count);
        });
    // Pack once every reader is about to read, so they race it.
    while (ready.load() < readers.size())
        std::this_thread::yield();
    packing->pack();
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(packing->packed(), records);

    for (std::size_t i = 0; i < readers.size(); ++i) {
        SCOPED_TRACE("reader from record " +
                     std::to_string(readers[i].start));
        expectServedEqual(
            got[i], serve(eager, readers[i].start, readers[i].count));
    }
    EXPECT_TRUE(got.back().overran);
    EXPECT_FALSE(got.front().overran);
}

/** Replay vs live for one workload under one policy. */
void
expectReplayMatchesLive(const trace::WorkloadProfile &profile,
                        const std::string &policy,
                        const RunOptions &options)
{
    SCOPED_TRACE(profile.name + " / " + policy);
    const auto l2 = replacement::PolicySpec::parse(policy);
    const auto l1i = replacement::PolicySpec::parse(options.l1iPolicy);

    const trace::SyntheticProgram program(profile);
    RunTelemetry live_instr;
    const Metrics live =
        core::run(program, l2, l1i, options, nullptr, nullptr, &live_instr);

    auto buffer = std::make_shared<const trace::RecordBuffer>(
        program, trace::RecordBuffer::recordsForWindow(
                     options.warmupInstructions +
                     options.measureInstructions));
    RunTelemetry replay_instr;
    const Metrics replay =
        core::run(buffer, l2, l1i, options, nullptr, nullptr, &replay_instr);

    expectMetricsIdentical(live, replay);
    expectRegistriesIdentical(live_instr.registry,
                              replay_instr.registry);
}

TEST(ReplayRun, MetricsBitIdenticalToLiveFastSubset)
{
    RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 60'000;
    for (const char *name : {"tomcat", "verilator"})
        for (const char *policy : {"TPLRU", "P(8):S&E&R(1/32)"})
            expectReplayMatchesLive(trace::profileByName(name),
                                    policy, options);
}

TEST(ReplayRun, MetricsBitIdenticalToLiveFullSuite)
{
    if (!std::getenv("EMISSARY_REPLAY_FULL"))
        GTEST_SKIP() << "set EMISSARY_REPLAY_FULL=1 (or run the "
                        "test_replay_full ctest entry) for the full "
                        "datacenterSuite sweep";
    RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 60'000;
    for (const trace::WorkloadProfile &profile :
         trace::datacenterSuite())
        for (const char *policy : {"TPLRU", "P(8):S&E&R(1/32)"})
            expectReplayMatchesLive(profile, policy, options);
}

TEST(ReplayRun, GridReplayMatchesBudgetDisabledLiveGrid)
{
    RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 60'000;
    const core::PolicyGrid grid = core::PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat"),
            trace::profileByName("kafka")},
        {"TPLRU", "P(2):S&E", "M:R(1/2)"}, options);
    core::ThreadPool pool(2);

    // Budget 0 disables the replay cache: every cell generates live.
    ::setenv("EMISSARY_REPLAY_BUDGET_MB", "0", 1);
    const core::GridResults live = core::runGrid(grid, pool);
    ::unsetenv("EMISSARY_REPLAY_BUDGET_MB");
    const core::GridResults replayed = core::runGrid(grid, pool);

    for (std::size_t w = 0; w < grid.workloads.size(); ++w)
        for (std::size_t r = 0; r < grid.runs.size(); ++r)
            expectMetricsIdentical(live.at(w, r), replayed.at(w, r));

    // Both report the same committed work in the Minst/s aggregate.
    EXPECT_EQ(live.totalInstructions(), replayed.totalInstructions());
    EXPECT_GT(replayed.instructionsPerSecond(), 0.0);
}

/** A tomcat window, its live run (the inline oracle) and its
 *  records packed into a buffer. */
struct PredictionCase
{
    RunOptions options;
    replacement::PolicySpec l2 = replacement::PolicySpec::parse("P(8):S&E");
    replacement::PolicySpec l1i = replacement::PolicySpec::parse("TPLRU");
    trace::SyntheticProgram program{trace::profileByName("tomcat")};
    std::shared_ptr<const trace::RecordBuffer> buffer;
    Metrics live;
    RunTelemetry liveReport;

    PredictionCase()
    {
        options.warmupInstructions = 20'000;
        options.measureInstructions = 60'000;
        live = core::run(program, l2, l1i, options, nullptr, nullptr,
                         &liveReport);
        buffer = std::make_shared<const trace::RecordBuffer>(
            program, trace::RecordBuffer::recordsForWindow(
                         options.warmupInstructions +
                         options.measureInstructions));
    }

    /** A stream of at most @p max_blocks outcomes, fed the buffer's
     *  records in 4096-record chunks, @p finished or not. */
    std::shared_ptr<frontend::PredictionStream>
    predict(std::uint64_t max_blocks) const
    {
        auto stream = std::make_shared<frontend::PredictionStream>(
            core::predictorConfig(options), max_blocks);
        std::vector<trace::TraceRecord> chunk(4096);
        for (std::uint64_t i = 0; i < buffer->size();) {
            std::size_t n = 0;
            for (; n < chunk.size() && i < buffer->size(); ++n, ++i)
                chunk[n] = buffer->record(i);
            stream->append(chunk.data(), n);
        }
        stream->finish();
        return stream;
    }

    void
    expectLive(const Metrics &metrics, const RunTelemetry &report) const
    {
        expectMetricsIdentical(live, metrics);
        expectRegistriesIdentical(liveReport.registry,
                                  report.registry);
    }
};

TEST(PredictionRun, ReadersStartedBeforeTheFirstOutcomeMatchTheLiveRun)
{
    const PredictionCase test_case;
    auto stream = std::make_shared<frontend::PredictionStream>(
        core::predictorConfig(test_case.options),
        test_case.buffer->size());
    constexpr std::size_t kReaders = 3;
    std::vector<Metrics> got(kReaders);
    std::vector<RunTelemetry> reports(kReaders);
    std::atomic<std::size_t> started{0};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kReaders; ++i)
        threads.emplace_back([&, i]() {
            started.fetch_add(1);
            got[i] = core::run(core::RunSource(test_case.buffer, 0, stream),
                               test_case.l2, test_case.l1i, test_case.options,
                               nullptr, nullptr, &reports[i]);
        });
    // The records are all there; the outcomes start only once every
    // reader runs, so the readers wait on the stream.
    while (started.load() < kReaders)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto full = test_case.predict(test_case.buffer->size());
    std::vector<trace::TraceRecord> chunk(1000);
    for (std::uint64_t i = 0; i < test_case.buffer->size();) {
        std::size_t n = 0;
        for (; n < chunk.size() && i < test_case.buffer->size(); ++n, ++i)
            chunk[n] = test_case.buffer->record(i);
        stream->append(chunk.data(), n);
    }
    stream->finish();
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(stream->published(), full->published());
    double longest_wait = 0.0;
    for (std::size_t i = 0; i < kReaders; ++i) {
        SCOPED_TRACE("reader " + std::to_string(i));
        test_case.expectLive(got[i], reports[i]);
        EXPECT_EQ(reports[i].replayWaitSeconds, 0.0);
        longest_wait =
            std::max(longest_wait, reports[i].predictionWaitSeconds);
    }
    // A reader blocked for its first outcome instead of predicting
    // for itself: it reached block 0 well within the 100 ms before
    // the producer started.
    EXPECT_GT(longest_wait, 0.02);
}

TEST(PredictionRun, RunPastACappedStreamPredictsFromItsFinalState)
{
    const PredictionCase test_case;
    const auto capped = test_case.predict(2'000);
    ASSERT_EQ(capped->published(), 2'000u);
    RunTelemetry report;
    const Metrics metrics =
        core::run(core::RunSource(test_case.buffer, 0, capped), test_case.l2,
                  test_case.l1i, test_case.options, nullptr, nullptr, &report);
    test_case.expectLive(metrics, report);
    // The measured window alone formed more blocks than the stream
    // held, so the run went on inline.
    EXPECT_GT(report.registry.value("frontend.blocks_formed"),
              2'000u);
}

TEST(PredictionRun, ChunkZeroReadsTheStreamAndTheSpliceIsUnchanged)
{
    const PredictionCase test_case;
    RunOptions chunked = test_case.options;
    chunked.timeChunks = 3;
    chunked.chunkWarmupRecords = 10'000;
    core::ThreadPool pool(3);
    RunTelemetry plain_report;
    const Metrics plain =
        core::run(test_case.buffer, test_case.l2, test_case.l1i, chunked,
                  nullptr, &pool, &plain_report);
    RunTelemetry shared_report;
    const Metrics shared =
        core::run(core::RunSource(test_case.buffer, 0,
                                  test_case.predict(
                                      test_case.buffer->size())),
                  test_case.l2, test_case.l1i, chunked, nullptr, &pool,
                  &shared_report);
    EXPECT_EQ(shared_report.chunks, 3u);
    expectMetricsIdentical(plain, shared);
    expectRegistriesIdentical(plain_report.registry,
                              shared_report.registry);
}

} // namespace
} // namespace emissary
