/**
 * @file
 * Tests for the fused multi-policy sweep (core::run over several L2
 * lanes, and runGrid's fused engine).
 *
 * Fidelity contract under test:
 *  - the *timing lane* (first policy of a group) is bit-identical to
 *    a one-lane run of that policy — Metrics and the full counter
 *    registry;
 *  - a one-lane run over the shared buffer is the live program's
 *    sequential run exactly;
 *  - *monitor lanes* are invariant to group composition and to the
 *    grid engine's worker count (their inputs are the shared
 *    pipeline's stream plus their own RNG, nothing else);
 *  - monitor-lane cache counters track the sequential oracle of the
 *    same policy within a loose structural bound (the tight,
 *    measured bounds live in bench/bench_mode_validation.cpp and
 *    docs/performance.md), and monitor lanes are untimed: every
 *    clock-derived field reads 0;
 *  - sampled-set monitors (fast mode) stay within a scaled-error
 *    envelope of their full-fidelity selves.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/threadpool.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "trace/replay.hh"

namespace emissary
{
namespace
{

using core::CellExecution;
using core::GridOptions;
using core::Metrics;
using core::RunOptions;

RunOptions
smallWindow()
{
    RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 60'000;
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

/** A monitor lane keeps no clock: its ten clock-derived fields are 0
 *  (Metrics::timed). */
void
expectUntimed(const Metrics &m)
{
    EXPECT_FALSE(m.timed());
    EXPECT_EQ(m.cycles, 0u);
    EXPECT_EQ(m.ipc, 0.0);
    EXPECT_EQ(m.issueRate, 0.0);
    EXPECT_EQ(m.decodeRate, 0.0);
    EXPECT_EQ(m.starvationCycles, 0u);
    EXPECT_EQ(m.starvationIqEmptyCycles, 0u);
    EXPECT_EQ(m.feStallCycles, 0u);
    EXPECT_EQ(m.beStallCycles, 0u);
    EXPECT_EQ(m.totalStallCycles, 0u);
    EXPECT_EQ(m.energy.total(), 0.0);
}

void
expectRegistriesIdentical(const stats::Registry &a,
                          const stats::Registry &b)
{
    ASSERT_EQ(a.names(), b.names());
    for (const std::string &name : a.names())
        EXPECT_EQ(a.value(name), b.value(name)) << name;
}

std::vector<replacement::PolicySpec>
parseAll(const std::vector<std::string> &policies)
{
    std::vector<replacement::PolicySpec> specs;
    specs.reserve(policies.size());
    for (const std::string &policy : policies)
        specs.push_back(replacement::PolicySpec::parse(policy));
    return specs;
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

TEST(FusedRun, TimingLaneBitIdenticalToSequential)
{
    const RunOptions options = smallWindow();
    const auto l1i =
        replacement::PolicySpec::parse(options.l1iPolicy);
    const std::vector<std::string> policies = {
        "P(8):S&E&R(1/32)", "TPLRU", "M:R(1/2)", "P(4):S"};

    for (const char *workload : {"tomcat", "kafka"}) {
        SCOPED_TRACE(workload);
        const auto buffer = packWorkload(workload, options);

        // Each policy takes its turn as the timing lane; the other
        // three ride along as monitors. Every rotation's lane 0 must
        // be indistinguishable from the sequential engine.
        std::vector<std::string> rotation(policies);
        for (std::size_t lead = 0; lead < policies.size(); ++lead) {
            std::rotate(rotation.begin(), rotation.begin() + 1,
                        rotation.end());
            SCOPED_TRACE("timing lane " + rotation.front());
            const auto specs = parseAll(rotation);

            core::RunTelemetry sequential_report;
            const Metrics sequential =
                core::run(buffer, {specs.front()}, 0, l1i, options,
                          nullptr, &sequential_report)
                    .front();

            core::RunTelemetry fused_report;
            const std::vector<Metrics> fused = core::run(
                buffer, specs, 0, l1i, options, nullptr, &fused_report);
            ASSERT_EQ(fused.size(), rotation.size());
            ASSERT_EQ(fused_report.registries.size(), rotation.size());

            expectMetricsIdentical(sequential, fused.front());
            expectRegistriesIdentical(
                sequential_report.registries.front(),
                fused_report.registries.front());
        }
    }
}

TEST(FusedRun, SingleLaneGroupMatchesSequential)
{
    // A one-lane pass over the shared buffer is the sequential
    // engine: it must equal the live program's run of that policy.
    const RunOptions options = smallWindow();
    const auto l1i =
        replacement::PolicySpec::parse(options.l1iPolicy);
    const trace::SyntheticProgram program(
        trace::profileByName("verilator"));
    const auto buffer = packWorkload("verilator", options);

    for (const char *policy : {"TPLRU", "P(8):S&E&R(1/32)"}) {
        SCOPED_TRACE(policy);
        const auto spec = replacement::PolicySpec::parse(policy);
        const Metrics sequential =
            core::runPolicy(program, policy, options);
        const std::vector<Metrics> fused =
            core::run(buffer, {spec}, 0, l1i, options);
        ASSERT_EQ(fused.size(), 1u);
        expectMetricsIdentical(sequential, fused.front());
    }
}

TEST(FusedRun, MonitorLanesInvariantToGroupComposition)
{
    const RunOptions options = smallWindow();
    const auto l1i =
        replacement::PolicySpec::parse(options.l1iPolicy);
    const auto buffer = packWorkload("tomcat", options);

    // The monitored policy rides behind the same timing lane in a
    // small and a large group; its lane sees the identical stream
    // and draws from its own RNG, so its Metrics must not move.
    const auto small = parseAll({"TPLRU", "P(8):S&E&R(1/32)"});
    const auto large = parseAll({"TPLRU", "M:R(1/2)", "P(2):S&E",
                                 "P(8):S&E&R(1/32)", "LRU"});

    const std::vector<Metrics> few =
        core::run(buffer, small, 0, l1i, options);
    const std::vector<Metrics> many =
        core::run(buffer, large, 0, l1i, options);
    expectMetricsIdentical(few.at(1), many.at(3));
    // And the shared timing lane is oblivious to the bank's width.
    expectMetricsIdentical(few.at(0), many.at(0));
}

TEST(FusedRun, MonitorLaneTracksSequentialOracle)
{
    const RunOptions options = smallWindow();
    const auto l1i =
        replacement::PolicySpec::parse(options.l1iPolicy);
    const auto buffer = packWorkload("tomcat", options);
    const auto specs = parseAll({"TPLRU", "P(8):S&E&R(1/32)"});

    const Metrics oracle =
        core::run(buffer, {specs.at(1)}, 0, l1i, options).front();
    const std::vector<Metrics> fused =
        core::run(buffer, specs, 0, l1i, options);
    const Metrics &monitor = fused.at(1);

    // Structural sanity: same committed work, no clock.
    EXPECT_EQ(monitor.instructions, oracle.instructions);
    expectUntimed(monitor);

    // The monitor lane replays the timing lane's access stream, so
    // its miss counters track the oracle up to the L2-latency
    // feedback into fetch. These are deliberately loose structural
    // bounds; the measured bounds (a few percent) are enforced and
    // documented by bench_mode_validation.
    const auto within = [](double got, double want, double rel,
                           double abs_slack) {
        return std::fabs(got - want) <=
               rel * std::fabs(want) + abs_slack;
    };
    EXPECT_TRUE(within(monitor.l2InstMpki, oracle.l2InstMpki, 0.25,
                       0.5))
        << monitor.l2InstMpki << " vs " << oracle.l2InstMpki;
    EXPECT_TRUE(within(monitor.l2DataMpki, oracle.l2DataMpki, 0.25,
                       0.5))
        << monitor.l2DataMpki << " vs " << oracle.l2DataMpki;
    EXPECT_TRUE(within(monitor.l3Mpki, oracle.l3Mpki, 0.35, 0.5))
        << monitor.l3Mpki << " vs " << oracle.l3Mpki;
}

TEST(FusedRun, SampledMonitorStaysNearFullMonitor)
{
    const RunOptions options = smallWindow();
    const auto l1i =
        replacement::PolicySpec::parse(options.l1iPolicy);
    const auto buffer = packWorkload("kafka", options);
    const auto specs = parseAll({"TPLRU", "P(8):S&E&R(1/32)"});

    const std::vector<Metrics> full =
        core::run(buffer, specs, 0, l1i, options);

    for (const unsigned k : {8u, 16u}) {
        SCOPED_TRACE("1-in-" + std::to_string(k));
        const std::vector<Metrics> sampled =
            core::run(buffer, specs, k, l1i, options);

        // The timing lane never samples: still bit-identical.
        expectMetricsIdentical(full.at(0), sampled.at(0));

        // The sampled monitor's scaled counters track its own
        // full-fidelity lane within a sampling-noise envelope.
        const Metrics &want = full.at(1);
        const Metrics &got = sampled.at(1);
        EXPECT_EQ(got.instructions, want.instructions);
        const auto near = [](double a, double b, double rel,
                             double abs_slack) {
            return std::fabs(a - b) <=
                   rel * std::fabs(b) + abs_slack;
        };
        EXPECT_TRUE(near(got.l2InstMpki, want.l2InstMpki, 0.35, 1.0))
            << got.l2InstMpki << " vs " << want.l2InstMpki;
        EXPECT_TRUE(near(got.l2DataMpki, want.l2DataMpki, 0.35, 1.0))
            << got.l2DataMpki << " vs " << want.l2DataMpki;
        expectUntimed(got);
    }
}

TEST(FusedGrid, MatchesSequentialTimingAndIsWorkerCountInvariant)
{
    const RunOptions options = smallWindow();
    const core::PolicyGrid grid = core::PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat"),
            trace::profileByName("kafka")},
        {"TPLRU", "P(2):S&E", "M:R(1/2)"}, options);

    GridOptions fused_options;
    fused_options.fused = true;

    core::ThreadPool one(1);
    core::ThreadPool three(3);
    const core::GridResults sequential = core::runGrid(grid, one);
    const core::GridResults fused1 =
        core::runGrid(grid, one, fused_options);
    const core::GridResults fused3 =
        core::runGrid(grid, three, fused_options);

    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        // Column 0 is every row's timing lane: exact.
        expectMetricsIdentical(sequential.at(w, 0), fused1.at(w, 0));
        EXPECT_EQ(fused1.executionAt(w, 0),
                  CellExecution::FusedTiming);
        for (std::size_t r = 0; r < grid.runs.size(); ++r) {
            // Worker count must not perturb any cell, fused or not.
            expectMetricsIdentical(fused1.at(w, r), fused3.at(w, r));
            EXPECT_EQ(fused1.executionAt(w, r),
                      fused3.executionAt(w, r));
            EXPECT_EQ(sequential.executionAt(w, r),
                      CellExecution::Sequential);
            if (r > 0) {
                EXPECT_EQ(fused1.executionAt(w, r),
                          CellExecution::FusedMonitor);
            }
        }
    }
    EXPECT_FALSE(sequential.fused());
    EXPECT_TRUE(fused1.fused());

    // Execution provenance reaches the sweep artifact.
    const stats::JsonValue doc = core::sweepJson(grid, fused1);
    ASSERT_NE(doc.find("mode"), nullptr);
    EXPECT_EQ(doc.find("mode")->asString(), "fused");
    ASSERT_GT(doc.find("runs")->size(), 0u);
    EXPECT_NE(doc.find("runs")->at(0).find("execution"), nullptr);
}

TEST(FusedGrid, ChunkedFusedRowsAreDeterministicAndTagged)
{
    // A fused row whose runs ask for time chunking runs the whole
    // lane bank chunk-wise (core::run over a chunked window): the
    // timing lane is tagged as the time-parallel approximation, the
    // monitors keep their fused tags, and — like every chunked
    // splice — no cell may move with the grid's worker count.
    RunOptions options = smallWindow();
    options.timeChunks = 3;
    options.chunkWarmupRecords = 10'000;
    const core::PolicyGrid grid = core::PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat")},
        {"TPLRU", "P(8):S&E&R(1/32)", "M:R(1/2)"}, options);

    GridOptions fused_options;
    fused_options.fused = true;

    core::ThreadPool one(1);
    core::ThreadPool three(3);
    const core::GridResults narrow =
        core::runGrid(grid, one, fused_options);
    const core::GridResults wide =
        core::runGrid(grid, three, fused_options);

    EXPECT_EQ(narrow.executionAt(0, 0),
              CellExecution::TimeParallel);
    EXPECT_EQ(narrow.executionAt(0, 1),
              CellExecution::FusedMonitor);
    EXPECT_EQ(narrow.executionAt(0, 2),
              CellExecution::FusedMonitor);
    for (std::size_t r = 0; r < grid.runs.size(); ++r) {
        expectMetricsIdentical(narrow.at(0, r), wide.at(0, r));
        EXPECT_EQ(narrow.executionAt(0, r), wide.executionAt(0, r));
    }
}

TEST(FusedGrid, SampledGridLabelsMonitorCells)
{
    const RunOptions options = smallWindow();
    const core::PolicyGrid grid = core::PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("verilator")},
        {"TPLRU", "P(8):S&E&R(1/32)"}, options);

    GridOptions fused_options;
    fused_options.fused = true;
    fused_options.sampledSets = 8;

    core::ThreadPool pool(2);
    const core::GridResults results =
        core::runGrid(grid, pool, fused_options);
    EXPECT_EQ(results.executionAt(0, 0), CellExecution::FusedTiming);
    EXPECT_EQ(results.executionAt(0, 1),
              CellExecution::FusedMonitorSampled);
    EXPECT_TRUE(results.at(0, 0).timed());
    expectUntimed(results.at(0, 1));
}

} // namespace
} // namespace emissary
