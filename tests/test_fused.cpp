/**
 * @file
 * Tests for the fused multi-policy sweep (a core::run that records a
 * feed plus one core::replayMonitor per monitor lane, and runGrid's
 * fused engine).
 *
 * Fidelity contract under test:
 *  - the *timing lane* (first policy of a group) is bit-identical to
 *    a run of that policy that records no feed — Metrics and the
 *    full counter registry;
 *  - a run over the shared buffer is the live program's sequential
 *    run exactly;
 *  - *monitor lanes* are invariant to group composition and to the
 *    grid engine's worker count, full-size and sampled alike (their
 *    inputs are the shared pipeline's stream plus their own RNG,
 *    nothing else);
 *  - monitor-lane cache counters track the sequential oracle of the
 *    same policy within a loose structural bound (the tight,
 *    measured bounds live in bench/bench_mode_validation.cpp and
 *    docs/performance.md), and monitor lanes are untimed: every
 *    clock-derived field reads 0;
 *  - sampled-set monitors (fast mode) stay within a scaled-error
 *    envelope of their full-fidelity selves;
 *  - a monitor lane under the timing lane's own policy counts every
 *    cache event the timing lane counts, under every knob that
 *    reaches the L2/L3: its copies of the timing lane's L1s are
 *    exact;
 *  - a lane's own L2 eviction, which the timing lane's L1s never
 *    see, drops the lane's copy of the line's P bit and folds a
 *    dirty L1D copy into the victim.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/lanes.hh"
#include "cache/miss_log.hh"
#include "core/config.hh"
#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/observability.hh"
#include "core/simulator.hh"
#include "core/threadpool.hh"
#include "fused_pass.hh"
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
                core::run(buffer, specs.front(), l1i, options, nullptr,
                          nullptr, &sequential_report);

            std::vector<stats::Registry> fused_registries;
            const std::vector<Metrics> fused = test::runFusedPass(
                buffer, specs, 0, l1i, options, nullptr,
                &fused_registries);
            ASSERT_EQ(fused.size(), rotation.size());
            ASSERT_EQ(fused_registries.size(), rotation.size());

            expectMetricsIdentical(sequential, fused.front());
            expectRegistriesIdentical(
                sequential_report.registry,
                fused_registries.front());
        }
    }
}

/** Lane 1 of a fused pass {P, P} must count what lane 0 counts:
 *  every registry key but the clock-derived starve.* and backend.*
 *  (31 keys), and the priority distribution. Returns dram.writes. */
double
expectLaneOfTheTimingPolicy(
    const std::shared_ptr<const trace::RecordBuffer> &buffer,
    const std::string &policy, const RunOptions &options)
{
    const auto l1i = replacement::PolicySpec::parse(options.l1iPolicy);
    const auto spec = replacement::PolicySpec::parse(policy);
    std::vector<stats::Registry> registries;
    const std::vector<Metrics> lanes = test::runFusedPass(
        buffer, {spec, spec}, 0, l1i, options, nullptr, &registries);
    const stats::Registry &timing = registries.at(0);
    const stats::Registry &monitor = registries.at(1);
    EXPECT_EQ(timing.names(), monitor.names());
    std::size_t compared = 0;
    for (const std::string &name : timing.names()) {
        if (name.rfind("starve.", 0) == 0 || name.rfind("backend.", 0) == 0)
            continue;
        ++compared;
        EXPECT_EQ(timing.value(name), monitor.value(name)) << name;
    }
    EXPECT_EQ(compared, 31u);
    EXPECT_EQ(lanes.at(0).priorityDistribution,
              lanes.at(1).priorityDistribution);
    return timing.value("dram.writes");
}

TEST(MissLog, ReadsBackEveryEventAcrossBlocks)
{
    // Enough events of every kind, with line deltas of both signs and
    // widths up to 64 bits and slots up to 32 bits, to fill several
    // blocks: the reader returns them in order, unchanged.
    using Kind = cache::MissLog::Kind;
    cache::MissLog log;
    std::vector<cache::MissLog::Event> written;
    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    const auto random = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int i = 0; i < 60'000; ++i) {
        cache::MissLog::Event event;
        event.kind = static_cast<Kind>(i % 8);
        const std::uint64_t line =
            i % 5 == 0 ? random() : random() % 4096 + 0x40000;
        const unsigned slot = static_cast<unsigned>(
            i % 7 == 0 ? random() >> 32 : random() % 1024);
        switch (event.kind) {
          case Kind::Probe:
            event.flags = static_cast<std::uint8_t>(i % 4);
            event.line = line;
            log.probe(line, event.flags & cache::MissLog::kInstruction,
                      event.flags & cache::MissLog::kDemand);
            break;
          case Kind::InstructionFill:
            event.flags = static_cast<std::uint8_t>(i % 8);
            event.line = line;
            event.slot = slot;
            log.instructionFill(line, event.flags & 1, event.flags & 2,
                                event.flags & 4, slot);
            break;
          case Kind::DataFill:
            event.flags = static_cast<std::uint8_t>(i % 8);
            event.line = line;
            event.slot = slot;
            log.dataFill(line, event.flags & 1, event.flags & 2,
                         event.flags & 4, slot);
            break;
          case Kind::DirtyStore:
            event.line = line;
            event.slot = slot;
            log.dirtyStore(line, slot);
            break;
          case Kind::L1IInvalidate:
          case Kind::L1DInvalidate:
            event.slot = slot;
            log.slotEvent(event.kind, slot);
            break;
          case Kind::PriorityReset:
          case Kind::WindowStart:
            log.mark(event.kind);
            break;
        }
        written.push_back(event);
    }
    log.finish();
    EXPECT_EQ(log.events(), written.size());
    EXPECT_GT(log.bytes(), std::uint64_t{4} << 16);

    cache::MissLog::Reader reader(log);
    cache::MissLog::Event event;
    for (std::size_t i = 0; i < written.size(); ++i) {
        ASSERT_TRUE(reader.next(event)) << i;
        const cache::MissLog::Event &want = written[i];
        ASSERT_EQ(event.kind, want.kind) << i;
        ASSERT_EQ(event.flags, want.flags) << i;
        if (want.kind == Kind::Probe || want.kind == Kind::DirtyStore ||
            want.kind == Kind::InstructionFill ||
            want.kind == Kind::DataFill) {
            ASSERT_EQ(event.line, want.line) << i;
        }
        if (want.kind != Kind::Probe && want.kind != Kind::PriorityReset &&
            want.kind != Kind::WindowStart) {
            ASSERT_EQ(event.slot, want.slot) << i;
        }
    }
    EXPECT_FALSE(reader.next(event));
}

/** A hierarchy of one-set, two-way TPLRU arrays: every fill past the
 *  second evicts the older line, so a hand-written log controls each
 *  eviction. */
cache::Hierarchy::Config
tinyHierarchy()
{
    const auto array = [](const char *name) {
        cache::Cache::Config config;
        config.name = name;
        config.sizeBytes = 128;
        config.ways = 2;
        config.lineBytes = 64;
        config.policy = replacement::PolicySpec::parse("TPLRU");
        return config;
    };
    cache::Hierarchy::Config config;
    config.l1i = array("l1i");
    config.l1d = array("l1d");
    config.l2 = array("l2");
    config.l3 = array("l3");
    return config;
}

TEST(MonitorLane, OwnL2EvictionDropsTheShadowedPBit)
{
    // The lane's L2 evicts A while the shared L1I still holds it with
    // P=1 (the timing L2 kept it, so no invalidation is logged). The
    // bit dies with the lane's copy: when A later leaves the L1I, the
    // lane's L2 gets no upgrade.
    cache::MissLog log;
    log.probe(0xA, true, true);
    log.instructionFill(0xA, false, false, /*l1i_selected=*/true, 0);
    log.probe(0xB, true, true);
    log.instructionFill(0xB, false, false, false, 1);
    log.probe(0xC, false, true);
    log.dataFill(0xC, false, false, false, 0);  // Evicts A from the L2.
    log.probe(0xD, true, true);
    log.instructionFill(0xD, false, false, false, 0);  // Displaces A.
    log.finish();

    cache::MonitorLane lane(tinyHierarchy(),
                            replacement::PolicySpec::parse("TPLRU"));
    lane.replay(log);
    const cache::HierarchyStats stats = lane.stats({});
    EXPECT_EQ(stats.highPriorityFills, 1u);
    EXPECT_EQ(stats.l2Evictions, 2u);
    EXPECT_EQ(stats.priorityUpgrades, 0u);
}

TEST(MonitorLane, OwnL2EvictionFoldsTheDirtyL1DCopy)
{
    // The lane's L2 evicts D while the shared L1D holds it dirty: the
    // victim enters the L3 dirty, and leaving the L3 writes DRAM.
    cache::MissLog log;
    log.probe(0xD, false, true);
    log.dataFill(0xD, false, false, /*write=*/true, 0);
    log.probe(0xE, false, true);
    log.dataFill(0xE, false, false, false, 1);
    for (const std::uint64_t line : {0xF, 0x10, 0x11}) {
        // Evicts D, E and F from the L2 in turn; F pushes D out of
        // the L3.
        log.probe(line, false, true);
        log.dataFill(line, false, false, false, 1);
    }
    log.finish();

    cache::MonitorLane lane(tinyHierarchy(),
                            replacement::PolicySpec::parse("TPLRU"));
    lane.replay(log);
    const cache::HierarchyStats stats = lane.stats({});
    EXPECT_EQ(stats.l2Evictions, 3u);
    EXPECT_EQ(stats.dramWrites, 1u);
}

TEST(FusedRun, LaneOfTheTimingPolicyReproducesTheTimingLane)
{
    // A monitor lane running the timing lane's own policy sees the
    // stream that policy produced, so every cache counter it keeps
    // must equal the timing lane's: the L1I priority shadows, the
    // L1D dirty fold, the exclusive L3 and every knob that reaches
    // the L2/L3 included. Only the clock-derived counters (starve.*
    // and backend.*) are the timing lane's alone.
    const std::vector<std::string> policies = {
        "TPLRU", "LRU", "DRRIP", "PDP", "M:S&E", "P(8):S&E",
        "P(8):S&E&R(1/32)"};
    std::vector<std::pair<std::string, RunOptions>> knobs;
    // Long enough for the L2 to evict.
    RunOptions base;
    base.warmupInstructions = 100'000;
    base.measureInstructions = 300'000;
    knobs.emplace_back("defaults", base);
    knobs.emplace_back("bypass", base);
    knobs.back().second.bypassLowPriorityInst = true;
    knobs.emplace_back("reset", base);
    knobs.back().second.priorityResetInstructions = 20'000;
    knobs.emplace_back("l1i", base);
    knobs.back().second.l1iPolicy = "P(2):S&E";
    knobs.emplace_back("no-nlp", base);
    knobs.back().second.nextLinePrefetch = false;
    knobs.emplace_back("no-fdip", base);
    knobs.back().second.fdip = false;
    knobs.emplace_back("ideal-l2i", base);
    knobs.back().second.idealL2Inst = true;
    knobs.emplace_back("true-lru", base);
    knobs.back().second.emissaryTreePlru = false;

    for (const char *workload : {"tomcat", "verilator"}) {
        SCOPED_TRACE(workload);
        const auto buffer = packWorkload(workload, base);
        for (const auto &[knob, options] : knobs) {
            SCOPED_TRACE(knob);
            for (const std::string &policy : policies) {
                SCOPED_TRACE(policy);
                expectLaneOfTheTimingPolicy(buffer, policy, options);
            }
        }
    }

    // Dirty lines leave the L3 only in a longer window: there the
    // lane's copy of the L1D dirty lines decides dram.writes.
    RunOptions long_window;
    long_window.warmupInstructions = 1'000'000;
    long_window.measureInstructions = 4'000'000;
    const auto kafka = packWorkload("kafka", long_window);
    for (const char *policy : {"TPLRU", "P(8):S&E"}) {
        SCOPED_TRACE(std::string("kafka long ") + policy);
        EXPECT_GT(expectLaneOfTheTimingPolicy(kafka, policy, long_window),
                  0.0);
    }
}

TEST(FusedRun, SingleLaneGroupMatchesSequential)
{
    // A pass over the shared buffer is the sequential engine: it
    // must equal the live program's run of that policy.
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
        expectMetricsIdentical(sequential,
                               core::run(buffer, spec, l1i, options));
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
        test::runFusedPass(buffer, small, 0, l1i, options);
    const std::vector<Metrics> many =
        test::runFusedPass(buffer, large, 0, l1i, options);
    expectMetricsIdentical(few.at(1), many.at(3));
    // And the shared timing lane is oblivious to how many lanes
    // replay its log.
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
        core::run(buffer, specs.at(1), l1i, options);
    const std::vector<Metrics> fused =
        test::runFusedPass(buffer, specs, 0, l1i, options);
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
        test::runFusedPass(buffer, specs, 0, l1i, options);

    for (const unsigned k : {8u, 16u}) {
        SCOPED_TRACE("1-in-" + std::to_string(k));
        const std::vector<Metrics> sampled =
            test::runFusedPass(buffer, specs, k, l1i, options);

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

    core::ThreadPool one(1);
    core::ThreadPool three(3);
    const core::GridResults sequential = core::runGrid(grid, one);
    EXPECT_FALSE(sequential.fused());

    // Full-size monitors, then monitors sampled 1 in 8.
    for (const unsigned sampled_sets : {0u, 8u}) {
        SCOPED_TRACE("sampledSets " + std::to_string(sampled_sets));
        GridOptions fused_options;
        fused_options.fused = true;
        fused_options.sampledSets = sampled_sets;
        const CellExecution monitor =
            sampled_sets > 1 ? CellExecution::FusedMonitorSampled
                             : CellExecution::FusedMonitor;
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
                // Worker count must not perturb any cell, fused or
                // not.
                expectMetricsIdentical(fused1.at(w, r), fused3.at(w, r));
                EXPECT_EQ(fused1.executionAt(w, r),
                          fused3.executionAt(w, r));
                EXPECT_EQ(sequential.executionAt(w, r),
                          CellExecution::Sequential);
                if (r > 0) {
                    EXPECT_EQ(fused1.executionAt(w, r), monitor);
                }
            }
        }
        EXPECT_TRUE(fused1.fused());

        // Execution provenance reaches the sweep artifact.
        const stats::JsonValue doc = core::sweepJson(grid, fused1);
        ASSERT_NE(doc.find("mode"), nullptr);
        EXPECT_EQ(doc.find("mode")->asString(), "fused");
        ASSERT_GT(doc.find("runs")->size(), 0u);
        EXPECT_NE(doc.find("runs")->at(0).find("execution"), nullptr);
    }
}

TEST(FusedGrid, ChunkedFusedRowsAreDeterministicAndTagged)
{
    // A fused row whose runs ask for time chunking records one log
    // per time chunk, and each monitor replays them all: the
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
