/**
 * @file
 * End-to-end tests for the observability layer: the sampler's
 * cadence, the registry export, and — the load-bearing contract — a
 * replay check that the JSONL event trace reconciles exactly with the
 * end-of-window registry counters, category by category.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/observability.hh"
#include "stats/json.hh"
#include "stats/registry.hh"
#include "stats/sampler.hh"
#include "stats/trace_sink.hh"
#include "trace/program.hh"

namespace emissary::core
{
namespace
{

/** A small L2-hostile workload (same regime as test_integration). */
trace::WorkloadProfile
hostileProfile()
{
    trace::WorkloadProfile p;
    p.name = "hostile";
    p.codeFootprintBytes = 2 * 1024 * 1024;
    p.transactionTypes = 128;
    p.transactionSkew = 0.5;
    p.functionsPerTransaction = 12;
    p.hardBranchFraction = 0.02;
    p.loadFraction = 0.18;
    p.storeFraction = 0.08;
    p.hotDataBytes = 128 * 1024;
    p.hotDataSkew = 1.2;
    p.coldAccessFraction = 0.002;
    p.dataFootprintBytes = 4 << 20;
    p.seed = 4242;
    return p;
}

RunOptions
window()
{
    RunOptions o;
    o.warmupInstructions = 100000;
    o.measureInstructions = 400000;
    return o;
}

/** One observed live run of @p l2_policy (L1I TPLRU). */
Metrics
observedRun(const trace::SyntheticProgram &program, const char *l2_policy,
            const RunOptions &options, RunTelemetry &telemetry)
{
    return run(program, {replacement::PolicySpec::parse(l2_policy)}, 0,
               replacement::PolicySpec::parse("TPLRU"), options, nullptr,
               &telemetry)
        .front();
}

/** Count "event" values per category in a JSONL trace file. */
std::map<std::string, std::uint64_t>
traceCounts(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::map<std::string, std::uint64_t> counts;
    std::string line;
    while (std::getline(in, line)) {
        const stats::JsonValue event = stats::JsonValue::parse(line);
        const stats::JsonValue *name = event.find("event");
        EXPECT_NE(name, nullptr) << line;
        if (!name)
            continue;
        ++counts[name->asString()];
        // Every event carries a cycle stamp.
        EXPECT_NE(event.find("cycle"), nullptr) << line;
    }
    return counts;
}

TEST(Sampler, CadenceAndToJson)
{
    stats::Sampler sampler(1000);
    EXPECT_TRUE(sampler.enabled());
    EXPECT_FALSE(sampler.due(999));
    EXPECT_TRUE(sampler.due(1000));
    EXPECT_TRUE(sampler.due(1500));

    stats::Sample s;
    s.instructions = 1002;
    s.cycles = 4000;
    s.priorityOccupancy = {10, 5, 1};
    sampler.record(s);
    EXPECT_FALSE(sampler.due(1999));
    EXPECT_TRUE(sampler.due(2000));

    // A burst past a whole interval re-anchors the cadence one full
    // interval after the recorded point (no stale-sample backlog).
    s.instructions = 3100;
    sampler.record(s);
    EXPECT_FALSE(sampler.due(4099));
    EXPECT_TRUE(sampler.due(4100));

    const stats::JsonValue doc = sampler.toJson();
    EXPECT_EQ(doc.find("interval")->asUint(), 1000u);
    EXPECT_EQ(doc.find("samples")->size(), 2u);
    const stats::JsonValue &first = doc.find("samples")->at(0);
    EXPECT_EQ(first.find("instructions")->asUint(), 1002u);
    EXPECT_EQ(first.find("priority_occupancy")->size(), 3u);

    sampler.reset();
    EXPECT_TRUE(sampler.samples().empty());
    EXPECT_TRUE(sampler.due(1000));

    EXPECT_FALSE(stats::Sampler().enabled());
    EXPECT_FALSE(stats::Sampler().due(1u << 30));
}

TEST(Observability, SamplerSnapshotsDuringRun)
{
    const trace::SyntheticProgram program(hostileProfile());
    RunTelemetry instr;
    instr.sampleInterval = 100000;

    const Metrics m =
        observedRun(program, "P(8):S&E&R(1/32)", window(), instr);

    // 400k measured instructions at 100k cadence: 4 samples (the
    // acceptance bar is >= 2).
    const auto &samples = instr.sampler.samples();
    ASSERT_GE(samples.size(), 2u);
    std::uint64_t previous = 0;
    for (const stats::Sample &s : samples) {
        EXPECT_GT(s.instructions, previous);
        previous = s.instructions;
        EXPECT_GT(s.cycles, 0u);
        EXPECT_FALSE(s.counters.empty());
        // Occupancy histogram spans 0..ways and covers every L2 set.
        ASSERT_EQ(s.priorityOccupancy.size(), 17u);
        std::uint64_t sets = 0;
        for (const std::uint64_t n : s.priorityOccupancy)
            sets += n;
        EXPECT_EQ(sets, 1024u);
    }
    // Counters are cumulative within the window: the last snapshot
    // cannot exceed the end-of-window registry.
    const auto &last = samples.back();
    for (const auto &[name, value] : last.counters)
        EXPECT_LE(value, instr.registries.front().value(name)) << name;
    EXPECT_EQ(instr.registries.front().value("backend.committed"),
              m.instructions);
    EXPECT_GT(instr.wallSeconds, 0.0);
}

TEST(Observability, TraceReconcilesWithRegistry)
{
    const std::string path =
        ::testing::TempDir() + "test_observability_trace.jsonl";
    const trace::SyntheticProgram program(hostileProfile());

    stats::TraceSink sink(path);
    RunTelemetry instr;
    instr.traceSink = &sink;
    observedRun(program, "P(8):S&E&R(1/32)", window(), instr);
    sink.close();

    // Replay check: per-category event counts in the file must equal
    // both the sink's own accounting and the registry counter each
    // category maps to. Exact, not approximate.
    const auto replayed = traceCounts(path);
    std::uint64_t total = 0;
    for (const TraceCategory &category : traceCategories()) {
        const std::uint64_t in_file =
            replayed.count(category.name)
                ? replayed.at(category.name)
                : 0;
        EXPECT_EQ(in_file, sink.count(category.name))
            << category.name;
        EXPECT_EQ(in_file, instr.registries.front().value(category.counter))
            << category.name << " vs " << category.counter;
        total += in_file;
    }
    EXPECT_EQ(total, sink.totalEvents());
    EXPECT_GT(total, 0u);
    // The file contains no categories beyond the published table.
    for (const auto &[name, n] : replayed)
        EXPECT_FALSE(traceCategoryCounter(name).empty()) << name;
}

TEST(Observability, TraceCategoryFilter)
{
    const std::string path =
        ::testing::TempDir() + "test_observability_filtered.jsonl";
    const trace::SyntheticProgram program(hostileProfile());

    stats::TraceSink sink(path, {"l2_fill"});
    RunTelemetry instr;
    instr.traceSink = &sink;
    observedRun(program, "P(8):S&E&R(1/32)", window(), instr);
    sink.close();

    const auto replayed = traceCounts(path);
    ASSERT_EQ(replayed.size(), 1u);
    EXPECT_EQ(replayed.begin()->first, "l2_fill");
    EXPECT_EQ(replayed.begin()->second,
              instr.registries.front().value("l2.fills"));
}

TEST(Observability, RegistryExportMatchesMetrics)
{
    const trace::SyntheticProgram program(hostileProfile());
    RunTelemetry instr;
    const Metrics m = observedRun(program, "TPLRU", window(), instr);

    EXPECT_EQ(instr.registries.front().value("backend.committed"),
              m.instructions);
    EXPECT_EQ(instr.registries.front().value("l2.priority_upgrades"),
              m.priorityUpgrades);
    EXPECT_GT(instr.registries.front().value("l1i.accesses"), 0u);
    // Fills and evictions are present even under non-EMISSARY
    // policies (the counters are policy-independent).
    EXPECT_GT(instr.registries.front().value("l2.fills"), 0u);

    // Metrics::toJson carries every headline field.
    const stats::JsonValue doc = m.toJson();
    for (const char *key :
         {"benchmark", "policy", "instructions", "cycles", "ipc",
          "l1i_mpki", "l2_inst_mpki", "starvation_cycles", "energy",
          "priority_distribution", "code_footprint_lines"})
        EXPECT_NE(doc.find(key), nullptr) << key;
    EXPECT_EQ(doc.find("instructions")->asUint(), m.instructions);
}

TEST(Observability, UntimedMetricsRoundTripWithNullClockKeys)
{
    // A fused pass: lane 0 keeps the clock, lane 1 is a monitor.
    const trace::SyntheticProgram program(hostileProfile());
    RunOptions o;
    o.warmupInstructions = 20000;
    o.measureInstructions = 60000;
    const std::vector<Metrics> lanes =
        run(program,
            {replacement::PolicySpec::parse("TPLRU"),
             replacement::PolicySpec::parse("LRU")},
            0, replacement::PolicySpec::parse(o.l1iPolicy), o);
    const Metrics &timing = lanes.at(0);
    const Metrics &monitor = lanes.at(1);
    ASSERT_TRUE(timing.timed());
    ASSERT_FALSE(monitor.timed());

    // Exactly the ten clock-derived keys are null.
    const std::set<std::string> clock = {
        "cycles", "ipc", "issue_rate", "decode_rate",
        "starvation_cycles", "starvation_iq_empty_cycles",
        "fe_stall_cycles", "be_stall_cycles", "total_stall_cycles",
        "energy"};
    const stats::JsonValue json = monitor.toJson();
    std::size_t nulls = 0;
    for (const auto &[key, value] : json.members()) {
        EXPECT_EQ(value.isNull(), clock.count(key) == 1) << key;
        nulls += value.isNull() ? 1 : 0;
    }
    EXPECT_EQ(nulls, clock.size());
    EXPECT_GT(json.find("l2_inst_mpki")->asDouble(), 0.0);

    // They read back as 0, and every event field as written.
    const Metrics back = metricsFromJson(json);
    EXPECT_EQ(back.toJson(), json);
    EXPECT_EQ(back.cycles, monitor.cycles);
    EXPECT_EQ(back.ipc, monitor.ipc);
    EXPECT_EQ(back.issueRate, monitor.issueRate);
    EXPECT_EQ(back.decodeRate, monitor.decodeRate);
    EXPECT_EQ(back.starvationCycles, monitor.starvationCycles);
    EXPECT_EQ(back.starvationIqEmptyCycles,
              monitor.starvationIqEmptyCycles);
    EXPECT_EQ(back.feStallCycles, monitor.feStallCycles);
    EXPECT_EQ(back.beStallCycles, monitor.beStallCycles);
    EXPECT_EQ(back.totalStallCycles, monitor.totalStallCycles);
    EXPECT_EQ(back.energy.coreDynamicJ, monitor.energy.coreDynamicJ);
    EXPECT_EQ(back.energy.cacheDynamicJ, monitor.energy.cacheDynamicJ);
    EXPECT_EQ(back.energy.dramJ, monitor.energy.dramJ);
    EXPECT_EQ(back.energy.leakageJ, monitor.energy.leakageJ);
    EXPECT_EQ(metricsFromJson(timing.toJson()).toJson(),
              timing.toJson());

    // null means n/a for an untimed run's clock keys only.
    stats::JsonValue event_null = json;
    *event_null.find("l2_inst_mpki") = stats::JsonValue();
    EXPECT_THROW(metricsFromJson(event_null), std::runtime_error);
    stats::JsonValue partly_null = json;
    *partly_null.find("ipc") = stats::JsonValue(1.5);
    EXPECT_THROW(metricsFromJson(partly_null), std::runtime_error);
    stats::JsonValue timed_null = timing.toJson();
    *timed_null.find("energy") = stats::JsonValue();
    EXPECT_THROW(metricsFromJson(timed_null), std::runtime_error);
}

TEST(Observability, DisabledByDefaultCostsNothing)
{
    const trace::SyntheticProgram program(hostileProfile());
    RunOptions o = window();
    o.measureInstructions = 100000;
    o.warmupInstructions = 50000;

    // Identical results with and without the telemetry struct:
    // observability must not perturb the simulation.
    RunTelemetry instr;
    const Metrics plain =
        runPolicy(program, "P(8):S&E&R(1/32)", o);
    const Metrics observed =
        observedRun(program, "P(8):S&E&R(1/32)", o, instr);
    EXPECT_EQ(plain.cycles, observed.cycles);
    EXPECT_EQ(plain.instructions, observed.instructions);
    EXPECT_TRUE(instr.sampler.samples().empty());
}

} // namespace
} // namespace emissary::core
