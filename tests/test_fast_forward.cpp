/**
 * @file
 * The idle-cycle fast-forward against its oracle.
 *
 * Simulator::run() steps only the cycles in which some stage can act
 * and adds the idle cycles between them in bulk. Here every
 * configuration runs on the same records twice: once through run(),
 * once through a loop of the public stepCycle() that repeats run()'s
 * phase bookkeeping (warming, window reset, sampler, §6 reset, cycle
 * budget). The two must agree on the clock, on every registry
 * counter (including those Metrics never shows: re-steer-empty
 * cycles, starvation notes, starvation cycles by fill source), on
 * the sampler snapshots, byte for byte on the JSONL event trace, and
 * on what every monitor lane of a fused group counts when it replays
 * the pass's miss log.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/lanes.hh"
#include "core/config.hh"
#include "core/observability.hh"
#include "core/simulator.hh"
#include "stats/trace_sink.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "trace/replay.hh"

namespace emissary::core
{
namespace
{

/** One machine configuration, run both ways. */
struct Case
{
    std::string name;
    const char *workload = "tomcat";
    MachineOptions machine;
    /** Monitor lanes of a fused group (none: a plain run). */
    std::vector<std::string> monitors;
    unsigned sampledSets = 0;
    std::uint64_t warmup = 20'000;
    std::uint64_t measure = 60'000;
    std::uint64_t priorityReset = 0;
    std::uint64_t sampleInterval = 0;
    std::uint64_t maxCycles = 0;
};

/** Everything compared between the two ways of running a case. */
struct Outcome
{
    std::string error;
    std::uint64_t now = 0;
    std::uint64_t stepped = 0;
    std::string registry;
    std::string samples;
    std::string trace;
    std::vector<std::string> lanes;
};

Simulator::Config
simConfig(const Case &c)
{
    Simulator::Config config;
    config.machine = alderlakeConfig(c.machine);
    config.warmupInstructions = c.warmup;
    config.measureInstructions = c.measure;
    config.priorityResetInstructions = c.priorityReset;
    config.sampleInterval = c.sampleInterval;
    config.maxCycles = c.maxCycles;
    return config;
}

void
takeSample(Simulator &sim, stats::Sampler &sampler)
{
    stats::Registry registry;
    sim.exportRegistry(registry);
    stats::Sample sample;
    sample.instructions = sim.committed();
    sample.cycles = sim.backend().stats().cycles;
    sample.counters = stats::Sampler::snapshotCounters(registry);
    sample.priorityOccupancy = sim.hierarchy().l2().priorityOccupancy();
    sampler.record(std::move(sample));
}

/** run()'s phases with every cycle stepped. */
void
steppedRun(Simulator &sim, const Simulator::Config &config,
           stats::Sampler &sampler)
{
    const std::uint64_t budget =
        config.maxCycles > 0
            ? config.maxCycles
            : 400 * (config.warmupInstructions +
                     config.measureInstructions) +
                  1'000'000;
    sim.hierarchy().setWarming(true);
    sim.frontEnd().setWarming(true);
    while (sim.committed() < config.warmupInstructions) {
        sim.stepCycle();
        if (sim.now() > budget)
            throw std::runtime_error("Simulator: warm-up exceeded "
                                     "cycle budget");
    }
    sim.hierarchy().setWarming(false);
    sim.frontEnd().setWarming(false);
    sim.hierarchy().stats().reset();
    sim.backend().stats().reset();
    sim.frontEnd().stats().reset();
    if (cache::MissLog *log = sim.hierarchy().missLog())
        log->mark(cache::MissLog::Kind::WindowStart);

    std::uint64_t last_reset = 0;
    while (sim.committed() < config.measureInstructions) {
        sim.stepCycle();
        if (sampler.due(sim.committed()))
            takeSample(sim, sampler);
        if (config.priorityResetInstructions > 0 &&
            sim.committed() - last_reset >=
                config.priorityResetInstructions) {
            sim.hierarchy().resetPriorities();
            last_reset = sim.committed();
        }
        if (sim.now() > budget)
            throw std::runtime_error("Simulator: measurement exceeded "
                                     "cycle budget");
    }
}

std::string
describe(const MetricsInputs &inputs)
{
    stats::Registry registry;
    populateRegistry(registry, inputs.hierarchy, inputs.backend,
                     inputs.frontend);
    std::ostringstream out;
    out.precision(17);
    out << inputs.benchmark << ' ' << inputs.policy << ' '
        << inputs.emissaryBits << ' ' << registryJson(registry).dump(0);
    for (const double fraction : inputs.priorityDistribution)
        out << ' ' << fraction;
    return out.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

Outcome
runCase(const Case &c,
        const std::shared_ptr<const trace::RecordBuffer> &buffer,
        bool stepped)
{
    const Simulator::Config config = simConfig(c);
    cache::MissLog log;

    const std::string trace_path =
        (std::filesystem::path(::testing::TempDir()) /
         ("fast_forward_" + std::to_string(stepped) + ".jsonl"))
            .string();
    trace::ReplayCursor cursor(buffer);
    Simulator sim(config, cursor);
    if (!c.monitors.empty())
        sim.hierarchy().setMissLog(&log);

    Outcome outcome;
    stats::Sampler sampler(config.sampleInterval);
    {
        stats::TraceSink sink(trace_path);
        sim.setTraceSink(&sink);
        try {
            if (stepped)
                steppedRun(sim, config, sampler);
            else
                sim.run();
        } catch (const std::runtime_error &error) {
            outcome.error = error.what();
        }
        sim.setTraceSink(nullptr);
    }
    outcome.trace = readFile(trace_path);
    std::filesystem::remove(trace_path);

    outcome.now = sim.now();
    outcome.stepped = sim.steppedCycles();
    stats::Registry registry;
    sim.exportRegistry(registry);
    outcome.registry = registryJson(registry).dump(0);
    outcome.samples =
        (stepped ? sampler : sim.sampler()).toJson().dump(0);
    outcome.lanes.push_back(describe(sim.collect()));
    for (const std::string &policy : c.monitors) {
        cache::MonitorLane lane(config.machine.hierarchy,
                                replacement::PolicySpec::parse(policy),
                                c.sampledSets);
        lane.replay(log);
        MetricsInputs inputs;
        inputs.policy = lane.l2().policy().name();
        inputs.hierarchy = lane.stats(sim.hierarchy().stats());
        const auto hist = lane.l2().priorityDistribution();
        for (std::size_t i = 0; i < hist.domain(); ++i)
            inputs.priorityDistribution.push_back(hist.fraction(i));
        outcome.lanes.push_back(describe(inputs));
    }
    return outcome;
}

std::vector<Case>
cases()
{
    std::vector<Case> all;
    const auto add = [&all](std::string name, const char *workload,
                            const std::string &l2_policy) -> Case & {
        Case c;
        c.name = std::move(name);
        c.workload = workload;
        c.machine.l2Policy = l2_policy;
        all.push_back(c);
        return all.back();
    };
    add("baseline", "tomcat", "TPLRU");
    add("sampler", "verilator", "P(8):S&E").sampleInterval = 7'000;
    add("fdip-off", "tomcat", "TPLRU").machine.fdip = false;
    add("nlp-off", "tomcat", "P(8):S&E").machine.nextLinePrefetch =
        false;
    Case &ideal = add("ideal-l2i", "tomcat", "TPLRU");
    ideal.machine.idealL2Inst = true;
    ideal.warmup = 100'000;
    ideal.measure = 300'000;
    add("bypass", "kafka", "P(8):S&E").machine.bypassLowPriorityInst =
        true;
    add("priority-reset", "tomcat", "P(8):S&E").priorityReset = 9'000;
    add("emissary-l1i", "verilator", "TPLRU").machine.l1iPolicy =
        "P(8):S&E";
    add("fused", "tomcat", "P(8):S&E").monitors = {"TPLRU", "M:R(1/32)",
                                                  "DRRIP"};
    Case &sampled = add("sampled-1in8", "kafka", "TPLRU");
    sampled.monitors = {"P(8):S&E", "LRU"};
    sampled.sampledSets = 8;
    // Cycle budgets that run out inside the measurement window, in
    // consecutive cycles, so some fall inside an idle stretch.
    for (std::uint64_t cap = 150'000; cap < 150'004; ++cap)
        add("max-cycles-" + std::to_string(cap), "verilator",
            "P(8):S&E")
            .maxCycles = cap;
    return all;
}

TEST(FastForward, RunMatchesSteppingEveryCycle)
{
    for (const Case &c : cases()) {
        SCOPED_TRACE(c.name);
        const trace::SyntheticProgram program(
            trace::profileByName(c.workload));
        const auto buffer = std::make_shared<const trace::RecordBuffer>(
            program, trace::RecordBuffer::recordsForWindow(c.warmup +
                                                           c.measure));

        const Outcome fast = runCase(c, buffer, false);
        const Outcome oracle = runCase(c, buffer, true);

        EXPECT_EQ(fast.error, oracle.error);
        EXPECT_EQ(fast.now, oracle.now);
        EXPECT_EQ(oracle.stepped, oracle.now);
        EXPECT_EQ(fast.registry, oracle.registry);
        EXPECT_EQ(fast.samples, oracle.samples);
        EXPECT_TRUE(fast.trace == oracle.trace)
            << "event traces differ (" << fast.trace.size() << " vs "
            << oracle.trace.size() << " bytes)";
        EXPECT_EQ(fast.lanes, oracle.lanes);

        if (c.maxCycles > 0) {
            EXPECT_EQ(fast.error, "Simulator: measurement exceeded "
                                  "cycle budget");
            EXPECT_EQ(fast.now, c.maxCycles + 1);
        } else {
            EXPECT_EQ(fast.error, "");
            // The window is long enough to starve: the fast path
            // skipped cycles and the trace saw starvation events.
            EXPECT_LT(fast.stepped, fast.now);
            EXPECT_NE(fast.trace.find("\"starvation\""),
                      std::string::npos);
        }
        if (c.sampleInterval > 0) {
            EXPECT_GT(oracle.samples.size(), 100u);
        }
    }
}

} // namespace
} // namespace emissary::core
