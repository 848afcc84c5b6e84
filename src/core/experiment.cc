#include "core/experiment.hh"

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>

#include "cache/lanes.hh"
#include "stats/json.hh"

#include "core/observability.hh"
#include "core/simulator.hh"
#include "core/threadpool.hh"
#include "stats/span_recorder.hh"
#include "trace/executor.hh"
#include "util/strutil.hh"

namespace emissary::core
{

Metrics
runPolicy(const trace::SyntheticProgram &program,
          const std::string &l2_policy, const RunOptions &options)
{
    return runPolicy(program,
                     replacement::PolicySpec::parse(l2_policy),
                     replacement::PolicySpec::parse(options.l1iPolicy),
                     options);
}

Metrics
runPolicy(const trace::SyntheticProgram &program,
          const replacement::PolicySpec &l2_spec,
          const replacement::PolicySpec &l1i_spec,
          const RunOptions &options)
{
    return runPolicy(program, l2_spec, l1i_spec, options, nullptr);
}

namespace
{

/**
 * Shared body of the live and replay overloads: configure the
 * machine, run the simulator over @p source, and harvest
 * instrumentation. codeFootprintLines is filled by the caller —
 * it comes from the executor (live) or the cursor (replay).
 */
Metrics
runOverSource(trace::TraceSource &source,
              const replacement::PolicySpec &l2_spec,
              const replacement::PolicySpec &l1i_spec,
              const RunOptions &options,
              RunInstrumentation *instrumentation,
              RunTelemetry *telemetry)
{
    MachineOptions machine_options;
    machine_options.l2Spec = l2_spec;
    machine_options.l1iSpec = l1i_spec;
    machine_options.l2Policy = l2_spec.toString();
    machine_options.l1iPolicy = l1i_spec.toString();
    machine_options.emissaryTreePlru = options.emissaryTreePlru;
    machine_options.bypassLowPriorityInst =
        options.bypassLowPriorityInst;
    machine_options.fdip = options.fdip;
    machine_options.nextLinePrefetch = options.nextLinePrefetch;
    machine_options.idealL2Inst = options.idealL2Inst;
    machine_options.seed = options.seed;

    Simulator::Config sim_config;
    sim_config.machine = alderlakeConfig(machine_options);
    sim_config.warmupInstructions = options.warmupInstructions;
    sim_config.measureInstructions = options.measureInstructions;
    sim_config.priorityResetInstructions =
        options.priorityResetInstructions;
    if (instrumentation)
        sim_config.sampleInterval = instrumentation->sampleInterval;

    Simulator simulator(sim_config, source);
    if (instrumentation && instrumentation->traceSink)
        simulator.setTraceSink(instrumentation->traceSink);

    const auto start = std::chrono::steady_clock::now();
    // Phase boundary: the simulator fires this exactly when the
    // warm-up counters reset and the measurement window opens.
    auto measure_start = start;
    if (telemetry)
        simulator.setOnMeasureStart([&measure_start]() {
            measure_start = std::chrono::steady_clock::now();
        });
    Metrics metrics = simulator.run();
    const auto stop = std::chrono::steady_clock::now();

    if (instrumentation) {
        simulator.exportRegistry(instrumentation->registry);
        instrumentation->sampler = simulator.sampler();
        instrumentation->wallSeconds =
            std::chrono::duration<double>(stop - start).count();
    }

    if (telemetry) {
        const auto harvested = std::chrono::steady_clock::now();
        telemetry->warmupSeconds =
            std::chrono::duration<double>(measure_start - start)
                .count();
        telemetry->measureSeconds =
            std::chrono::duration<double>(stop - measure_start)
                .count();
        telemetry->statExportSeconds =
            std::chrono::duration<double>(harvested - stop).count();
        if (stats::SpanRecorder *recorder = telemetry->spans) {
            recorder->recordSpan("warmup", recorder->toNs(start),
                                 recorder->toNs(measure_start));
            recorder->recordSpan("measure",
                                 recorder->toNs(measure_start),
                                 recorder->toNs(stop));
            recorder->recordSpan("stat_export", recorder->toNs(stop),
                                 recorder->toNs(harvested));
        }
        if (const auto *emissary =
                dynamic_cast<const replacement::EmissaryPolicy *>(
                    &simulator.hierarchy().l2().policy()))
            telemetry->l2SameRunRange = emissary->sameRunRange();
    }
    return metrics;
}

/**
 * Shared body of the fused-group overloads: lane 0 runs the timing
 * Hierarchy, the rest observe as monitor lanes.
 */
std::vector<Metrics>
groupOverSource(trace::TraceSource &source,
                const std::vector<replacement::PolicySpec> &l2_specs,
                const replacement::PolicySpec &l1i_spec,
                const RunOptions &options,
                std::vector<stats::Registry> *registries,
                RunTelemetry *telemetry)
{
    if (l2_specs.empty())
        throw std::invalid_argument("runPolicyGroup: no policies");

    MachineOptions machine_options;
    machine_options.l2Spec = l2_specs.front();
    machine_options.l1iSpec = l1i_spec;
    machine_options.l2Policy = l2_specs.front().toString();
    machine_options.l1iPolicy = l1i_spec.toString();
    machine_options.emissaryTreePlru = options.emissaryTreePlru;
    machine_options.bypassLowPriorityInst =
        options.bypassLowPriorityInst;
    machine_options.fdip = options.fdip;
    machine_options.nextLinePrefetch = options.nextLinePrefetch;
    machine_options.idealL2Inst = options.idealL2Inst;
    machine_options.seed = options.seed;

    Simulator::Config sim_config;
    sim_config.machine = alderlakeConfig(machine_options);
    sim_config.warmupInstructions = options.warmupInstructions;
    sim_config.measureInstructions = options.measureInstructions;
    sim_config.priorityResetInstructions =
        options.priorityResetInstructions;

    // Monitor lanes for every spec past the first. The option knob
    // alderlakeConfig applies to the timing spec must reach them the
    // same way.
    std::vector<replacement::PolicySpec> monitor_specs(
        l2_specs.begin() + 1, l2_specs.end());
    for (replacement::PolicySpec &spec : monitor_specs)
        spec.emissaryTreePlru = options.emissaryTreePlru;
    std::unique_ptr<cache::PolicyLaneBank> bank;
    if (!monitor_specs.empty())
        bank = std::make_unique<cache::PolicyLaneBank>(
            sim_config.machine.hierarchy, monitor_specs,
            options.sampledSets);

    Simulator simulator(sim_config, source);
    if (bank)
        simulator.hierarchy().setLanes(bank.get());

    const auto start = std::chrono::steady_clock::now();
    auto measure_start = start;
    if (telemetry)
        simulator.setOnMeasureStart([&measure_start]() {
            measure_start = std::chrono::steady_clock::now();
        });

    std::vector<Metrics> metrics;
    metrics.reserve(l2_specs.size());
    metrics.push_back(simulator.run());
    for (unsigned lane = 0; lane + 1 < l2_specs.size(); ++lane)
        metrics.push_back(simulator.collectLane(lane));
    const auto stop = std::chrono::steady_clock::now();

    if (registries) {
        registries->clear();
        registries->resize(l2_specs.size());
        simulator.exportRegistry((*registries)[0]);
        for (unsigned lane = 0; lane + 1 < l2_specs.size(); ++lane)
            simulator.exportLaneRegistry(lane,
                                         (*registries)[lane + 1]);
    }

    if (telemetry) {
        const auto harvested = std::chrono::steady_clock::now();
        telemetry->warmupSeconds =
            std::chrono::duration<double>(measure_start - start)
                .count();
        telemetry->measureSeconds =
            std::chrono::duration<double>(stop - measure_start)
                .count();
        telemetry->statExportSeconds =
            std::chrono::duration<double>(harvested - stop).count();
        if (stats::SpanRecorder *recorder = telemetry->spans) {
            recorder->recordSpan("warmup", recorder->toNs(start),
                                 recorder->toNs(measure_start));
            recorder->recordSpan("measure",
                                 recorder->toNs(measure_start),
                                 recorder->toNs(stop));
            recorder->recordSpan("stat_export", recorder->toNs(stop),
                                 recorder->toNs(harvested));
        }
    }
    return metrics;
}

} // namespace

std::vector<Metrics>
runPolicyGroup(std::shared_ptr<const trace::RecordBuffer> buffer,
               const std::vector<replacement::PolicySpec> &l2_specs,
               const replacement::PolicySpec &l1i_spec,
               const RunOptions &options,
               std::vector<stats::Registry> *registries,
               RunTelemetry *telemetry)
{
    trace::ReplayCursor cursor(std::move(buffer));
    std::vector<Metrics> metrics =
        groupOverSource(cursor, l2_specs, l1i_spec, options,
                        registries, telemetry);
    for (Metrics &m : metrics)
        m.codeFootprintLines = cursor.uniqueCodeLines();
    return metrics;
}

std::vector<Metrics>
runPolicyGroup(const trace::SyntheticProgram &program,
               const std::vector<replacement::PolicySpec> &l2_specs,
               const replacement::PolicySpec &l1i_spec,
               const RunOptions &options,
               std::vector<stats::Registry> *registries,
               RunTelemetry *telemetry)
{
    trace::SyntheticExecutor executor(program);
    std::vector<Metrics> metrics =
        groupOverSource(executor, l2_specs, l1i_spec, options,
                        registries, telemetry);
    for (Metrics &m : metrics)
        m.codeFootprintLines = executor.uniqueCodeLines();
    return metrics;
}

std::vector<Metrics>
runPolicyGroup(trace::TraceSource &source,
               const std::vector<replacement::PolicySpec> &l2_specs,
               const replacement::PolicySpec &l1i_spec,
               const RunOptions &options,
               std::vector<stats::Registry> *registries,
               RunTelemetry *telemetry)
{
    return groupOverSource(source, l2_specs, l1i_spec, options,
                           registries, telemetry);
}

Metrics
runPolicy(const trace::SyntheticProgram &program,
          const replacement::PolicySpec &l2_spec,
          const replacement::PolicySpec &l1i_spec,
          const RunOptions &options,
          RunInstrumentation *instrumentation,
          RunTelemetry *telemetry)
{
    // A fresh executor with the profile's own seed: every policy run
    // for this benchmark replays the identical committed path.
    trace::SyntheticExecutor executor(program);
    Metrics metrics = runOverSource(executor, l2_spec, l1i_spec,
                                    options, instrumentation,
                                    telemetry);
    metrics.codeFootprintLines = executor.uniqueCodeLines();
    return metrics;
}

Metrics
runPolicy(std::shared_ptr<const trace::RecordBuffer> buffer,
          const replacement::PolicySpec &l2_spec,
          const replacement::PolicySpec &l1i_spec,
          const RunOptions &options,
          RunInstrumentation *instrumentation,
          RunTelemetry *telemetry)
{
    trace::ReplayCursor cursor(std::move(buffer));
    Metrics metrics = runOverSource(cursor, l2_spec, l1i_spec,
                                    options, instrumentation,
                                    telemetry);
    metrics.codeFootprintLines = cursor.uniqueCodeLines();
    return metrics;
}

Metrics
runPolicy(trace::TraceSource &source,
          const replacement::PolicySpec &l2_spec,
          const replacement::PolicySpec &l1i_spec,
          const RunOptions &options,
          RunInstrumentation *instrumentation,
          RunTelemetry *telemetry)
{
    return runOverSource(source, l2_spec, l1i_spec, options,
                         instrumentation, telemetry);
}

namespace
{

/** One time-parallel chunk's bounds over the record stream: replay
 *  starts at startRecord, warms over the first warmup records in
 *  functional-warming mode, then measures the next measure records. */
struct ChunkPlan
{
    std::uint64_t startRecord = 0;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
};

/**
 * Split the (warmup U, measure M) window of @p options into
 * effective-T contiguous measure slices. Chunk 0 keeps the run's own
 * warmup and so reproduces the sequential prefix exactly; chunk i>0
 * starts its measure slice at absolute record U + sum(earlier
 * slices) and is preceded by an overlapped warming prefix of
 * min(chunkWarmupRecords, records before the slice). T collapses to
 * M when the window is shorter than the chunk count, so every slice
 * measures at least one record.
 */
std::vector<ChunkPlan>
planChunks(const RunOptions &options)
{
    const std::uint64_t warmup = options.warmupInstructions;
    const std::uint64_t measure = options.measureInstructions;
    const std::uint64_t chunks = std::min<std::uint64_t>(
        std::max(1u, options.timeChunks), measure > 0 ? measure : 1);

    std::vector<ChunkPlan> plans;
    plans.reserve(static_cast<std::size_t>(chunks));
    std::uint64_t consumed = 0;
    for (std::uint64_t i = 0; i < chunks; ++i) {
        const std::uint64_t len =
            measure / chunks + (i < measure % chunks ? 1 : 0);
        if (i == 0) {
            plans.push_back({0, warmup, len});
        } else {
            const std::uint64_t slice_start = warmup + consumed;
            const std::uint64_t prefix =
                std::min(options.chunkWarmupRecords, slice_start);
            plans.push_back({slice_start - prefix, prefix, len});
        }
        consumed += len;
    }
    return plans;
}

/** One policy lane's raw counters out of one chunk. */
struct LaneChunk
{
    std::string policy;
    cache::HierarchyStats hierarchy;
    std::uint64_t windowCycles = 0;
    std::uint64_t starvationCycles = 0;
    std::uint64_t starvationIqEmptyCycles = 0;
    std::vector<double> priorityDistribution;
};

/**
 * Everything one chunk's simulation contributes to the splice: the
 * timing lane's raw stats structs plus, for group runs, each monitor
 * lane's view. Raw counters (not Metrics) so the splice can sum them
 * and derive rates once over the whole window.
 */
struct ChunkResult
{
    std::string benchmark;
    std::string policy;
    cache::HierarchyStats hierarchy;
    backend::BackendStats backend;
    frontend::FrontEndStats frontend;
    std::uint64_t windowCycles = 0;
    std::vector<double> priorityDistribution;
    std::vector<LaneChunk> lanes;
    /** Footprint bitmap of the records this chunk's cursor served
     *  (buffer-backed synthetic workloads only; empty otherwise). */
    std::vector<std::uint64_t> touchedBitmap;
    double warmupSeconds = 0.0;
    double measureSeconds = 0.0;
    double statExportSeconds = 0.0;
};

/**
 * Simulate one chunk: a full groupOverSource-style machine over
 * @p source with the chunk's own (warmup, measure) window, harvesting
 * raw stats instead of composed Metrics. Chunks never touch shared
 * state, so any pool worker can run any chunk in any order.
 */
ChunkResult
runChunk(trace::TraceSource &source,
         const std::vector<replacement::PolicySpec> &l2_specs,
         const replacement::PolicySpec &l1i_spec,
         const RunOptions &options, const ChunkPlan &plan,
         stats::SpanRecorder *spans)
{
    MachineOptions machine_options;
    machine_options.l2Spec = l2_specs.front();
    machine_options.l1iSpec = l1i_spec;
    machine_options.l2Policy = l2_specs.front().toString();
    machine_options.l1iPolicy = l1i_spec.toString();
    machine_options.emissaryTreePlru = options.emissaryTreePlru;
    machine_options.bypassLowPriorityInst =
        options.bypassLowPriorityInst;
    machine_options.fdip = options.fdip;
    machine_options.nextLinePrefetch = options.nextLinePrefetch;
    machine_options.idealL2Inst = options.idealL2Inst;
    machine_options.seed = options.seed;

    Simulator::Config sim_config;
    sim_config.machine = alderlakeConfig(machine_options);
    sim_config.warmupInstructions = plan.warmup;
    sim_config.measureInstructions = plan.measure;
    sim_config.priorityResetInstructions =
        options.priorityResetInstructions;

    std::vector<replacement::PolicySpec> monitor_specs(
        l2_specs.begin() + 1, l2_specs.end());
    for (replacement::PolicySpec &spec : monitor_specs)
        spec.emissaryTreePlru = options.emissaryTreePlru;
    std::unique_ptr<cache::PolicyLaneBank> bank;
    if (!monitor_specs.empty())
        bank = std::make_unique<cache::PolicyLaneBank>(
            sim_config.machine.hierarchy, monitor_specs,
            options.sampledSets);

    Simulator simulator(sim_config, source);
    if (bank)
        simulator.hierarchy().setLanes(bank.get());

    const auto start = std::chrono::steady_clock::now();
    auto measure_start = start;
    simulator.setOnMeasureStart([&measure_start]() {
        measure_start = std::chrono::steady_clock::now();
    });
    simulator.run();
    const auto stop = std::chrono::steady_clock::now();

    ChunkResult result;
    result.benchmark = source.name();
    result.policy = simulator.hierarchy().l2().policy().name();
    result.hierarchy = simulator.hierarchy().stats();
    result.backend = simulator.backend().stats();
    result.frontend = simulator.frontEnd().stats();
    result.windowCycles = simulator.lastWindowCycles();

    const auto hist =
        simulator.hierarchy().l2().priorityDistribution();
    result.priorityDistribution.resize(hist.domain());
    for (std::size_t i = 0; i < hist.domain(); ++i)
        result.priorityDistribution[i] = hist.fraction(i);

    if (bank) {
        result.lanes.resize(monitor_specs.size());
        for (unsigned lane = 0; lane < monitor_specs.size(); ++lane) {
            LaneChunk &lc = result.lanes[lane];
            lc.policy = bank->l2(lane).policy().name();
            lc.hierarchy =
                bank->laneStats(lane, simulator.hierarchy().stats());
            const std::int64_t cycles =
                static_cast<std::int64_t>(
                    simulator.lastWindowCycles()) +
                bank->cycleDelta(lane);
            lc.windowCycles =
                cycles > 0 ? static_cast<std::uint64_t>(cycles)
                           : simulator.lastWindowCycles();
            lc.starvationCycles = bank->estStarvationCycles(lane);
            lc.starvationIqEmptyCycles =
                bank->estStarvationIqEmptyCycles(lane);
            const auto lane_hist =
                bank->l2(lane).priorityDistribution();
            lc.priorityDistribution.resize(lane_hist.domain());
            for (std::size_t i = 0; i < lane_hist.domain(); ++i)
                lc.priorityDistribution[i] = lane_hist.fraction(i);
        }
    }

    const auto harvested = std::chrono::steady_clock::now();
    result.warmupSeconds =
        std::chrono::duration<double>(measure_start - start).count();
    result.measureSeconds =
        std::chrono::duration<double>(stop - measure_start).count();
    result.statExportSeconds =
        std::chrono::duration<double>(harvested - stop).count();
    if (spans) {
        std::vector<std::pair<std::string, stats::JsonValue>> args;
        args.emplace_back("start_record",
                          stats::JsonValue(plan.startRecord));
        args.emplace_back("warmup_records",
                          stats::JsonValue(plan.warmup));
        args.emplace_back("measure_records",
                          stats::JsonValue(plan.measure));
        spans->recordSpan("chunk", spans->toNs(start),
                          spans->toNs(harvested), std::move(args));
    }
    return result;
}

/**
 * The shared time-parallel engine: plan the chunks, fan them out on
 * @p pool (the calling thread helps instead of blocking, so nesting
 * inside a grid job cannot deadlock the pool), then splice the
 * per-chunk counters in chunk-index order — which makes the result
 * independent of worker count and completion order.
 */
std::vector<Metrics>
timeParallelOverChunks(
    const ChunkSourceFactory &open_source, bool track_footprint,
    const std::vector<replacement::PolicySpec> &l2_specs,
    const replacement::PolicySpec &l1i_spec,
    const RunOptions &options, ThreadPool &pool,
    RunInstrumentation *instrumentation,
    std::vector<stats::Registry> *registries,
    RunTelemetry *telemetry)
{
    if (l2_specs.empty())
        throw std::invalid_argument(
            "runPolicyTimeParallel: no policies");

    const std::vector<ChunkPlan> plans = planChunks(options);
    stats::SpanRecorder *spans =
        telemetry ? telemetry->spans : nullptr;

    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<ChunkResult> chunks(plans.size());
    std::atomic<std::size_t> done{0};
    std::vector<std::future<void>> futures;
    futures.reserve(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
        futures.push_back(pool.submit([&, i]() {
            // Count completion on every exit path (including throw),
            // or helpWhile below would spin forever on a failed
            // chunk.
            struct Done
            {
                std::atomic<std::size_t> &counter;
                ~Done()
                {
                    counter.fetch_add(1, std::memory_order_release);
                }
            } mark{done};
            std::unique_ptr<trace::TraceSource> source =
                open_source(plans[i].startRecord);
            chunks[i] = runChunk(*source, l2_specs, l1i_spec,
                                 options, plans[i], spans);
            if (track_footprint) {
                if (auto *cursor =
                        dynamic_cast<trace::ReplayCursor *>(
                            source.get()))
                    chunks[i].touchedBitmap =
                        cursor->touchedBitmap();
            }
        }));
    }
    pool.helpWhile([&]() {
        return done.load(std::memory_order_acquire) < plans.size();
    });
    for (std::future<void> &future : futures)
        future.get();
    const auto wall_stop = std::chrono::steady_clock::now();

    // Splice, lane-major: lane 0 is the timing lane, lane k > 0 is
    // monitor lane k-1 of every chunk.
    const std::size_t lane_count = l2_specs.size();
    std::vector<Metrics> metrics;
    metrics.reserve(lane_count);
    if (registries) {
        registries->clear();
        registries->resize(lane_count);
    }

    // Union of the chunks' footprint bitmaps (synthetic buffers
    // only): chunk windows overlap on warming prefixes, so summing
    // per-chunk counts would double-count; the bitmap OR does not.
    std::uint64_t footprint = 0;
    if (track_footprint) {
        std::vector<std::uint64_t> merged;
        for (const ChunkResult &chunk : chunks) {
            if (merged.size() < chunk.touchedBitmap.size())
                merged.resize(chunk.touchedBitmap.size(), 0);
            for (std::size_t w = 0; w < chunk.touchedBitmap.size();
                 ++w)
                merged[w] |= chunk.touchedBitmap[w];
        }
        for (const std::uint64_t word : merged)
            footprint += static_cast<std::uint64_t>(
                std::popcount(word));
    }

    double warmup_seconds = 0.0;
    double measure_seconds = 0.0;
    double stat_export_seconds = 0.0;
    for (const ChunkResult &chunk : chunks) {
        warmup_seconds += chunk.warmupSeconds;
        measure_seconds += chunk.measureSeconds;
        stat_export_seconds += chunk.statExportSeconds;
    }

    for (std::size_t lane = 0; lane < lane_count; ++lane) {
        MetricsInputs inputs;
        inputs.benchmark = chunks.front().benchmark;
        inputs.emissaryBits =
            l2_specs[lane].family ==
            replacement::PolicyFamily::EmissaryP;

        backend::BackendStats backend_sum;
        frontend::FrontEndStats frontend_sum;
        for (const ChunkResult &chunk : chunks) {
            backend_sum += chunk.backend;
            frontend_sum += chunk.frontend;
            if (lane == 0) {
                inputs.hierarchy += chunk.hierarchy;
                inputs.windowCycles += chunk.windowCycles;
                inputs.starvationCycles +=
                    chunk.backend.starvationCycles;
                inputs.starvationIqEmptyCycles +=
                    chunk.backend.starvationIqEmptyCycles;
            } else {
                const LaneChunk &lc = chunk.lanes[lane - 1];
                inputs.hierarchy += lc.hierarchy;
                inputs.windowCycles += lc.windowCycles;
                inputs.starvationCycles += lc.starvationCycles;
                inputs.starvationIqEmptyCycles +=
                    lc.starvationIqEmptyCycles;
            }
        }
        inputs.backend = backend_sum;
        inputs.frontend = frontend_sum;
        // The priority-bit census is occupancy, not a flow count:
        // the last chunk's end state stands for the window's end
        // state, exactly as a sequential run reports its own end
        // state.
        const ChunkResult &last = chunks.back();
        inputs.policy = lane == 0 ? last.policy
                                  : last.lanes[lane - 1].policy;
        inputs.priorityDistribution =
            lane == 0 ? last.priorityDistribution
                      : last.lanes[lane - 1].priorityDistribution;

        Metrics m = composeMetrics(inputs);
        m.codeFootprintLines = footprint;
        if (registries)
            populateRegistry((*registries)[lane], inputs.hierarchy,
                             backend_sum, frontend_sum);
        if (lane == 0 && instrumentation)
            populateRegistry(instrumentation->registry,
                             inputs.hierarchy, backend_sum,
                             frontend_sum);
        metrics.push_back(std::move(m));
    }

    if (instrumentation)
        instrumentation->wallSeconds =
            std::chrono::duration<double>(wall_stop - wall_start)
                .count();
    if (telemetry) {
        // Phase seconds are summed across chunks (CPU seconds, not
        // wall seconds): the grid's per-phase totals stay comparable
        // with sequential cells, and wall time is what the cell span
        // itself measures.
        telemetry->warmupSeconds = warmup_seconds;
        telemetry->measureSeconds = measure_seconds;
        telemetry->statExportSeconds = stat_export_seconds;
    }
    return metrics;
}

} // namespace

Metrics
runPolicyTimeParallel(
    std::shared_ptr<const trace::RecordBuffer> buffer,
    const replacement::PolicySpec &l2_spec,
    const replacement::PolicySpec &l1i_spec,
    const RunOptions &options, ThreadPool &pool,
    RunInstrumentation *instrumentation, RunTelemetry *telemetry)
{
    if (options.timeChunks <= 1)
        return runPolicy(std::move(buffer), l2_spec, l1i_spec,
                         options, instrumentation, telemetry);
    const bool synthetic = buffer->synthetic();
    ChunkSourceFactory open_source =
        [buffer](std::uint64_t start_record) {
            return std::make_unique<trace::ReplayCursor>(
                buffer, start_record);
        };
    std::vector<Metrics> metrics = timeParallelOverChunks(
        open_source, synthetic, {l2_spec}, l1i_spec, options, pool,
        instrumentation, nullptr, telemetry);
    return std::move(metrics.front());
}

Metrics
runPolicyTimeParallel(const ChunkSourceFactory &chunk_source,
                      const replacement::PolicySpec &l2_spec,
                      const replacement::PolicySpec &l1i_spec,
                      const RunOptions &options, ThreadPool &pool,
                      RunInstrumentation *instrumentation,
                      RunTelemetry *telemetry)
{
    if (options.timeChunks <= 1) {
        std::unique_ptr<trace::TraceSource> source = chunk_source(0);
        return runPolicy(*source, l2_spec, l1i_spec, options,
                         instrumentation, telemetry);
    }
    std::vector<Metrics> metrics = timeParallelOverChunks(
        chunk_source, false, {l2_spec}, l1i_spec, options, pool,
        instrumentation, nullptr, telemetry);
    return std::move(metrics.front());
}

std::vector<Metrics>
runPolicyGroupTimeParallel(
    std::shared_ptr<const trace::RecordBuffer> buffer,
    const std::vector<replacement::PolicySpec> &l2_specs,
    const replacement::PolicySpec &l1i_spec,
    const RunOptions &options, ThreadPool &pool,
    std::vector<stats::Registry> *registries,
    RunTelemetry *telemetry)
{
    if (options.timeChunks <= 1)
        return runPolicyGroup(std::move(buffer), l2_specs, l1i_spec,
                              options, registries, telemetry);
    const bool synthetic = buffer->synthetic();
    ChunkSourceFactory open_source =
        [buffer](std::uint64_t start_record) {
            return std::make_unique<trace::ReplayCursor>(
                buffer, start_record);
        };
    return timeParallelOverChunks(open_source, synthetic, l2_specs,
                                  l1i_spec, options, pool, nullptr,
                                  registries, telemetry);
}

std::vector<Metrics>
runPolicyGroupTimeParallel(
    const ChunkSourceFactory &chunk_source,
    const std::vector<replacement::PolicySpec> &l2_specs,
    const replacement::PolicySpec &l1i_spec,
    const RunOptions &options, ThreadPool &pool,
    std::vector<stats::Registry> *registries,
    RunTelemetry *telemetry)
{
    if (options.timeChunks <= 1) {
        std::unique_ptr<trace::TraceSource> source = chunk_source(0);
        return runPolicyGroup(*source, l2_specs, l1i_spec, options,
                              registries, telemetry);
    }
    return timeParallelOverChunks(chunk_source, false, l2_specs,
                                  l1i_spec, options, pool, nullptr,
                                  registries, telemetry);
}

std::string
canonicalRunOptions(const RunOptions &options)
{
    using stats::JsonValue;
    JsonValue doc = JsonValue::object();
    doc.set("warmup_instructions",
            JsonValue(options.warmupInstructions));
    doc.set("measure_instructions",
            JsonValue(options.measureInstructions));
    doc.set("fdip", JsonValue(options.fdip));
    doc.set("next_line_prefetch",
            JsonValue(options.nextLinePrefetch));
    doc.set("ideal_l2_inst", JsonValue(options.idealL2Inst));
    doc.set("emissary_tree_plru",
            JsonValue(options.emissaryTreePlru));
    doc.set("l1i_policy", JsonValue(options.l1iPolicy));
    doc.set("bypass_low_priority_inst",
            JsonValue(options.bypassLowPriorityInst));
    doc.set("priority_reset_instructions",
            JsonValue(options.priorityResetInstructions));
    doc.set("seed", JsonValue(options.seed));
    doc.set("sampled_sets",
            JsonValue(
                static_cast<std::uint64_t>(options.sampledSets)));
    // Normalised so every sequential spelling (timeChunks 0 or 1,
    // any warmup value) maps to one identity: the warmup knob only
    // shapes results when the window is actually chunked.
    const bool chunked = options.timeChunks > 1;
    doc.set("time_chunks",
            JsonValue(static_cast<std::uint64_t>(
                chunked ? options.timeChunks : 1)));
    doc.set("chunk_warmup_records",
            JsonValue(chunked ? options.chunkWarmupRecords
                              : std::uint64_t{0}));
    return doc.dump(0);
}

double
speedupPercent(const Metrics &base, const Metrics &test)
{
    return test.speedupOver(base) * 100.0;
}

double
energyReductionPercent(const Metrics &base, const Metrics &test)
{
    return test.energySavingOver(base) * 100.0;
}

double
geomeanSpeedupPercent(const std::vector<double> &percents)
{
    if (percents.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double p : percents)
        log_sum += std::log(1.0 + p / 100.0);
    return (std::exp(log_sum /
                     static_cast<double>(percents.size())) -
            1.0) *
           100.0;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || *value == '\0')
        return fallback;
    std::uint64_t parsed = 0;
    if (!parseDecimal(trim(value),
                      std::numeric_limits<std::uint64_t>::max(), parsed))
        throw std::invalid_argument(
            std::string(name) +
            ": expected an unsigned decimal integer, got '" + value +
            "'");
    return parsed;
}

std::vector<trace::WorkloadProfile>
selectedBenchmarks()
{
    const char *filter = std::getenv("EMISSARY_BENCHMARKS");
    const auto suite = trace::datacenterSuite();
    if (!filter || *filter == '\0')
        return suite;

    std::vector<trace::WorkloadProfile> out;
    for (const std::string &raw : split(filter, ',')) {
        const std::string name = trim(raw);
        if (name.empty())
            continue;
        out.push_back(trace::profileByName(name));
    }
    if (out.empty())
        throw std::invalid_argument(
            "EMISSARY_BENCHMARKS selected no benchmarks");
    return out;
}

} // namespace emissary::core
