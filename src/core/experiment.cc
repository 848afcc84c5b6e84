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
#include "trace/file.hh"
#include "util/strutil.hh"

namespace emissary::core
{

Metrics
runPolicy(const trace::SyntheticProgram &program,
          const std::string &l2_policy, const RunOptions &options)
{
    return run(program, {replacement::PolicySpec::parse(l2_policy)}, 0,
               replacement::PolicySpec::parse(options.l1iPolicy),
               options)
        .front();
}

/**
 * One chunk's view of a RunSource: the stream its pass consumes,
 * opened at the chunk's start record, and the footprint rule of the
 * source's kind. Kinds without random access only ever run one
 * chunk, which starts at record 0 (the stream's current position).
 */
class ChunkStream
{
  public:
    ChunkStream(const RunSource &source, std::uint64_t start_record)
        : census_(source.census_)
    {
        if (const auto *program =
                std::get_if<const trace::SyntheticProgram *>(
                    &source.kind_)) {
            // A fresh executor with the profile's own seed: every run
            // of this program replays the identical committed path.
            auto executor =
                std::make_unique<trace::SyntheticExecutor>(**program);
            executor_ = executor.get();
            owned_ = std::move(executor);
        } else if (const auto *buffer = std::get_if<
                       std::shared_ptr<const trace::RecordBuffer>>(
                       &source.kind_)) {
            auto cursor = std::make_unique<trace::ReplayCursor>(
                *buffer, start_record);
            replay_ = cursor.get();
            if ((*buffer)->synthetic())
                cursor_ = cursor.get();
            owned_ = std::move(cursor);
        } else if (const auto *open = std::get_if<ChunkSourceFactory>(
                       &source.kind_)) {
            owned_ = (*open)(start_record);
        }
        stream_ = owned_ ? owned_.get()
                         : std::get<trace::TraceSource *>(source.kind_);
    }

    trace::TraceSource &stream() { return *stream_; }

    /** Unique code lines the stream served (synthetic kinds), or the
     *  source's census (trace kinds). */
    std::uint64_t
    footprint() const
    {
        if (executor_)
            return executor_->uniqueCodeLines();
        return cursor_ ? cursor_->uniqueCodeLines() : census_;
    }

    /** Seconds the stream blocked on a buffer still packing. */
    double
    replayWaitSeconds() const
    {
        return replay_ ? replay_->waitSeconds() : 0.0;
    }

    /** The served lines as a bitmap, for the chunk splice's union;
     *  empty unless the source is a synthetic buffer. */
    std::vector<std::uint64_t>
    touchedBitmap() const
    {
        return cursor_ ? cursor_->touchedBitmap()
                       : std::vector<std::uint64_t>();
    }

  private:
    std::unique_ptr<trace::TraceSource> owned_;
    trace::TraceSource *stream_ = nullptr;
    const trace::SyntheticExecutor *executor_ = nullptr;
    const trace::ReplayCursor *cursor_ = nullptr;
    const trace::ReplayCursor *replay_ = nullptr;
    std::uint64_t census_ = 0;
};

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** One chunk's bounds over the record stream: replay starts at
 *  startRecord, warms over the first warmup records in
 *  functional-warming mode, then measures the next measure records. */
struct ChunkPlan
{
    std::uint64_t startRecord = 0;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
};

/**
 * Split the (warmup U, measure M) window of @p options into
 * @p chunks contiguous measure slices. Chunk 0 keeps the run's own
 * warmup and so reproduces the sequential prefix exactly; chunk i>0
 * starts its measure slice at absolute record U + sum(earlier
 * slices) and is preceded by an overlapped warming prefix of
 * min(chunkWarmupRecords, records before the slice). The count
 * collapses to M when the window is shorter, so every slice measures
 * at least one record; one chunk is the whole window.
 */
std::vector<ChunkPlan>
planChunks(const RunOptions &options, unsigned chunk_count)
{
    const std::uint64_t warmup = options.warmupInstructions;
    const std::uint64_t measure = options.measureInstructions;
    const std::uint64_t chunks = std::min<std::uint64_t>(
        std::max(1u, chunk_count), measure > 0 ? measure : 1);

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

/** Everything one chunk's pass contributes to the splice: each
 *  lane's raw inputs (not Metrics, so the splice sums counters and
 *  derives rates once over the whole window) and the phase clock. */
struct ChunkResult
{
    std::vector<MetricsInputs> lanes;
    std::uint64_t footprint = 0;
    double replayWaitSeconds = 0.0;
    std::vector<std::uint64_t> touchedBitmap;
    Clock::time_point start;
    Clock::time_point measureStart;
    Clock::time_point stop;
    Clock::time_point harvested;
    /** Simulated and stepped cycles of the warm-up and of the whole
     *  pass (the flight recorder's `cycles` / `stepped_cycles`). */
    std::uint64_t warmupCycles = 0;
    std::uint64_t warmupStepped = 0;
    std::uint64_t cycles = 0;
    std::uint64_t stepped = 0;
};

/** Span args naming how many of @p cycles the engine stepped. */
std::vector<std::pair<std::string, stats::JsonValue>>
cycleArgs(std::uint64_t cycles, std::uint64_t stepped)
{
    std::vector<std::pair<std::string, stats::JsonValue>> args;
    args.emplace_back("cycles", stats::JsonValue(cycles));
    args.emplace_back("stepped_cycles", stats::JsonValue(stepped));
    return args;
}

/**
 * The pass body: build the machine for @p plan's window, attach a
 * lane bank when @p lanes has monitors (sampling 1-in-@p sampled_sets
 * sets), run over @p source and
 * harvest one MetricsInputs per lane. The only place RunOptions
 * becomes a machine. @p whole carries the attachments that observe
 * one sequential machine; it is null for the chunks of a splice,
 * which touch no shared state and so may run on any worker in any
 * order.
 */
ChunkResult
simulatePass(trace::TraceSource &source,
             const std::vector<replacement::PolicySpec> &lanes,
             unsigned sampled_sets, const replacement::PolicySpec &l1i,
             const RunOptions &options, const ChunkPlan &plan,
             RunTelemetry *whole)
{
    MachineOptions machine_options;
    machine_options.l2Spec = lanes.front();
    machine_options.l1iSpec = l1i;
    machine_options.l2Policy = lanes.front().toString();
    machine_options.l1iPolicy = l1i.toString();
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
    if (whole)
        sim_config.sampleInterval = whole->sampleInterval;

    // Monitor lanes for every policy past the first. The option knob
    // alderlakeConfig applies to the timing spec must reach them the
    // same way.
    std::vector<replacement::PolicySpec> monitor_specs(lanes.begin() + 1,
                                                       lanes.end());
    for (replacement::PolicySpec &spec : monitor_specs)
        spec.emissaryTreePlru = options.emissaryTreePlru;
    std::unique_ptr<cache::PolicyLaneBank> bank;
    if (!monitor_specs.empty())
        bank = std::make_unique<cache::PolicyLaneBank>(
            sim_config.machine.hierarchy, monitor_specs, sampled_sets);

    Simulator simulator(sim_config, source);
    if (bank)
        simulator.hierarchy().setLanes(bank.get());
    if (whole && whole->traceSink)
        simulator.setTraceSink(whole->traceSink);

    ChunkResult result;
    result.start = Clock::now();
    // Phase boundary: the simulator fires this exactly when the
    // warm-up counters reset and the measurement window opens.
    result.measureStart = result.start;
    simulator.setOnMeasureStart([&result, &simulator]() {
        result.measureStart = Clock::now();
        result.warmupCycles = simulator.now();
        result.warmupStepped = simulator.steppedCycles();
    });
    simulator.run();
    result.stop = Clock::now();
    result.cycles = simulator.now();
    result.stepped = simulator.steppedCycles();

    result.lanes.push_back(simulator.collect());
    for (unsigned lane = 0; lane < monitor_specs.size(); ++lane)
        result.lanes.push_back(simulator.collectLane(lane));
    if (whole) {
        whole->sampler = simulator.sampler();
        if (const auto *emissary =
                dynamic_cast<const replacement::EmissaryPolicy *>(
                    &simulator.hierarchy().l2().policy()))
            whole->l2SameRunRange = emissary->sameRunRange();
    }
    result.harvested = Clock::now();
    return result;
}

} // namespace

std::vector<Metrics>
run(const RunSource &source,
    const std::vector<replacement::PolicySpec> &l2_lanes,
    unsigned sampled_sets, const replacement::PolicySpec &l1i,
    const RunOptions &options, ThreadPool *pool,
    RunTelemetry *telemetry)
{
    if (l2_lanes.empty())
        throw std::invalid_argument("core::run: no L2 policies");
    RunTelemetry unobserved;
    RunTelemetry &report = telemetry ? *telemetry : unobserved;
    report.sampler = stats::Sampler();
    report.l2SameRunRange = replacement::ProtectRange{1, 0};

    const std::vector<ChunkPlan> plans = planChunks(
        options, source.randomAccess() ? options.timeChunks : 1);
    const bool whole = plans.size() == 1;
    stats::SpanRecorder *spans = report.spans;

    std::vector<ChunkResult> chunks(plans.size());
    const auto run_chunk = [&](std::size_t i) {
        ChunkStream chunk(source, plans[i].startRecord);
        trace::TraceSource *stream = &chunk.stream();
        std::unique_ptr<trace::RecordingSource> tee;
        if (whole && report.recordTo) {
            tee = std::make_unique<trace::RecordingSource>(
                *stream, *report.recordTo);
            stream = tee.get();
        }
        chunks[i] = simulatePass(*stream, l2_lanes, sampled_sets, l1i,
                                 options, plans[i],
                                 whole ? &report : nullptr);
        chunks[i].footprint = chunk.footprint();
        chunks[i].replayWaitSeconds = chunk.replayWaitSeconds();
        if (whole)
            return;
        chunks[i].touchedBitmap = chunk.touchedBitmap();
        if (spans) {
            auto args = cycleArgs(chunks[i].cycles, chunks[i].stepped);
            args.emplace_back("start_record",
                              stats::JsonValue(plans[i].startRecord));
            args.emplace_back("warmup_records",
                              stats::JsonValue(plans[i].warmup));
            args.emplace_back("measure_records",
                              stats::JsonValue(plans[i].measure));
            args.emplace_back(
                "replay_wait_ms",
                stats::JsonValue(1e3 * chunks[i].replayWaitSeconds));
            spans->recordSpan("chunk", spans->toNs(chunks[i].start),
                              spans->toNs(chunks[i].harvested),
                              std::move(args));
        }
    };

    const auto wall_start = Clock::now();
    if (whole || !pool) {
        for (std::size_t i = 0; i < plans.size(); ++i)
            run_chunk(i);
    } else {
        // Fan out; the calling thread helps instead of blocking, so
        // nesting inside a grid job cannot deadlock the pool.
        std::atomic<std::size_t> done{0};
        std::vector<std::future<void>> futures;
        futures.reserve(plans.size());
        for (std::size_t i = 0; i < plans.size(); ++i) {
            futures.push_back(pool->submit([&, i]() {
                // Count completion on every exit path (including
                // throw), or helpWhile below would spin forever on a
                // failed chunk.
                struct Done
                {
                    std::atomic<std::size_t> &counter;
                    ~Done()
                    {
                        counter.fetch_add(1, std::memory_order_release);
                    }
                } mark{done};
                run_chunk(i);
            }));
        }
        pool->helpWhile([&]() {
            return done.load(std::memory_order_acquire) < plans.size();
        });
        for (std::future<void> &future : futures)
            future.get();
    }
    report.wallSeconds = seconds(wall_start, Clock::now());

    // Chunk windows overlap on warming prefixes, so summing
    // per-chunk footprints would double-count; the bitmap OR does
    // not. Trace kinds report their census from any chunk.
    std::uint64_t footprint = chunks.front().footprint;
    if (!whole && !chunks.front().touchedBitmap.empty()) {
        std::vector<std::uint64_t> merged;
        for (const ChunkResult &chunk : chunks) {
            if (merged.size() < chunk.touchedBitmap.size())
                merged.resize(chunk.touchedBitmap.size(), 0);
            for (std::size_t w = 0; w < chunk.touchedBitmap.size(); ++w)
                merged[w] |= chunk.touchedBitmap[w];
        }
        footprint = 0;
        for (const std::uint64_t word : merged)
            footprint += static_cast<std::uint64_t>(std::popcount(word));
    }

    // Splice in chunk-index order, which makes the result independent
    // of worker count and completion order. A single chunk's inputs
    // pass through unchanged.
    std::vector<Metrics> metrics;
    metrics.reserve(l2_lanes.size());
    report.registries.assign(l2_lanes.size(), {});
    for (std::size_t lane = 0; lane < l2_lanes.size(); ++lane) {
        MetricsInputs inputs = chunks.front().lanes[lane];
        for (std::size_t i = 1; i < chunks.size(); ++i) {
            const MetricsInputs &slice = chunks[i].lanes[lane];
            inputs.hierarchy += slice.hierarchy;
            inputs.backend += slice.backend;
            inputs.frontend += slice.frontend;
        }
        // The priority-bit census is occupancy, not a flow count:
        // the last chunk's end state stands for the window's end
        // state, exactly as a sequential run reports its own.
        inputs.policy = chunks.back().lanes[lane].policy;
        inputs.priorityDistribution =
            chunks.back().lanes[lane].priorityDistribution;
        Metrics m = composeMetrics(inputs);
        m.codeFootprintLines = footprint;
        populateRegistry(report.registries[lane], inputs.hierarchy,
                         inputs.backend, inputs.frontend);
        metrics.push_back(std::move(m));
    }
    if (whole)
        chunks.front().harvested = Clock::now();

    report.chunks = static_cast<unsigned>(plans.size());
    report.warmupSeconds = 0.0;
    report.measureSeconds = 0.0;
    report.statExportSeconds = 0.0;
    report.replayWaitSeconds = 0.0;
    for (const ChunkResult &chunk : chunks) {
        report.replayWaitSeconds += chunk.replayWaitSeconds;
        report.warmupSeconds += seconds(chunk.start, chunk.measureStart);
        report.measureSeconds += seconds(chunk.measureStart, chunk.stop);
        report.statExportSeconds += seconds(chunk.stop, chunk.harvested);
    }
    if (whole && spans) {
        const ChunkResult &pass = chunks.front();
        spans->recordSpan("warmup", spans->toNs(pass.start),
                          spans->toNs(pass.measureStart),
                          cycleArgs(pass.warmupCycles,
                                    pass.warmupStepped));
        spans->recordSpan("measure", spans->toNs(pass.measureStart),
                          spans->toNs(pass.stop),
                          cycleArgs(pass.cycles - pass.warmupCycles,
                                    pass.stepped - pass.warmupStepped));
        spans->recordSpan("stat_export", spans->toNs(pass.stop),
                          spans->toNs(pass.harvested));
    }
    return metrics;
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

double
timedFigure(bool timed, double value)
{
    return timed ? value : std::numeric_limits<double>::quiet_NaN();
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
