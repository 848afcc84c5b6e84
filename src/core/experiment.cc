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
#include "cache/miss_log.hh"
#include "stats/json.hh"

#include "core/observability.hh"
#include "core/simulator.hh"
#include "core/threadpool.hh"
#include "stats/span_recorder.hh"
#include "trace/executor.hh"
#include "util/strutil.hh"
#include "workload/emtc.hh"

namespace emissary::core
{

Metrics
runPolicy(const trace::SyntheticProgram &program,
          const std::string &l2_policy, const RunOptions &options)
{
    return run(program, replacement::PolicySpec::parse(l2_policy),
               replacement::PolicySpec::parse(options.l1iPolicy),
               options);
}

/**
 * One chunk's view of a RunSource: the stream its pass consumes,
 * opened at the chunk's start record, and the footprint rule of the
 * source's kind. A live program has no random access, so it only
 * ever runs one chunk, from record 0.
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
        } else {
            owned_ = std::get<ChunkSourceFactory>(source.kind_)(
                start_record);
        }
    }

    trace::TraceSource &stream() { return *owned_; }

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
    const trace::SyntheticExecutor *executor_ = nullptr;
    const trace::ReplayCursor *cursor_ = nullptr;
    const trace::ReplayCursor *replay_ = nullptr;
    std::uint64_t census_ = 0;
};

struct MonitorFeed
{
    /** The recording machine's hierarchy: a monitor clones its L2/L3
     *  and copies its L1 geometry. */
    cache::Hierarchy::Config hierarchy;
    /** Applied to every monitor's policy, as to the timing lane's. */
    bool emissaryTreePlru = true;
    std::uint64_t footprint = 0;

    struct Chunk
    {
        cache::MissLog log;
        MetricsInputs timing;
    };
    std::vector<Chunk> chunks;
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

/** Everything one chunk's pass contributes to the splice: the timing
 *  lane's raw inputs (not Metrics, so the splice sums counters and
 *  derives rates once over the whole window) and the phase clock. */
struct ChunkResult
{
    MetricsInputs timing;
    std::uint64_t footprint = 0;
    double replayWaitSeconds = 0.0;
    double predictionWaitSeconds = 0.0;
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

/** The machine knobs of a run under @p options, with the L2 and
 *  L1I policies left at their defaults. */
MachineOptions
machineOptions(const RunOptions &options)
{
    MachineOptions machine_options;
    machine_options.emissaryTreePlru = options.emissaryTreePlru;
    machine_options.bypassLowPriorityInst =
        options.bypassLowPriorityInst;
    machine_options.fdip = options.fdip;
    machine_options.nextLinePrefetch = options.nextLinePrefetch;
    machine_options.idealL2Inst = options.idealL2Inst;
    machine_options.seed = options.seed;
    return machine_options;
}

/**
 * The pass body: build the machine for @p plan's window, run it over
 * @p source and harvest the timing lane's inputs, recording the
 * below-L1 events into @p log when set. The only place RunOptions
 * becomes a machine. The machine replays @p predictions (the
 * source's block outcomes from record 0, or nullptr) when their
 * config is its own, and predicts inline otherwise. @p whole carries
 * the attachments that observe one sequential machine; it is null
 * for the chunks of a splice, which touch no shared state and so may
 * run on any worker in any order.
 */
ChunkResult
simulatePass(trace::TraceSource &source,
             const frontend::PredictionStream *predictions,
             const MachineConfig &machine, const RunOptions &options,
             const ChunkPlan &plan, RunTelemetry *whole,
             cache::MissLog *log)
{
    Simulator::Config sim_config;
    sim_config.machine = machine;
    if (predictions &&
        !(predictions->config() == sim_config.machine.frontend))
        predictions = nullptr;
    sim_config.warmupInstructions = plan.warmup;
    sim_config.measureInstructions = plan.measure;
    sim_config.priorityResetInstructions =
        options.priorityResetInstructions;
    if (whole)
        sim_config.sampleInterval = whole->sampleInterval;

    Simulator simulator(sim_config, source, predictions);
    simulator.hierarchy().setMissLog(log);
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
    result.predictionWaitSeconds =
        simulator.frontEnd().predictionWaitSeconds();

    result.timing = simulator.collect();
    if (whole) {
        whole->sampler = simulator.sampler();
        if (const auto *emissary =
                dynamic_cast<const replacement::EmissaryPolicy *>(
                    &simulator.hierarchy().l2().policy()))
            whole->l2SameRunRange = emissary->sameRunRange();
    }
    if (log)
        log->finish();
    result.harvested = Clock::now();
    return result;
}

/**
 * One lane's inputs over the whole window from its per-chunk inputs,
 * in chunk-index order, which makes the result independent of worker
 * count and completion order: counters sum, and the priority-bit
 * census is the last chunk's. A single chunk passes through.
 */
MetricsInputs
splice(const std::vector<MetricsInputs> &chunks)
{
    MetricsInputs inputs = chunks.back();
    // The census is occupancy, not a flow count: the last chunk's
    // end state stands for the window's end state, exactly as a
    // sequential run reports its own. Counters sum from chunk 0.
    inputs.hierarchy = chunks.front().hierarchy;
    inputs.backend = chunks.front().backend;
    inputs.frontend = chunks.front().frontend;
    for (std::size_t i = 1; i < chunks.size(); ++i) {
        inputs.hierarchy += chunks[i].hierarchy;
        inputs.backend += chunks[i].backend;
        inputs.frontend += chunks[i].frontend;
    }
    return inputs;
}

/** @p inputs composed into Metrics and @p registry. */
Metrics
metricsOf(const MetricsInputs &inputs, std::uint64_t footprint,
          stats::Registry &registry)
{
    Metrics m = composeMetrics(inputs);
    m.codeFootprintLines = footprint;
    populateRegistry(registry, inputs.hierarchy, inputs.backend,
                     inputs.frontend);
    return m;
}

} // namespace

std::uint64_t
feedEvents(const MonitorFeed &feed)
{
    std::uint64_t events = 0;
    for (const MonitorFeed::Chunk &chunk : feed.chunks)
        events += chunk.log.events();
    return events;
}

std::uint64_t
feedBytes(const MonitorFeed &feed)
{
    std::uint64_t bytes = 0;
    for (const MonitorFeed::Chunk &chunk : feed.chunks)
        bytes += chunk.log.bytes();
    return bytes;
}

Metrics
run(const RunSource &source, const replacement::PolicySpec &l2,
    const replacement::PolicySpec &l1i, const RunOptions &options,
    std::shared_ptr<const MonitorFeed> *feed, ThreadPool *pool,
    RunTelemetry *telemetry)
{
    RunTelemetry unobserved;
    RunTelemetry &report = telemetry ? *telemetry : unobserved;
    report.sampler = stats::Sampler();
    report.l2SameRunRange = replacement::ProtectRange{1, 0};

    const std::vector<ChunkPlan> plans = planChunks(
        options, source.randomAccess() ? options.timeChunks : 1);
    const bool whole = plans.size() == 1;
    stats::SpanRecorder *spans = report.spans;

    MachineOptions machine_options = machineOptions(options);
    machine_options.l2Spec = l2;
    machine_options.l1iSpec = l1i;
    machine_options.l2Policy = l2.toString();
    machine_options.l1iPolicy = l1i.toString();
    const MachineConfig machine = alderlakeConfig(machine_options);

    std::shared_ptr<MonitorFeed> recorded;
    if (feed) {
        recorded = std::make_shared<MonitorFeed>();
        recorded->hierarchy = machine.hierarchy;
        recorded->emissaryTreePlru = options.emissaryTreePlru;
        recorded->chunks.resize(plans.size());
    }

    std::vector<ChunkResult> chunks(plans.size());
    const auto run_chunk = [&](std::size_t i) {
        ChunkStream chunk(source, plans[i].startRecord);
        trace::TraceSource *stream = &chunk.stream();
        std::unique_ptr<workload::RecordingSource> tee;
        if (whole && report.recordTo) {
            tee = std::make_unique<workload::RecordingSource>(
                *stream, *report.recordTo);
            stream = tee.get();
        }
        // The shared outcomes cover the stream from record 0 only.
        chunks[i] = simulatePass(
            *stream,
            plans[i].startRecord == 0 ? source.predictions() : nullptr,
            machine, options, plans[i], whole ? &report : nullptr,
            recorded ? &recorded->chunks[i].log : nullptr);
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
            args.emplace_back(
                "prediction_wait_ms",
                stats::JsonValue(1e3 * chunks[i].predictionWaitSeconds));
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

    std::vector<MetricsInputs> timing;
    timing.reserve(chunks.size());
    for (const ChunkResult &chunk : chunks)
        timing.push_back(chunk.timing);
    if (recorded) {
        for (std::size_t i = 0; i < chunks.size(); ++i)
            recorded->chunks[i].timing = chunks[i].timing;
        recorded->footprint = footprint;
        *feed = std::move(recorded);
    }
    report.registry = stats::Registry();
    Metrics metrics = metricsOf(splice(timing), footprint, report.registry);
    if (whole)
        chunks.front().harvested = Clock::now();

    report.chunks = static_cast<unsigned>(plans.size());
    report.warmupSeconds = 0.0;
    report.measureSeconds = 0.0;
    report.statExportSeconds = 0.0;
    report.replayWaitSeconds = 0.0;
    report.predictionWaitSeconds = 0.0;
    for (const ChunkResult &chunk : chunks) {
        report.replayWaitSeconds += chunk.replayWaitSeconds;
        report.predictionWaitSeconds += chunk.predictionWaitSeconds;
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

Metrics
replayMonitor(const MonitorFeed &feed, const replacement::PolicySpec &l2,
              unsigned sampled_sets, RunTelemetry *telemetry)
{
    replacement::PolicySpec spec = l2;
    spec.emissaryTreePlru = feed.emissaryTreePlru;
    const auto start = Clock::now();
    double warmup_seconds = 0.0;
    double measure_seconds = 0.0;
    replacement::ProtectRange same{1, 0};
    std::vector<MetricsInputs> chunks;
    for (const MonitorFeed::Chunk &chunk : feed.chunks) {
        cache::MonitorLane lane(feed.hierarchy, spec, sampled_sets);
        const auto chunk_start = Clock::now();
        auto window = chunk_start;
        lane.replay(chunk.log, [&window]() { window = Clock::now(); });
        warmup_seconds += seconds(chunk_start, window);
        measure_seconds += seconds(window, Clock::now());

        // The shared stream's events are the lane's too; its cycles
        // are the timing lane's, so every cycle counter stays 0.
        const MetricsInputs &timing = chunk.timing;
        MetricsInputs inputs;
        inputs.benchmark = timing.benchmark;
        inputs.policy = lane.l2().policy().name();
        inputs.hierarchy = lane.stats(timing.hierarchy);
        inputs.backend.committed = timing.backend.committed;
        inputs.backend.issued = timing.backend.issued;
        inputs.backend.loads = timing.backend.loads;
        inputs.backend.stores = timing.backend.stores;
        inputs.backend.branchesResolved =
            timing.backend.branchesResolved;
        inputs.frontend = timing.frontend;
        inputs.emissaryBits =
            spec.family == replacement::PolicyFamily::EmissaryP;
        const auto hist = lane.l2().priorityDistribution();
        inputs.priorityDistribution.resize(hist.domain());
        for (std::size_t i = 0; i < hist.domain(); ++i)
            inputs.priorityDistribution[i] = hist.fraction(i);
        chunks.push_back(std::move(inputs));

        if (feed.chunks.size() == 1)
            if (const auto *emissary =
                    dynamic_cast<const replacement::EmissaryPolicy *>(
                        &lane.l2().policy()))
                same = emissary->sameRunRange();
    }

    RunTelemetry unobserved;
    RunTelemetry &report = telemetry ? *telemetry : unobserved;
    report.registry = stats::Registry();
    const Metrics metrics = metricsOf(splice(chunks), feed.footprint,
                                      report.registry);
    report.wallSeconds = seconds(start, Clock::now());
    report.warmupSeconds = warmup_seconds;
    report.measureSeconds = measure_seconds;
    report.statExportSeconds = 0.0;
    report.l2SameRunRange = same;
    report.chunks = static_cast<unsigned>(feed.chunks.size());
    return metrics;
}

std::string
canonicalRunOptions(const RunOptions &options)
{
    // Normalised so every sequential spelling (timeChunks 0 or 1,
    // any warmup value) maps to one identity: the warmup knob only
    // shapes results when the window is actually chunked.
    RunOptions normal = options;
    if (normal.timeChunks <= 1) {
        normal.timeChunks = 1;
        normal.chunkWarmupRecords = 0;
    }
    stats::JsonValue doc = stats::JsonValue::object();
    forEachRunOption([&](const char *key, auto member) {
        doc.set(key, stats::JsonValue(normal.*member));
    });
    return doc.dump(0);
}

frontend::PredictorConfig
predictorConfig(const RunOptions &options)
{
    return alderlakeConfig(machineOptions(options)).frontend;
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
