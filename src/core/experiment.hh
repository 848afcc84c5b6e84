/**
 * @file
 * The one way to run a simulation, shared by the grid engine, the
 * CLI, the bench harnesses and the examples.
 *
 * core::run drives one record stream (a RunSource) through one
 * machine under one L2 policy. A window with RunOptions::timeChunks
 * > 1 over a random-access source is split into time chunks spliced
 * back into one result; every other run is the one-chunk case of
 * that scheduler. The same call is the timing lane of a fused pass
 * when it records a MonitorFeed, and each monitor lane of the pass is
 * one replayMonitor call on that feed. runPolicy is the convenience
 * for one live program under one policy string, compared against the
 * TPLRU + FDIP baseline exactly as the paper does.
 */

#ifndef EMISSARY_CORE_EXPERIMENT_HH
#define EMISSARY_CORE_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/metrics.hh"
#include "replacement/emissary.hh"
#include "replacement/spec.hh"
#include "stats/registry.hh"
#include "stats/sampler.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "trace/replay.hh"

namespace emissary::stats
{
class TraceSink;
class SpanRecorder;
}

namespace emissary::workload
{
class PackedTraceWriter;
}

namespace emissary::frontend
{
class PredictionStream;
struct PredictorConfig;
}

namespace emissary::core
{

class ThreadPool;

/** Window sizing and machine knobs for one run. */
struct RunOptions
{
    std::uint64_t warmupInstructions = 400'000;
    std::uint64_t measureInstructions = 1'600'000;
    bool fdip = true;
    bool nextLinePrefetch = true;
    bool idealL2Inst = false;
    /** EMISSARY on dual-tree TPLRU (default) or true LRU (Fig. 1). */
    bool emissaryTreePlru = true;
    /** §3 ablation: L1I replacement policy (paper notation). */
    std::string l1iPolicy = "TPLRU";
    /** §2 ablation: unselected instruction lines bypass the L2. */
    bool bypassLowPriorityInst = false;
    std::uint64_t priorityResetInstructions = 0;
    std::uint64_t seed = 0x5EEDULL;
    /**
     * Time-parallel mode: simulate the measurement window as this
     * many contiguous chunks running concurrently on the ThreadPool,
     * each non-first chunk preceded by a functional-warming prefix
     * of chunkWarmupRecords records, then splice the per-chunk
     * counters and cycles into one result. Applies only to
     * random-access sources (RunSource::randomAccess); 0 or 1 =
     * exact sequential simulation (the default). Results are
     * deterministic for fixed (timeChunks, chunkWarmupRecords) at
     * any worker count; measured error bounds:
     * results/mode_validation.txt, docs/performance.md.
     */
    unsigned timeChunks = 1;
    /**
     * Functional-warming prefix replayed before each non-first
     * chunk's measure slice: caches, BTB and predictors warm over
     * these records without counting. Ignored when timeChunks <= 1.
     */
    std::uint64_t chunkWarmupRecords = 250'000;

    /** Every knob equal: two runs then share one machine and window,
     *  and may share a fused pass or a P(N) result (core::planGrid). */
    bool operator==(const RunOptions &) const = default;
};

/**
 * Calls @p visit(key, member) once per RunOptions field, with its
 * JSON key and a pointer to the member, in the one order every use
 * of the knobs follows: the manifest "config" (runOptionsJson), the
 * cache identity (canonicalRunOptions) and the service's request
 * parser. A field left out here would be missing from all three, so
 * two configs that differ in it would share a cache entry: a new
 * field joins this list, append-only.
 */
template <typename Visit>
void
forEachRunOption(Visit &&visit)
{
    visit("warmup_instructions", &RunOptions::warmupInstructions);
    visit("measure_instructions", &RunOptions::measureInstructions);
    visit("fdip", &RunOptions::fdip);
    visit("next_line_prefetch", &RunOptions::nextLinePrefetch);
    visit("ideal_l2_inst", &RunOptions::idealL2Inst);
    visit("emissary_tree_plru", &RunOptions::emissaryTreePlru);
    visit("l1i_policy", &RunOptions::l1iPolicy);
    visit("bypass_low_priority_inst",
          &RunOptions::bypassLowPriorityInst);
    visit("priority_reset_instructions",
          &RunOptions::priorityResetInstructions);
    visit("seed", &RunOptions::seed);
    visit("time_chunks", &RunOptions::timeChunks);
    visit("chunk_warmup_records", &RunOptions::chunkWarmupRecords);
}

/**
 * Run one benchmark under one L2 policy.
 *
 * @param program The benchmark's generated program (reuse across
 *        policies so every run replays the identical stream).
 * @param l2_policy Policy in paper notation, e.g. "P(8):S&E&R(1/32)".
 * @param options Window and machine knobs.
 */
Metrics runPolicy(const trace::SyntheticProgram &program,
                  const std::string &l2_policy,
                  const RunOptions &options);

/**
 * Factory producing an independent TraceSource positioned at
 * absolute record @p start_record of the workload's served stream —
 * the random-access contract time-parallel chunking needs. For EMTC
 * containers this is an O(1) block-index seek
 * (workload::PackedTraceSource::skipRecords); each call must return
 * a fresh source because chunks read concurrently.
 */
using ChunkSourceFactory =
    std::function<std::unique_ptr<trace::TraceSource>(
        std::uint64_t start_record)>;

/**
 * The record stream of one run: exactly one of three kinds. The kind
 * decides whether the window can be chunked (random access) and how
 * the run counts Metrics::codeFootprintLines. Kinds serving the same
 * records give bit-identical results up to that footprint rule and
 * the benchmark name the stream reports (tests/test_runner.cpp).
 */
class RunSource
{
  public:
    /** Live generation: every pass runs a fresh SyntheticExecutor
     *  over @p program (not owned). No random access; the footprint
     *  is the executor's count. */
    RunSource(const trace::SyntheticProgram &program)
        : kind_(&program)
    {
    }

    /** A shared packed stream with random access. The buffer may
     *  still be packing: a pass blocks only on records not yet
     *  published. The footprint is the cursor's count, or the union
     *  of the chunks' bitmaps when chunked; a trace-backed buffer
     *  keeps no bitmap and reports @p census instead. A machine that
     *  replays the buffer from record 0 under @p predictions'
     *  predictor config reads its block outcomes from there (may
     *  still be predicting; nullptr = every machine predicts). */
    RunSource(std::shared_ptr<const trace::RecordBuffer> buffer,
              std::uint64_t census = 0,
              std::shared_ptr<const frontend::PredictionStream>
                  predictions = nullptr)
        : kind_(std::move(buffer)), census_(census),
          predictions_(std::move(predictions))
    {
    }

    /** A trace opened at any record: random access. The footprint
     *  is @p census (an EMTC container's pack-time count). */
    RunSource(ChunkSourceFactory open, std::uint64_t census = 0)
        : kind_(std::move(open)), census_(census)
    {
    }

    /** True when a chunk may start at any record of the stream. */
    bool
    randomAccess() const
    {
        return !std::holds_alternative<const trace::SyntheticProgram *>(
            kind_);
    }

    /** The block outcomes shared by the source's passes, if any. */
    const frontend::PredictionStream *
    predictions() const
    {
        return predictions_.get();
    }

  private:
    /** Opens a chunk's stream per kind (core/experiment.cc). */
    friend class ChunkStream;

    std::variant<const trace::SyntheticProgram *,
                 std::shared_ptr<const trace::RecordBuffer>,
                 ChunkSourceFactory>
        kind_;
    std::uint64_t census_ = 0;
    std::shared_ptr<const frontend::PredictionStream> predictions_;
};

/**
 * Attachments and report of one run. The inputs are read before the
 * run; the outputs are filled when it completes. Interval sampling,
 * the event trace and the record tee observe one sequential machine,
 * so they apply to one-chunk runs only (as does the P(N) same-path
 * range); the span recorder and every other output apply to all.
 */
struct RunTelemetry
{
    /** Snapshot cadence in committed instructions (0 = off). */
    std::uint64_t sampleInterval = 0;
    /** JSONL event sink, armed for the measurement window only
     *  (nullptr = off). Not owned. */
    stats::TraceSink *traceSink = nullptr;
    /** Every record the run consumes is also appended to this EMTC
     *  container (nullptr = off). Not owned. */
    workload::PackedTraceWriter *recordTo = nullptr;
    /** Flight recorder (nullptr = none). Not owned. A one-chunk run
     *  records "warmup", "measure" and "stat_export" slices on the
     *  calling thread's track, a chunked run one "chunk" slice per
     *  chunk on the worker that ran it. */
    stats::SpanRecorder *spans = nullptr;

    /** End-of-window counters of the run. */
    stats::Registry registry;
    /** Interval snapshots (empty unless sampleInterval > 0). */
    stats::Sampler sampler;
    /** Wall seconds of the simulation, excluding stat export. */
    double wallSeconds = 0.0;
    /** Phase seconds, summed over chunks (CPU seconds, so a grid's
     *  per-phase totals stay comparable across execution modes). */
    double warmupSeconds = 0.0;
    double measureSeconds = 0.0;
    double statExportSeconds = 0.0;
    /** Seconds the run's cursors blocked on a replay buffer that was
     *  still packing, summed over chunks (0 for every other source,
     *  and for a buffer packed before the run reached it). */
    double replayWaitSeconds = 0.0;
    /** Seconds the run's front-ends blocked on block outcomes the
     *  source's PredictionStream had not published yet, summed over
     *  chunks (0 for a machine that predicted inline). */
    double predictionWaitSeconds = 0.0;
    /** The N values whose P(N) L2 would have run this run's exact
     *  path (EmissaryPolicy::sameRunRange); empty unless the run's L2
     *  (for replayMonitor: the monitor's) runs EMISSARY. The grid
     *  engine shares a P(N) result across it. */
    replacement::ProtectRange l2SameRunRange{1, 0};
    /** Chunks the window actually ran as: 1 unless timeChunks > 1
     *  on a random-access source (and the window long enough). */
    unsigned chunks = 0;
};

/**
 * Every RunOptions field (forEachRunOption) as one canonical
 * compact-JSON string, the machine-config component of a grid cell's
 * cache identity (core::cellCacheCanonical). Unlike the manifest
 * "config" object this includes the seed, and the two chunk fields
 * are normalised: every sequential spelling reads time_chunks 1 and
 * chunk_warmup_records 0.
 */
std::string canonicalRunOptions(const RunOptions &options);

/**
 * What one fused pass leaves its monitor lanes: each time chunk's
 * cache::MissLog, with the timing lane's counters that a monitor
 * reports as its own lane-invariant ones. Written once by run(),
 * then read by any number of concurrent replayMonitor calls; its
 * memory goes with its last owner. Defined in core/experiment.cc.
 */
struct MonitorFeed;

/** Events @p feed's logs hold, summed over its time chunks. */
std::uint64_t feedEvents(const MonitorFeed &feed);
/** Bytes @p feed's logs hold, summed over its time chunks. */
std::uint64_t feedBytes(const MonitorFeed &feed);

/**
 * Run @p l2 over @p source in one pass per time chunk: the one way a
 * simulation runs.
 *
 * With options.timeChunks = T > 1 on a random-access source, the
 * measurement window is split into T contiguous slices simulated
 * concurrently on @p pool, each non-first slice preceded by an
 * overlapped functional-warming prefix of
 * options.chunkWarmupRecords records (min'd against the records
 * available before the slice). Per-chunk counters and window cycles
 * are summed before Metrics are derived once; the priority-bit
 * distribution is the last chunk's end state. Chunk 0 reproduces the
 * sequential prefix exactly; later chunks start from
 * warmed-but-not-identical state, so spliced counters carry a
 * boundary error (results/mode_validation.txt). Results are
 * bit-deterministic for fixed (T, W) at any worker count.
 *
 * Every other run is one chunk over the whole window, simulated on
 * the calling thread. Safe to call from inside a pool job: the
 * calling thread helps execute queued chunks instead of blocking.
 *
 * A chunk that starts at record 0 (a one-chunk run, or chunk 0 of a
 * splice) on a source with predictions() whose config equals the
 * machine's (predictorConfig) replays those block outcomes; every
 * other machine predicts inline. Either way the result is the same,
 * bit for bit.
 *
 * With @p feed set the run is the timing lane of a fused pass: it
 * also records into *@p feed each time chunk's below-L1 events
 * (cache::MissLog), which replayMonitor replays once per monitor
 * lane. Recording leaves the run's result unchanged, bit for bit
 * (tests/test_fused.cpp).
 *
 * @param pool Workers for a chunked run (nullptr = the calling
 *        thread runs every chunk in order).
 * @param telemetry Attachments and report (nullptr = none).
 */
Metrics run(const RunSource &source, const replacement::PolicySpec &l2,
            const replacement::PolicySpec &l1i, const RunOptions &options,
            std::shared_ptr<const MonitorFeed> *feed = nullptr,
            ThreadPool *pool = nullptr, RunTelemetry *telemetry = nullptr);

/**
 * One monitor lane of a fused pass: replay @p feed's logs against a
 * fresh L2/L3 (cache::MonitorLane) under @p l2 that models 1 set in
 * every @p sampled_sets (0 or 1 = every set, otherwise a power of
 * two), one time chunk after another, and splice the chunks as run()
 * does. The lane's cache counters match a run() of @p l2 up to the
 * L2-latency feedback into fetch timing (error quantified by
 * bench_mode_validation; sampled-set error bounds in
 * docs/performance.md). A monitor keeps no clock: its Metrics are
 * untimed (Metrics::timed), with every clock-derived field 0.
 * @p telemetry receives the lane's registry, its
 * replay seconds (wallSeconds, split at the window start into
 * warmupSeconds and measureSeconds) and, for a one-chunk feed, the
 * lane's l2SameRunRange.
 */
Metrics replayMonitor(const MonitorFeed &feed,
                      const replacement::PolicySpec &l2,
                      unsigned sampled_sets,
                      RunTelemetry *telemetry = nullptr);

/** The predictor part of the machine a run under @p options builds:
 *  the key of a PredictionStream its passes may share. */
frontend::PredictorConfig predictorConfig(const RunOptions &options);

/** Speedup of @p test over @p base in percent (paper convention);
 *  0 when @p test is untimed (Metrics::timed). */
double speedupPercent(const Metrics &base, const Metrics &test);

/** Energy reduction of @p test vs @p base in percent. */
double energyReductionPercent(const Metrics &base, const Metrics &test);

/** Geomean of percent speedups: gmean(1 + s_i/100) - 1, in percent. */
double geomeanSpeedupPercent(const std::vector<double> &percents);

/**
 * A table's clock-derived figure: @p value when every run it
 * involves is timed (Metrics::timed), NaN otherwise. formatDouble
 * prints NaN as "n/a", and a mean or geomean over it stays NaN.
 */
double timedFigure(bool timed, double value);

/**
 * Read an unsigned environment override, e.g.
 * EMISSARY_BENCH_INSTRUCTIONS, falling back to @p fallback.
 * @throws std::invalid_argument naming the variable when the value is
 *         set but is not a plain decimal unsigned integer.
 */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

/** The benchmark subset to sweep, honouring EMISSARY_BENCHMARKS
 *  (comma-separated names; empty = full suite). */
std::vector<trace::WorkloadProfile> selectedBenchmarks();

} // namespace emissary::core

#endif // EMISSARY_CORE_EXPERIMENT_HH
