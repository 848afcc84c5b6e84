/**
 * @file
 * High-level experiment runner shared by the bench harnesses and the
 * examples: build a benchmark's synthetic program once, replay the
 * identical instruction stream under different L2 policies, and
 * compare against the TPLRU + FDIP baseline exactly as the paper
 * does.
 */

#ifndef EMISSARY_CORE_EXPERIMENT_HH
#define EMISSARY_CORE_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>
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

namespace emissary::core
{

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
     * Fast mode: monitor lanes of a fused runPolicyGroup model only
     * 1 set in every @c sampledSets (a power of two; 0 or 1 = full
     * fidelity), with counters scaled back by the sampling factor at
     * collection. Ignored by the sequential runPolicy path and by
     * the group's timing lane, which always runs full-size arrays.
     * Measured error bounds: docs/performance.md.
     */
    unsigned sampledSets = 0;
    /**
     * Time-parallel mode: simulate the measurement window as this
     * many contiguous chunks running concurrently on the shared
     * ThreadPool, each non-first chunk preceded by a
     * functional-warming prefix of chunkWarmupRecords records, then
     * splice the per-chunk counters and cycle estimates into one
     * result (runPolicyTimeParallel / runPolicyGroupTimeParallel).
     * 0 or 1 = exact sequential simulation (the default). Results
     * are deterministic for fixed (timeChunks, chunkWarmupRecords)
     * at any worker count; measured error bounds:
     * results/timeparallel_validation.txt, docs/performance.md.
     */
    unsigned timeChunks = 1;
    /**
     * Functional-warming prefix replayed before each non-first
     * chunk's measure slice: caches, BTB and predictors warm over
     * these records without counting. Ignored when timeChunks <= 1.
     */
    std::uint64_t chunkWarmupRecords = 250'000;
};

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
 * Pre-parsed variant: the grid engine parses each policy string once
 * per sweep and reuses the specs for every workload, keeping
 * PolicySpec::parse out of the per-run path.
 */
Metrics runPolicy(const trace::SyntheticProgram &program,
                  const replacement::PolicySpec &l2_spec,
                  const replacement::PolicySpec &l1i_spec,
                  const RunOptions &options);

/**
 * Observability attachments for one run. Inputs (sampleInterval,
 * traceSink) are read before the run; outputs (registry, sampler,
 * wallSeconds) are filled when it completes. All off by default —
 * the plain runPolicy overloads pay no observability cost.
 */
struct RunInstrumentation
{
    /** Snapshot cadence in committed instructions (0 = off). */
    std::uint64_t sampleInterval = 0;
    /** JSONL event sink, armed for the measurement window only
     *  (nullptr = off). Not owned. */
    stats::TraceSink *traceSink = nullptr;

    /** End-of-window counters under their dotted names. */
    stats::Registry registry;
    /** Interval snapshots (empty unless sampleInterval > 0). */
    stats::Sampler sampler;
    /** Wall-clock of the simulate call, excluding program build. */
    double wallSeconds = 0.0;
};

/**
 * Flight-recorder attachment and run-level outputs for one run.
 * With @p spans set, the run records "warmup", "measure" and
 * "stat_export" child slices on the calling thread's track; the
 * phase seconds are filled either way, so the grid engine's
 * per-phase totals cost four steady_clock reads per cell even when
 * the recorder is off.
 */
struct RunTelemetry
{
    /** Flight recorder for phase spans (nullptr = none). Not owned. */
    stats::SpanRecorder *spans = nullptr;

    /** Wall seconds from simulate start to the measurement window. */
    double warmupSeconds = 0.0;
    /** Wall seconds of the measurement window itself. */
    double measureSeconds = 0.0;
    /** Wall seconds harvesting stats after the window (registry
     *  export, sampler copy). */
    double statExportSeconds = 0.0;

    /** The N values whose P(N) L2 would have run this run's exact
     *  path (EmissaryPolicy::sameRunRange); empty unless the L2 runs
     *  EMISSARY. The grid engine shares a P(N) result across it. */
    replacement::ProtectRange l2SameRunRange{1, 0};
};

/** Instrumented variant: as above, plus structured observability. */
Metrics runPolicy(const trace::SyntheticProgram &program,
                  const replacement::PolicySpec &l2_spec,
                  const replacement::PolicySpec &l1i_spec,
                  const RunOptions &options,
                  RunInstrumentation *instrumentation,
                  RunTelemetry *telemetry = nullptr);

/**
 * Replay variant: feed the run from a pre-generated RecordBuffer
 * instead of a live SyntheticExecutor. Produces bit-identical Metrics
 * to the live overloads for the same workload and options
 * (tests/test_replay.cpp); the grid engine uses it so a sweep
 * generates each workload's stream once instead of once per cell.
 */
Metrics runPolicy(std::shared_ptr<const trace::RecordBuffer> buffer,
                  const replacement::PolicySpec &l2_spec,
                  const replacement::PolicySpec &l1i_spec,
                  const RunOptions &options,
                  RunInstrumentation *instrumentation = nullptr,
                  RunTelemetry *telemetry = nullptr);

/**
 * Generic-source variant: run over any TraceSource — a file-backed
 * trace (trace::FileTraceSource, workload::PackedTraceSource) or any
 * other stream honouring the infinite-stream contract. The source is
 * consumed from its current position. Metrics.codeFootprintLines is
 * left 0; callers with footprint metadata (e.g. an EMTC container's
 * pack-time census) fill it themselves.
 */
Metrics runPolicy(trace::TraceSource &source,
                  const replacement::PolicySpec &l2_spec,
                  const replacement::PolicySpec &l1i_spec,
                  const RunOptions &options,
                  RunInstrumentation *instrumentation = nullptr,
                  RunTelemetry *telemetry = nullptr);

/**
 * Fused multi-policy pass: one trace replay drives every policy in
 * @p l2_specs at once. The first spec is the *timing lane* — it runs
 * the full Hierarchy and its Metrics are bit-identical to a
 * sequential runPolicy of that spec (tests/test_fused.cpp). The
 * remaining specs run as monitor lanes (cache/lanes.hh): per-policy
 * L2+L3 arrays fed by the shared pipeline's access stream, so their
 * cache counters match a sequential run up to the L2-latency
 * feedback into fetch timing, and their cycle counts are first-order
 * estimates (errors quantified by bench_fastmode_validation).
 *
 * With options.sampledSets = K > 1, monitor lanes keep only 1-in-K
 * sets (the timing lane stays exact).
 *
 * @param registries When non-null, resized to l2_specs.size() and
 *        filled with each lane's end-of-window counter registry.
 * @return One Metrics per spec, in l2_specs order.
 */
std::vector<Metrics>
runPolicyGroup(std::shared_ptr<const trace::RecordBuffer> buffer,
               const std::vector<replacement::PolicySpec> &l2_specs,
               const replacement::PolicySpec &l1i_spec,
               const RunOptions &options,
               std::vector<stats::Registry> *registries = nullptr,
               RunTelemetry *telemetry = nullptr);

/** Live-program variant of the fused pass. */
std::vector<Metrics>
runPolicyGroup(const trace::SyntheticProgram &program,
               const std::vector<replacement::PolicySpec> &l2_specs,
               const replacement::PolicySpec &l1i_spec,
               const RunOptions &options,
               std::vector<stats::Registry> *registries = nullptr,
               RunTelemetry *telemetry = nullptr);

/** Generic-source variant of the fused pass. */
std::vector<Metrics>
runPolicyGroup(trace::TraceSource &source,
               const std::vector<replacement::PolicySpec> &l2_specs,
               const replacement::PolicySpec &l1i_spec,
               const RunOptions &options,
               std::vector<stats::Registry> *registries = nullptr,
               RunTelemetry *telemetry = nullptr);

class ThreadPool;

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
 * Time-parallel run (options.timeChunks = T > 1): the window's
 * record stream is split into T contiguous measure slices simulated
 * concurrently on @p pool, each non-first slice preceded by an
 * overlapped functional-warming prefix of
 * options.chunkWarmupRecords records (min'd against the records
 * available before the slice). Per-chunk hierarchy/backend/frontend
 * counters and window cycles are summed into one Metrics via
 * composeMetrics; the priority-bit distribution is the last chunk's
 * end state and the code footprint is the union of the chunks'
 * touched-line bitmaps.
 *
 * Approximation contract: chunk 0 reproduces the sequential run's
 * prefix exactly; later chunks start from warmed-but-not-identical
 * machine state, so counters carry a boundary error that shrinks
 * with warmup length (measured: results/timeparallel_validation.txt).
 * Results are bit-deterministic for fixed (T, W) at any worker
 * count and scheduling order — each chunk depends only on the
 * buffer contents and its own bounds, and splicing is by chunk
 * index. With timeChunks <= 1 this is exactly runPolicy.
 *
 * Safe to call from inside a pool job: the calling thread helps
 * execute queued chunks instead of blocking (ThreadPool::helpWhile).
 */
Metrics runPolicyTimeParallel(
    std::shared_ptr<const trace::RecordBuffer> buffer,
    const replacement::PolicySpec &l2_spec,
    const replacement::PolicySpec &l1i_spec,
    const RunOptions &options, ThreadPool &pool,
    RunInstrumentation *instrumentation = nullptr,
    RunTelemetry *telemetry = nullptr);

/** Chunk-source variant for workloads too large to buffer: every
 *  chunk opens its own source at its start record. */
Metrics runPolicyTimeParallel(
    const ChunkSourceFactory &chunk_source,
    const replacement::PolicySpec &l2_spec,
    const replacement::PolicySpec &l1i_spec,
    const RunOptions &options, ThreadPool &pool,
    RunInstrumentation *instrumentation = nullptr,
    RunTelemetry *telemetry = nullptr);

/**
 * Time-parallel fused pass: each chunk runs a full
 * runPolicyGroup-style lane bank over its slice, and the per-lane
 * counters / cycle estimates are spliced chunk-wise exactly like the
 * single-policy variant. Lane order matches @p l2_specs.
 */
std::vector<Metrics> runPolicyGroupTimeParallel(
    std::shared_ptr<const trace::RecordBuffer> buffer,
    const std::vector<replacement::PolicySpec> &l2_specs,
    const replacement::PolicySpec &l1i_spec,
    const RunOptions &options, ThreadPool &pool,
    std::vector<stats::Registry> *registries = nullptr,
    RunTelemetry *telemetry = nullptr);

/** Chunk-source variant of the time-parallel fused pass. */
std::vector<Metrics> runPolicyGroupTimeParallel(
    const ChunkSourceFactory &chunk_source,
    const std::vector<replacement::PolicySpec> &l2_specs,
    const replacement::PolicySpec &l1i_spec,
    const RunOptions &options, ThreadPool &pool,
    std::vector<stats::Registry> *registries = nullptr,
    RunTelemetry *telemetry = nullptr);

/**
 * Every RunOptions field as one canonical compact-JSON string, the
 * machine-config component of a grid cell's cache identity
 * (core::cellCacheCanonical). Unlike the manifest "config" object
 * this includes the seed, and its layout is append-only: adding a
 * RunOptions field must extend this string, otherwise two configs
 * that differ in the new knob would collide in the result cache.
 */
std::string canonicalRunOptions(const RunOptions &options);

/** Speedup of @p test over @p base in percent (paper convention). */
double speedupPercent(const Metrics &base, const Metrics &test);

/** Energy reduction of @p test vs @p base in percent. */
double energyReductionPercent(const Metrics &base, const Metrics &test);

/** Geomean of percent speedups: gmean(1 + s_i/100) - 1, in percent. */
double geomeanSpeedupPercent(const std::vector<double> &percents);

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
