/**
 * @file
 * Parallel experiment engine: run a (workload x policy) grid of
 * independent simulations across a ThreadPool.
 *
 * Every figure and table of the paper is such a grid. runGrid plans,
 * then executes: planGrid makes every scheduling decision before a
 * job starts (GridPlan), and runGrid starts the row builds and
 * submits the plan's passes through one loop. Results land in slots
 * indexed by grid position, and each pass builds its own simulator
 * and seeded RNGs, so runGrid with EMISSARY_JOBS=1 and
 * EMISSARY_JOBS=N produce the same Metrics for the same grid.
 *
 * Within the EMISSARY_REPLAY_BUDGET_MB memory budget (default 1024,
 * 0 disables), each synthetic or raw EMTR row's stream is packed
 * once into a trace::RecordBuffer that all of its cells replay, so
 * the sweep costs O(workloads) synthetic execution instead of
 * O(workloads x policies); a synthetic row's cells read records as
 * its build job packs them. EMTC rows take no buffer: each pass (and
 * each time-parallel chunk) opens the container at its own start
 * record. Every source serves the same records, so the Metrics are
 * bit-identical (RowSource; docs/performance.md).
 *
 * A replay row with two or more passes also predicts its block
 * outcomes once: the build job feeds every packed chunk to a
 * frontend::PredictionStream before publishing it, and each pass's
 * machine that starts at record 0 under the stream's predictor
 * config replays the outcomes instead of running its own BTB, TAGE,
 * ITTAGE and RAS. The outcomes depend on the records and that config
 * alone, so the Metrics are bit-identical to predicting inline.
 *
 * A row's P(N) columns that differ only in N form a group whose
 * largest N runs first; every member whose N lies in the leader's
 * replacement::EmissaryPolicy::sameRunRange takes the leader's exact
 * result (CellExecution::Shared), the others run as ordinary cells.
 * That share-or-rerun is the one decision made while jobs run.
 *
 * A fused lane chunk runs its timing lane as one pass that records
 * the below-L1 events (core::runTiming); when the pass ends, each of
 * its monitor lanes becomes its own job replaying that log
 * (core::replayMonitor), queued ahead of every pass not yet started
 * so that about one log per worker is live. The monitor columns are
 * grouped the same way: a P(N) member lane whose N lies in its
 * leader lane's range takes the leader lane's result, which is its
 * own replay bit for bit, and keeps its fused_monitor tag.
 */

#ifndef EMISSARY_CORE_GRID_HH
#define EMISSARY_CORE_GRID_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/threadpool.hh"
#include "replacement/spec.hh"
#include "stats/histogram.hh"
#include "stats/json.hh"
#include "stats/registry.hh"
#include "stats/span_recorder.hh"
#include "stats/table.hh"
#include "trace/profile.hh"

namespace emissary::core
{

/** One column of a sweep: an L2 policy plus the run knobs. */
struct RunSpec
{
    /** Display label; defaults to the policy notation. */
    std::string label;
    /** L2 policy in paper notation, e.g. "P(8):S&E&R(1/32)". */
    std::string l2Policy = "TPLRU";
    /** Window sizing and machine knobs for this column. */
    RunOptions options;

    RunSpec() = default;
    RunSpec(std::string policy, const RunOptions &run_options)
        : label(policy), l2Policy(std::move(policy)),
          options(run_options)
    {
    }
    RunSpec(std::string display_label, std::string policy,
            const RunOptions &run_options)
        : label(std::move(display_label)),
          l2Policy(std::move(policy)), options(run_options)
    {
    }
};

/**
 * One row of a sweep: a named workload, either synthetic (generated
 * from a WorkloadProfile) or trace-backed (streamed from an EMTR or
 * EMTC file on disk). Implicitly convertible from WorkloadProfile so
 * profile-based call sites keep working unchanged.
 */
struct GridWorkload
{
    std::string name;
    /** Generator parameters; used when tracePath is empty. */
    trace::WorkloadProfile profile;
    /** Path to an .emtr / .emtc trace; empty = synthetic. */
    std::string tracePath;
    /** Records dropped from the front of the trace (warmup skip). */
    std::uint64_t skipRecords = 0;
    /** Cap on served records before wrap (0 = whole trace). */
    std::uint64_t maxRecords = 0;

    GridWorkload() = default;
    GridWorkload(const trace::WorkloadProfile &workload_profile)
        : name(workload_profile.name), profile(workload_profile)
    {
    }
    GridWorkload(std::string workload_name, std::string trace_path,
                 std::uint64_t skip_records = 0,
                 std::uint64_t max_records = 0)
        : name(std::move(workload_name)),
          tracePath(std::move(trace_path)),
          skipRecords(skip_records), maxRecords(max_records)
    {
    }

    bool traceBacked() const { return !tracePath.empty(); }
};

/** A full sweep: every workload is run under every RunSpec. */
struct PolicyGrid
{
    std::vector<GridWorkload> workloads;
    std::vector<RunSpec> runs;

    /** Uniform grid: the same options for every policy string. */
    static PolicyGrid
    sweep(std::vector<trace::WorkloadProfile> workloads,
          const std::vector<std::string> &policies,
          const RunOptions &options);

    /** Mixed grid: workloads given directly (synthetic or trace). */
    static PolicyGrid
    sweep(std::vector<GridWorkload> workloads,
          const std::vector<std::string> &policies,
          const RunOptions &options);

    std::size_t cellCount() const
    {
        return workloads.size() * runs.size();
    }
};

/** One memoizable grid-cell result: the cell's Metrics plus its
 *  end-of-window counter registry as flat JSON (the registryJson
 *  shape), which is what a cached service response must reproduce
 *  bit-identically. */
struct CellCacheEntry
{
    Metrics metrics;
    stats::JsonValue counters;
};

/**
 * Cell-level result cache consulted by runGrid. Implementations must
 * be safe to call from several pool workers at once.
 *
 * Keys are content addresses: cellCacheKey(cellCacheCanonical(...)).
 * The canonical string travels with every call so an implementation
 * can verify it against the stored entry — a hash collision then
 * degrades to a miss, never to a wrong result. The engine only ever
 * stores what it just simulated, so determinism (bit-identical
 * results for identical identity) is what makes the memoization
 * sound.
 */
class CellResultCache
{
  public:
    virtual ~CellResultCache() = default;

    /** Fetch the entry under @p key; false on miss. */
    virtual bool lookup(const std::string &key,
                        const std::string &canonical,
                        CellCacheEntry &out) = 0;

    /** Publish a freshly simulated entry under @p key. */
    virtual void store(const std::string &key,
                       const std::string &canonical,
                       const CellCacheEntry &entry) = 0;
};

/**
 * Canonical identity of one grid cell, the string the result cache
 * hashes. Covers everything that can change the cell's Metrics:
 *
 *  - workload content: every generator parameter incl. seed for
 *    synthetic rows; for trace rows the container's content digest
 *    (EMTC header fields + the block-index CRC, which covers every
 *    block's own CRC) or a whole-file CRC for raw EMTR files, plus
 *    the skip/max window. The display name is excluded — renaming a
 *    workload does not change its result.
 *  - the L2 policy in canonical notation (aliases like "EMISSARY"
 *    normalise to their expansion);
 *  - every RunOptions knob incl. seed (canonicalRunOptions);
 *  - the execution role: sequential cells and fused timing lanes are
 *    bit-identical by construction and share the "exact" role
 *    (@p timing_policy empty, @p sampled_sets ignored), while fused
 *    monitor lanes carry the fused approximation (cache counts,
 *    untimed) and are keyed by the policy of the timing lane that
 *    drove their pass (the shared pipeline's stream depends on it
 *    through the L2-latency feedback into fetch) plus the sampling
 *    factor — so an exact request can never be served a monitor-lane
 *    result, and a monitor result is only reused behind the
 *    identical driver;
 *  - @p build_sha, the binary's code version (core::buildInfo).
 *
 * @throws std::runtime_error when a trace-backed workload's file
 *         cannot be read (identity must be content-addressed).
 */
std::string cellCacheCanonical(const GridWorkload &workload,
                               const RunSpec &run,
                               const std::string &timing_policy,
                               unsigned sampled_sets,
                               const std::string &build_sha);

/** Content address of @p canonical: "emc1-" + 16 hex chars of its
 *  FNV-1a 64 hash (also the on-disk store's file stem). */
std::string cellCacheKey(const std::string &canonical);

/**
 * The one check of a monitor sampling factor (GridOptions::sampledSets,
 * the service's "sampled_sets", emissary_sim --sampled-sets): 0 or a
 * power of two.
 * @throws std::invalid_argument naming @p factor otherwise.
 */
void checkSampledSets(unsigned factor);

/**
 * Columns per fused lane chunk: the first column of every chunk is
 * its timing lane, whose policy drives the chunk's monitor lanes and
 * so is part of their results and cache keys.
 */
inline constexpr std::size_t kFusedLaneColumns = 32;

/** Scheduling knobs for one runGrid call. */
struct GridOptions
{
    /** Fused scheduling: a row runs as one timing pass per
     *  kFusedLaneColumns columns, each chunk's first column its
     *  timing lane and the rest monitor lanes replayed from the
     *  pass's miss log. Columns that differ in any run knob make the
     *  whole grid fall back to per-cell scheduling (GridPlan). */
    bool fused = false;
    /** Fast mode: 1-in-K set sampling for the monitor lanes of
     *  fused groups (core::run's sampled_sets; 0 or 1 = full fidelity
     *  monitors; K a power of two, checkSampledSets). The timing lane
     *  and sequential cells always model every set. */
    unsigned sampledSets = 0;
    /** Collect each cell's end-of-window counter registry into
     *  GridResults (implied by cellCache, which must store them). */
    bool collectRegistries = false;
    /**
     * Cell-level result cache (not owned; nullptr = off). Cells
     * whose identity hits skip simulation entirely — a row where
     * every cell hits does not even build its replay buffer — and
     * land in GridResults with CellExecution::Cached and zero wall
     * seconds; fresh cells are stored after they complete.
     */
    CellResultCache *cellCache = nullptr;
};

/** How one grid cell's Metrics were produced. */
enum class CellExecution : std::uint8_t
{
    Sequential,          ///< Own full simulation (reference oracle).
    FusedTiming,         ///< Timing lane of a fused group
                         ///< (bit-identical to Sequential).
    FusedMonitor,        ///< Full-size monitor lane.
    FusedMonitorSampled, ///< Sampled-set monitor lane.
    Cached,              ///< Served from the cell result cache.
    TimeParallel,        ///< Chunked time-parallel splice
                         ///< (RunTelemetry::chunks > 1).
    Shared,              ///< Copied from a larger-N P(N) cell of the
                         ///< row whose run provably took the same
                         ///< path (bit-identical to Sequential).
};

/** The execution mode's name as stored in the sweep JSON. */
const char *cellExecutionName(CellExecution execution);

/** Where one workload row's records came from in a runGrid call. */
enum class RowSource : std::uint8_t
{
    None,   ///< Nothing built: every cell of the row was cached.
    Replay, ///< One RecordBuffer shared by the row's passes
            ///< (synthetic and raw EMTR rows within the budget).
    Stream, ///< Each pass opens the trace at its own start record
            ///< (EMTC rows; EMTR rows past the budget).
    Live,   ///< Each pass regenerates the synthetic stream (a
            ///< synthetic row past the budget).
};

/** The row source's name as stored in the sweep JSON and the
 *  "replay_build" slice ("none", "replay", "stream", "live"). */
const char *rowSourceName(RowSource source);

/** One simulation of a plan over one row: a fused lane chunk, a P(N)
 *  group (its leader, then the members that may share its result)
 *  or a single cell. */
struct GridPass
{
    std::size_t row = 0;
    /** Lane order: columns[0] is the exact timing lane, the rest
     *  fused monitor lanes. A cached timing column still drives a
     *  pass whose monitors are fresh, and keeps its cached result. */
    std::vector<std::size_t> columns;
    /** P(N) members: each takes columns[0]'s result when its N lies
     *  in that run's same-path range, else re-runs on its own. */
    std::vector<std::size_t> members;
    /** A fused pass's monitor lanes, columns[1..] grouped as exact
     *  cells are: each entry is one lane job, submitted when the
     *  timing pass ends, that replays its columns[0] and shares or
     *  replays its members. Empty for every other pass. */
    std::vector<GridPass> monitors;
};

/** One cell's cache role, identity and hit. */
struct CellPlan
{
    /** The column whose policy runs the cell's timing lane: its own,
     *  or for a fused monitor lane its chunk's first column. */
    std::size_t timingColumn = 0;
    /** The identity under that role; empty without a cell cache. */
    std::string cacheKey;
    std::string cacheCanonical;
    std::optional<CellCacheEntry> hit;

    bool cached() const { return hit.has_value(); }
};

/** Every decision of one runGrid call that precedes its jobs. */
struct GridPlan
{
    /** Fusion was requested and every column's RunOptions are equal;
     *  otherwise every cell runs on its own. */
    bool fused = false;
    /** The monitor lanes' 1-in-K set sampling; 0 when they model
     *  every set or no cell is a monitor lane. */
    unsigned sampledSets = 0;
    /** Records per replay buffer: the largest window plus the
     *  cursor's lookahead slack. */
    std::uint64_t bufferRecords = 0;
    /** Each column's parsed L2 and L1I policies, read by every job. */
    std::vector<replacement::PolicySpec> l2Specs;
    std::vector<replacement::PolicySpec> l1iSpecs;
    /** Per row; None when every cell of the row hit. */
    std::vector<RowSource> sources;
    /** Per row, the column whose predictor config
     *  (core::predictorConfig) keys the row's shared PredictionStream:
     *  the row's first pass's. Set for a Replay row with at least two
     *  passes, a P(N) member counting as one since it may re-run;
     *  nullopt when every machine of the row predicts inline. */
    std::vector<std::optional<std::size_t>> predictionColumns;
    std::vector<std::vector<CellPlan>> cells; ///< [workload][run]
    /** Submission order, which the FIFO pool keeps: a row's P(N)
     *  leaders come before its other cells. (Monitor lane jobs jump
     *  the queued passes: ThreadPool::submitAhead.) */
    std::vector<GridPass> passes;
};

/**
 * Plan @p grid under @p options without a pool or a simulation. Reads
 * EMISSARY_REPLAY_BUDGET_MB and probes options.cellCache once per cell
 * (a trace row's identity reads its file).
 * @throws std::invalid_argument on an empty grid, bad notation or a
 *         sampling factor checkSampledSets rejects.
 */
GridPlan planGrid(const PolicyGrid &grid, const GridOptions &options);

/** Wall-clock accounting for one runGrid call. */
struct GridTiming
{
    /** End-to-end wall seconds for the whole grid. */
    double totalSeconds = 0.0;
    /** Serial sum of the shared program / replay-buffer build jobs
     *  (they run in parallel, and a synthetic row's pack overlaps
     *  its cells; this is their cost, not their span). */
    double replayBuildSeconds = 0.0;
    /** Worker threads the grid ran on. */
    unsigned workers = 0;
    /** Per-cell wall seconds, [workload][run]. */
    std::vector<std::vector<double>> runSeconds;

    /** One cell's wall-clock split (core::RunTelemetry phases). */
    struct CellPhases
    {
        double warmupSeconds = 0.0;
        double measureSeconds = 0.0;
        double statExportSeconds = 0.0;
    };
    /** Per-cell phase splits, [workload][run] like runSeconds. */
    std::vector<std::vector<CellPhases>> phaseSeconds;

    /** Sum of all per-cell times: what a serial sweep would cost. */
    double serialSeconds() const;
    /** Completed cells per wall-clock second. */
    double runsPerSecond() const;
    std::size_t runCount() const;

    /** Serial sums of one phase across every cell. */
    double warmupSeconds() const;
    double measureSeconds() const;
    double statExportSeconds() const;

    /** Per-cell wall microseconds over log2-scaled buckets — the
     *  sweep JSON's cell_wall_histogram. */
    stats::BoundedHistogram cellWallHistogram() const;
};

/** Deterministically ordered results of one grid sweep. */
class GridResults
{
  public:
    GridResults(std::size_t workloads, std::size_t runs);

    /** Metrics of workload @p w under run spec @p r. */
    const Metrics &
    at(std::size_t w, std::size_t r) const
    {
        return cells_[w][r];
    }

    std::size_t workloadCount() const { return cells_.size(); }
    std::size_t
    runCount() const
    {
        return cells_.empty() ? 0 : cells_.front().size();
    }

    const GridTiming &timing() const { return timing_; }

    /** Execution provenance of cell (@p w, @p r). */
    CellExecution
    executionAt(std::size_t w, std::size_t r) const
    {
        return execution_[w][r];
    }

    /** Where row @p w's records came from. */
    RowSource sourceAt(std::size_t w) const { return sources_[w]; }

    /** Column of row @p w whose simulation produced the Shared
     *  cell (@p w, @p r); @p r itself for every other cell. */
    std::size_t
    sharedWith(std::size_t w, std::size_t r) const
    {
        return sharedWith_[w][r];
    }

    /** End-of-window counter registry of cell (@p w, @p r). Empty
     *  unless the grid ran with GridOptions::collectRegistries (or a
     *  cell cache, which implies it). */
    const stats::Registry &
    registryAt(std::size_t w, std::size_t r) const
    {
        return registries_[w][r];
    }

    /** The plan fused the grid (GridPlan::fused), even when every
     *  cell was served from the cache. */
    bool fused() const { return fused_; }

    /** The plan's monitor sampling factor (GridPlan::sampledSets). */
    unsigned sampledSets() const { return sampledSets_; }

    /** Committed (measured-window) instructions summed over every
     *  cell of the grid. */
    std::uint64_t totalInstructions() const;

    /** Committed instructions simulated per wall-clock second. */
    double instructionsPerSecond() const;

    /**
     * Timing rendered through the stats table formatter: one row per
     * workload (summed across its runs) plus total rows with achieved
     * runs/sec, Minst/s, the parallel speedup over the serial
     * cell-time sum and the count of Shared cells.
     */
    stats::Table timingTable(
        const std::vector<GridWorkload> &workloads) const;

  private:
    friend GridResults runGrid(
        const PolicyGrid &, ThreadPool &, const GridOptions &,
        const std::function<void(std::size_t, std::size_t)> &,
        stats::SpanRecorder *);

    std::vector<std::vector<Metrics>> cells_;
    std::vector<std::vector<CellExecution>> execution_;
    std::vector<RowSource> sources_;
    std::vector<std::vector<std::size_t>> sharedWith_;
    std::vector<std::vector<stats::Registry>> registries_;
    GridTiming timing_;
    bool fused_ = false;
    unsigned sampledSets_ = 0;
};

/**
 * Run every cell of @p grid on @p pool: plan it (planGrid), serve the
 * cache hits, start the row builds, then submit every pass in plan
 * order. A fused lane chunk's timing pass is one "group" slice in
 * the flight recorder (with a "lanes" arg) holding a "miss_log" slice
 * (args: events, bytes), and each fresh monitor cell one "lane" slice
 * (args: workload, policy, cell, events, and shared_with for a P(N)
 * member lane that took its leader lane's result); its timing lane
 * is bit-identical to the sequential engine, and its monitor lanes
 * are untimed (Metrics::timed). A monitor cell's wall seconds are
 * its own replay's (0 when shared). A chunked column runs
 * time-parallel only on a row whose source has random access; on a
 * Live row it runs as one exact pass, marked sequential.
 *
 * @param progress Optional callback fired after each cell completes;
 *        invocations are serialized by the engine, so the callback
 *        may print or mutate shared progress state without its own
 *        locking. Indices are grid positions, not completion order.
 * @param recorder Optional flight recorder. When set (and enabled),
 *        every grid cell becomes a "cell" slice on its worker's
 *        track (args: workload, policy, instructions, Minst/s) with
 *        "warmup"/"measure"/"stat_export" children (a Shared cell's
 *        slice has none and a "shared_with" arg instead), each
 *        row's source preparation becomes a "replay_build" slice
 *        (args: workload, source — rowSourceName, predicted_blocks —
 *        the row's PredictionStream length, 0 without one), and the
 *        engine feeds two counter tracks: "cells_completed" and the
 *        aggregate "minst_per_sec". Cell and group slices carry
 *        replay_wait_ms and prediction_wait_ms, the time the pass
 *        blocked on its row's packer and predictor. Export with
 *        stats::ChromeTraceWriter. A null recorder costs one
 *        pointer test per instrumentation point.
 *
 * Exceptions thrown by a row build (an unreadable trace) or a cell
 * (bad policy notation, simulator budget overrun) are rethrown here,
 * the first in submission order, once every started job has
 * finished. A failure stops the grid: a cell that has not started
 * by then returns without simulating, and the members of a P(N)
 * group whose leader threw are left unrun. Row builds still run,
 * since cells that already started may wait on them.
 */
GridResults runGrid(
    const PolicyGrid &grid, ThreadPool &pool,
    const GridOptions &options = {},
    const std::function<void(std::size_t w, std::size_t r)>
        &progress = {},
    stats::SpanRecorder *recorder = nullptr);

/**
 * A workload row's provenance object, as every sweep-JSON run
 * manifest and a single trace run's JSON carry it: path, window and
 * container facts for traces; the profile name for synthetic rows.
 */
stats::JsonValue workloadProvenanceJson(const GridWorkload &workload);

/**
 * The whole sweep as one JSON document ("emissary.sweep.v1"): the
 * plan's mode ("fused" when GridResults::fused, else "sequential")
 * and monitor sampling factor (GridResults::sampledSets), a per-run
 * manifest for every cell — benchmark, policy notation, label, seed,
 * window config, execution (a "shared" cell also names its leader's
 * policy under "shared_with"), the row's source (rowSourceName;
 * omitted for a "cached" cell), wall seconds, full metrics — plus the
 * grid's timing aggregate (total / serial seconds, runs per second,
 * per-phase totals, a log2-bucketed per-cell wall-clock histogram)
 * and the binary's build provenance (core/buildinfo.hh).
 */
stats::JsonValue sweepJson(const PolicyGrid &grid,
                           const GridResults &results);

/** sweepJson rendered to @p path (pretty-printed, trailing newline).
 *  @throws std::runtime_error when the file cannot be written. */
void writeSweepJson(const std::string &path, const PolicyGrid &grid,
                    const GridResults &results);

} // namespace emissary::core

#endif // EMISSARY_CORE_GRID_HH
