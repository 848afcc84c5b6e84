#include "core/grid.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <fstream>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/buildinfo.hh"
#include "core/observability.hh"
#include "core/replay_build.hh"
#include "frontend/frontend.hh"
#include "trace/file.hh"
#include "trace/program.hh"
#include "trace/replay.hh"
#include "util/bitutil.hh"
#include "util/crc32.hh"
#include "util/hash.hh"
#include "util/strutil.hh"
#include "workload/emtc.hh"

namespace emissary::core
{

using emissary::workload::readTraceInfo;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Pack-time unique-code-line census of an EMTC container (0 for
 *  EMTR traces, which carry no footprint metadata). */
std::uint64_t
traceFootprintLines(const GridWorkload &w)
{
    if (!w.traceBacked() || !isPackedTracePath(w.tracePath))
        return 0;
    return readTraceInfo(w.tracePath).uniqueCodeLines;
}

/**
 * Records one replay buffer must hold to cover every run spec of the
 * grid: the largest warmup+measure window, plus the cursor's
 * lookahead slack for frontend overfetch.
 */
std::uint64_t
recordsNeeded(const PolicyGrid &grid)
{
    std::uint64_t window = 0;
    for (const RunSpec &run : grid.runs)
        window = std::max(window, run.options.warmupInstructions +
                                      run.options.measureInstructions);
    return trace::RecordBuffer::recordsForWindow(window);
}

/** CRC-32 of a whole file, streamed in 64 KiB chunks — the content
 *  identity of raw EMTR traces, which carry no per-block digests. */
std::uint32_t
fileCrc32(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error(
            "cellCacheCanonical: cannot open trace '" + path + "'");
    std::uint32_t crc = 0;
    char chunk[64 * 1024];
    while (in.read(chunk, sizeof(chunk)).gcount() > 0)
        crc = emissary::crc32(crc, chunk,
                              static_cast<std::size_t>(in.gcount()));
    return crc;
}

} // namespace

std::string
cellCacheCanonical(const GridWorkload &workload, const RunSpec &run,
                   const std::string &timing_policy,
                   unsigned sampled_sets,
                   const std::string &build_sha)
{
    using stats::JsonValue;

    JsonValue identity = JsonValue::object();
    identity.set("schema", JsonValue("emissary.cellkey.v1"));

    // Workload content, never its display name: renaming a workload
    // must not change its cached result.
    JsonValue source = JsonValue::object();
    if (workload.traceBacked()) {
        if (isPackedTracePath(workload.tracePath)) {
            // The index CRC transitively digests every block's own
            // CRC, so these header fields identify the full payload
            // without decoding it.
            const auto info = readTraceInfo(workload.tracePath);
            source.set("type", JsonValue("emtc"));
            source.set("records", JsonValue(info.recordCount));
            source.set("records_per_block",
                       JsonValue(static_cast<std::uint64_t>(
                           info.recordsPerBlock)));
            source.set("blocks",
                       JsonValue(static_cast<std::uint64_t>(
                           info.blockCount)));
            source.set("unique_code_lines",
                       JsonValue(info.uniqueCodeLines));
            source.set("file_bytes", JsonValue(info.fileBytes));
            source.set("index_crc",
                       JsonValue(static_cast<std::uint64_t>(
                           info.indexCrc)));
        } else {
            source.set("type", JsonValue("emtr"));
            source.set("file_crc",
                       JsonValue(static_cast<std::uint64_t>(
                           fileCrc32(workload.tracePath))));
        }
        source.set("skip_records", JsonValue(workload.skipRecords));
        source.set("max_records", JsonValue(workload.maxRecords));
    } else {
        // Every generator parameter, seed included; together they
        // determine the synthetic stream bit-exactly.
        const trace::WorkloadProfile &p = workload.profile;
        source.set("type", JsonValue("synthetic"));
        source.set("code_footprint_bytes",
                   JsonValue(p.codeFootprintBytes));
        source.set("transaction_types",
                   JsonValue(static_cast<std::uint64_t>(
                       p.transactionTypes)));
        source.set("transaction_skew", JsonValue(p.transactionSkew));
        source.set("burst_repeat_probability",
                   JsonValue(p.burstRepeatProbability));
        source.set("burst_window",
                   JsonValue(static_cast<std::uint64_t>(
                       p.burstWindow)));
        source.set("function_skew", JsonValue(p.functionSkew));
        source.set("functions_per_transaction",
                   JsonValue(static_cast<std::uint64_t>(
                       p.functionsPerTransaction)));
        source.set("mean_block_instrs",
                   JsonValue(static_cast<std::uint64_t>(
                       p.meanBlockInstrs)));
        source.set("mean_blocks_per_function",
                   JsonValue(static_cast<std::uint64_t>(
                       p.meanBlocksPerFunction)));
        source.set("loop_fraction", JsonValue(p.loopFraction));
        source.set("mean_trip_count", JsonValue(p.meanTripCount));
        source.set("hard_branch_fraction",
                   JsonValue(p.hardBranchFraction));
        source.set("load_fraction", JsonValue(p.loadFraction));
        source.set("store_fraction", JsonValue(p.storeFraction));
        source.set("hot_data_bytes", JsonValue(p.hotDataBytes));
        source.set("hot_data_skew", JsonValue(p.hotDataSkew));
        source.set("cold_access_fraction",
                   JsonValue(p.coldAccessFraction));
        source.set("data_footprint_bytes",
                   JsonValue(p.dataFootprintBytes));
        source.set("stack_access_fraction",
                   JsonValue(p.stackAccessFraction));
        source.set("streaming_fraction",
                   JsonValue(p.streamingFraction));
        source.set("seed", JsonValue(p.seed));
    }
    identity.set("workload", std::move(source));

    // Canonical policy notation: aliases ("EMISSARY") and formatting
    // variants normalise to one spelling.
    identity.set("policy",
                 JsonValue(replacement::PolicySpec::parse(
                               run.l2Policy)
                               .toString()));
    identity.set("config",
                 JsonValue(canonicalRunOptions(run.options)));

    // Chunked approximation, spelled out beyond the config string:
    // a time-parallel splice must never be served to (or from) an
    // exact-simulation request, so the slicing joins the identity
    // explicitly (and is omitted — not zeroed — for sequential
    // runs, mirroring canonicalRunOptions' normalisation).
    if (run.options.timeChunks > 1) {
        JsonValue slicing = JsonValue::object();
        slicing.set("time_chunks",
                    JsonValue(static_cast<std::uint64_t>(
                        run.options.timeChunks)));
        slicing.set("chunk_warmup_records",
                    JsonValue(run.options.chunkWarmupRecords));
        identity.set("time_slicing", std::move(slicing));
    }

    if (timing_policy.empty()) {
        identity.set("role", JsonValue("exact"));
    } else {
        identity.set("role",
                     JsonValue(sampled_sets > 1
                                   ? "monitor_sampled_" +
                                         std::to_string(sampled_sets)
                                   : std::string("monitor")));
        identity.set("timing_policy",
                     JsonValue(replacement::PolicySpec::parse(
                                   timing_policy)
                                   .toString()));
    }
    identity.set("build_sha", JsonValue(build_sha));
    return identity.dump(0);
}

std::string
cellCacheKey(const std::string &canonical)
{
    // Appended rather than `"emc1-" + hex64(...)`: inlined across
    // libraries in an IPO build, that form trips GCC 12's false
    // -Wstringop-overread.
    std::string key = "emc1-";
    key += hex64(fnv1a64(canonical));
    return key;
}

const char *
cellExecutionName(CellExecution execution)
{
    switch (execution) {
      case CellExecution::Sequential:
        return "sequential";
      case CellExecution::FusedTiming:
        return "fused_timing";
      case CellExecution::FusedMonitor:
        return "fused_monitor";
      case CellExecution::FusedMonitorSampled:
        return "fused_monitor_sampled";
      case CellExecution::Cached:
        return "cached";
      case CellExecution::TimeParallel:
        return "time_parallel";
      case CellExecution::Shared:
        return "shared";
    }
    return "unknown";
}

const char *
rowSourceName(RowSource source)
{
    switch (source) {
      case RowSource::None:
        return "none";
      case RowSource::Replay:
        return "replay";
      case RowSource::Stream:
        return "stream";
      case RowSource::Live:
        return "live";
    }
    return "unknown";
}

PolicyGrid
PolicyGrid::sweep(std::vector<trace::WorkloadProfile> workloads,
                  const std::vector<std::string> &policies,
                  const RunOptions &options)
{
    std::vector<GridWorkload> rows;
    rows.reserve(workloads.size());
    for (const trace::WorkloadProfile &profile : workloads)
        rows.emplace_back(profile);
    return sweep(std::move(rows), policies, options);
}

PolicyGrid
PolicyGrid::sweep(std::vector<GridWorkload> workloads,
                  const std::vector<std::string> &policies,
                  const RunOptions &options)
{
    PolicyGrid grid;
    grid.workloads = std::move(workloads);
    grid.runs.reserve(policies.size());
    for (const std::string &policy : policies)
        grid.runs.emplace_back(policy, options);
    return grid;
}

double
GridTiming::serialSeconds() const
{
    double sum = 0.0;
    for (const auto &row : runSeconds)
        for (const double s : row)
            sum += s;
    return sum;
}

double
GridTiming::runsPerSecond() const
{
    return totalSeconds > 0.0
               ? static_cast<double>(runCount()) / totalSeconds
               : 0.0;
}

std::size_t
GridTiming::runCount() const
{
    std::size_t count = 0;
    for (const auto &row : runSeconds)
        count += row.size();
    return count;
}

double
GridTiming::warmupSeconds() const
{
    double sum = 0.0;
    for (const auto &row : phaseSeconds)
        for (const CellPhases &cell : row)
            sum += cell.warmupSeconds;
    return sum;
}

double
GridTiming::measureSeconds() const
{
    double sum = 0.0;
    for (const auto &row : phaseSeconds)
        for (const CellPhases &cell : row)
            sum += cell.measureSeconds;
    return sum;
}

double
GridTiming::statExportSeconds() const
{
    double sum = 0.0;
    for (const auto &row : phaseSeconds)
        for (const CellPhases &cell : row)
            sum += cell.statExportSeconds;
    return sum;
}

stats::BoundedHistogram
GridTiming::cellWallHistogram() const
{
    // 32 log2 buckets of microseconds: the last bound is 2^30 µs
    // (~18 min), far beyond any realistic cell.
    stats::BoundedHistogram histogram(
        stats::BoundedHistogram::log2Bounds(32));
    for (const auto &row : runSeconds)
        for (const double seconds : row)
            histogram.sample(
                static_cast<std::uint64_t>(seconds * 1e6));
    return histogram;
}

GridResults::GridResults(std::size_t workloads, std::size_t runs)
    : cells_(workloads, std::vector<Metrics>(runs)),
      execution_(workloads,
                 std::vector<CellExecution>(
                     runs, CellExecution::Sequential)),
      sources_(workloads, RowSource::None),
      sharedWith_(workloads, std::vector<std::size_t>(runs)),
      registries_(workloads, std::vector<stats::Registry>(runs))
{
    for (auto &row : sharedWith_)
        for (std::size_t r = 0; r < runs; ++r)
            row[r] = r;
    timing_.runSeconds.assign(workloads,
                              std::vector<double>(runs, 0.0));
    timing_.phaseSeconds.assign(
        workloads, std::vector<GridTiming::CellPhases>(runs));
}

std::uint64_t
GridResults::totalInstructions() const
{
    std::uint64_t sum = 0;
    for (const auto &row : cells_)
        for (const Metrics &metrics : row)
            sum += metrics.instructions;
    return sum;
}

double
GridResults::instructionsPerSecond() const
{
    return timing_.totalSeconds > 0.0
               ? static_cast<double>(totalInstructions()) /
                     timing_.totalSeconds
               : 0.0;
}

stats::Table
GridResults::timingTable(
    const std::vector<GridWorkload> &workloads) const
{
    stats::Table table({"workload", "runs", "seconds"});
    for (std::size_t w = 0; w < timing_.runSeconds.size(); ++w) {
        double row_seconds = 0.0;
        for (const double s : timing_.runSeconds[w])
            row_seconds += s;
        table.addRow({w < workloads.size() ? workloads[w].name
                                           : std::to_string(w),
                      std::to_string(timing_.runSeconds[w].size()),
                      formatDouble(row_seconds, 2)});
    }
    table.addRow({"all (serial cell sum)",
                  std::to_string(timing_.runCount()),
                  formatDouble(timing_.serialSeconds(), 2)});
    table.addRow({"all (wall clock)",
                  std::to_string(timing_.runCount()),
                  formatDouble(timing_.totalSeconds, 2)});
    table.addRow({"throughput (runs/sec)", "-",
                  formatDouble(timing_.runsPerSecond(), 2)});
    table.addRow({"throughput (Minst/s)", "-",
                  formatDouble(instructionsPerSecond() / 1e6, 2)});
    table.addRow({"parallel speedup", "-",
                  formatDouble(timing_.totalSeconds > 0.0
                                   ? timing_.serialSeconds() /
                                         timing_.totalSeconds
                                   : 0.0,
                               2)});
    std::size_t shared = 0;
    for (const auto &row : execution_)
        shared += static_cast<std::size_t>(
            std::count(row.begin(), row.end(), CellExecution::Shared));
    table.addRow({"cells shared (exact)", std::to_string(shared), "-"});
    table.addRow({"phase: replay build (serial s)", "-",
                  formatDouble(timing_.replayBuildSeconds, 2)});
    table.addRow({"phase: warmup (serial s)", "-",
                  formatDouble(timing_.warmupSeconds(), 2)});
    table.addRow({"phase: measure (serial s)", "-",
                  formatDouble(timing_.measureSeconds(), 2)});
    table.addRow({"phase: stat export (serial s)", "-",
                  formatDouble(timing_.statExportSeconds(), 2)});
    return table;
}

void
checkSampledSets(unsigned factor)
{
    if (factor != 0 && !isPowerOfTwo(factor))
        throw std::invalid_argument(
            "sampling factor " + std::to_string(factor) +
            " is not a power of two");
}

GridPlan
planGrid(const PolicyGrid &grid, const GridOptions &options)
{
    if (grid.workloads.empty() || grid.runs.empty())
        throw std::invalid_argument("planGrid: empty grid");
    checkSampledSets(options.sampledSets);
    const std::size_t rows = grid.workloads.size();
    const std::size_t columns = grid.runs.size();
    GridPlan plan;
    for (const RunSpec &run : grid.runs) {
        plan.l2Specs.push_back(
            replacement::PolicySpec::parse(run.l2Policy));
        plan.l1iSpecs.push_back(
            replacement::PolicySpec::parse(run.options.l1iPolicy));
    }

    // Fused scheduling applies when every run of a row can share one
    // machine; with heterogeneous run knobs the whole grid falls back
    // to the per-cell engine (simplest correct rule — mixed grids are
    // the ablation harnesses, which are not throughput-bound).
    plan.fused = options.fused &&
                 std::all_of(grid.runs.begin(), grid.runs.end(),
                             [&grid](const RunSpec &run) {
                                 return run.options ==
                                        grid.runs.front().options;
                             });
    // A fused row's second column is the grid's first monitor lane.
    plan.sampledSets = plan.fused && columns > 1 && options.sampledSets > 1
                           ? options.sampledSets
                           : 0;
    plan.bufferRecords = recordsNeeded(grid);

    // Cache roles follow the request layout, not the miss set: with
    // fused scheduling, the first column of every kFusedLaneColumns
    // chunk is the exact timing lane and the rest are monitor lanes
    // driven by that column's policy. Hits are served before the row
    // builds, so a fully cached row skips even its source.
    const std::string &sha = buildInfo().gitSha;
    plan.cells.assign(rows, std::vector<CellPlan>(columns));
    for (std::size_t w = 0; w < rows; ++w) {
        for (std::size_t r = 0; r < columns; ++r) {
            CellPlan &cell = plan.cells[w][r];
            cell.timingColumn = plan.fused ? r - r % kFusedLaneColumns : r;
            if (!options.cellCache)
                continue;
            cell.cacheCanonical = cellCacheCanonical(
                grid.workloads[w], grid.runs[r],
                cell.timingColumn != r
                    ? grid.runs[cell.timingColumn].l2Policy
                    : std::string(),
                plan.sampledSets, sha);
            cell.cacheKey = cellCacheKey(cell.cacheCanonical);
            CellCacheEntry entry;
            if (options.cellCache->lookup(cell.cacheKey,
                                          cell.cacheCanonical, entry))
                cell.hit = std::move(entry);
        }
    }

    // One source per row, shared by every pass of the row. EMTC rows
    // stream: each pass, and each time-parallel chunk, opens the
    // container at its own start record through the block index and
    // decodes only the blocks it reads, so no cell waits on a
    // whole-trace decode. Synthetic rows and raw EMTR rows
    // (FileTraceSource loads the whole file at open) pack their
    // stream once into a RecordBuffer that every pass replays, within
    // the replay budget; past it, a synthetic row generates live and
    // an EMTR row reopens its file per pass. A cursor that outruns its
    // buffer continues from the buffer's tail. Every kind serves the
    // same records, so the Metrics are bit-identical
    // (tests/test_replay.cpp, tests/test_runner.cpp).
    const std::uint64_t budget_bytes =
        envU64("EMISSARY_REPLAY_BUDGET_MB", 1024) * 1024 * 1024;
    const std::uint64_t bytes_per_buffer =
        plan.bufferRecords * trace::RecordBuffer::kBytesPerRecord;
    std::uint64_t buffers_left =
        bytes_per_buffer > 0 ? budget_bytes / bytes_per_buffer : 0;
    plan.sources.assign(rows, RowSource::None);
    for (std::size_t w = 0; w < rows; ++w) {
        // A fully cached row never simulates, so it needs no source
        // either: the warm path costs identity probes only.
        const std::vector<CellPlan> &cells = plan.cells[w];
        if (std::all_of(cells.begin(), cells.end(),
                        [](const CellPlan &cell) { return cell.cached(); }))
            continue;
        const GridWorkload &row = grid.workloads[w];
        if (row.traceBacked() && isPackedTracePath(row.tracePath)) {
            plan.sources[w] = RowSource::Stream;
        } else if (buffers_left > 0) {
            --buffers_left;
            plan.sources[w] = RowSource::Replay;
        } else {
            plan.sources[w] =
                row.traceBacked() ? RowSource::Stream : RowSource::Live;
        }
    }

    // Two P(N) columns share a group when they differ in N alone:
    // same selector and the same run knobs (L1I policy and the
    // EMISSARY tree flag included). Chunked columns never group.
    // Groups form among the columns given, fresh cells only: a cached
    // cell has no range to share. A group's leader is its largest N,
    // the first column on a tie. Leaders come first, and the FIFO
    // pool starts them first: their members wait on them.
    const std::vector<replacement::PolicySpec> &specs = plan.l2Specs;
    const auto group = [&](std::size_t w,
                           const std::vector<std::size_t> &candidates) {
        std::vector<GridPass> groups;
        for (const std::size_t r : candidates) {
            if (specs[r].family != replacement::PolicyFamily::EmissaryP ||
                grid.runs[r].options.timeChunks > 1)
                continue;
            const auto found = std::find_if(
                groups.begin(), groups.end(), [&](const GridPass &g) {
                    const std::size_t lead = g.columns.front();
                    return specs[lead].selector == specs[r].selector &&
                           grid.runs[lead].options == grid.runs[r].options;
                });
            if (found == groups.end()) {
                groups.push_back({w, {r}, {}, {}});
            } else if (specs[r].protectN >
                       specs[found->columns.front()].protectN) {
                found->members.push_back(found->columns.front());
                found->columns.front() = r;
            } else {
                found->members.push_back(r);
            }
        }
        std::vector<GridPass> passes;
        std::vector<char> grouped(columns, 0);
        for (GridPass &g : groups) {
            if (g.members.empty())
                continue;
            grouped[g.columns.front()] = 1;
            for (const std::size_t r : g.members)
                grouped[r] = 1;
            passes.push_back(std::move(g));
        }
        for (const std::size_t r : candidates)
            if (!grouped[r])
                passes.push_back({w, {r}, {}, {}});
        return passes;
    };

    for (std::size_t w = 0; w < rows; ++w) {
        std::vector<std::size_t> fresh;
        for (std::size_t r = 0; r < columns; ++r)
            if (!plan.cells[w][r].cached())
                fresh.push_back(r);
        if (!plan.fused) {
            for (GridPass &pass : group(w, fresh))
                plan.passes.push_back(std::move(pass));
            continue;
        }
        // One timing pass per lane chunk, driven by its first column
        // even when that is cached; cached monitors already hold
        // their results, and the fresh ones replay the pass's log.
        for (std::size_t base = 0; base < columns;
             base += kFusedLaneColumns) {
            GridPass pass{w, {base}, {}, {}};
            for (const std::size_t r : fresh)
                if (r > base && r < base + kFusedLaneColumns)
                    pass.columns.push_back(r);
            pass.monitors = group(
                w, std::vector<std::size_t>(pass.columns.begin() + 1,
                                            pass.columns.end()));
            if (pass.columns.size() > 1 || !plan.cells[w][base].cached())
                plan.passes.push_back(std::move(pass));
        }
    }

    // A replay row predicts its block outcomes once when two or more
    // machines replay it from record 0: two passes, or one P(N) group
    // whose members may re-run. Its first pass keys the stream; a
    // pass under another predictor config predicts inline.
    plan.predictionColumns.assign(rows, std::nullopt);
    std::vector<std::size_t> machines(rows, 0);
    for (const GridPass &pass : plan.passes) {
        if (plan.sources[pass.row] != RowSource::Replay)
            continue;
        if (machines[pass.row] == 0)
            plan.predictionColumns[pass.row] = pass.columns.front();
        machines[pass.row] += 1 + pass.members.size();
    }
    for (std::size_t w = 0; w < rows; ++w)
        if (machines[w] < 2)
            plan.predictionColumns[w].reset();
    return plan;
}

GridResults
runGrid(const PolicyGrid &grid, ThreadPool &pool,
        const GridOptions &options,
        const std::function<void(std::size_t w, std::size_t r)>
            &progress, stats::SpanRecorder *recorder)
{
    const auto wall_start = std::chrono::steady_clock::now();
    const GridPlan plan = planGrid(grid, options);

    // A disabled recorder behaves exactly like no recorder: all the
    // instrumentation below keys off this one pointer.
    if (recorder && !recorder->enabled())
        recorder = nullptr;
    // Worker tracks are labelled lazily, from the worker itself, so
    // only threads that actually ran grid work appear in the trace.
    const auto label_track = [recorder]() {
        if (!recorder)
            return;
        const int worker = ThreadPool::currentWorkerIndex();
        recorder->labelThread(
            worker >= 0 ? "worker-" + std::to_string(worker)
                        : "caller");
    };

    GridResults results(grid.workloads.size(), grid.runs.size());
    results.timing_.workers = pool.workerCount();
    results.sources_ = plan.sources;
    results.fused_ = plan.fused;
    results.sampledSets_ = plan.sampledSets;
    std::mutex progress_mutex;
    // Progress-state shared by the completion counters; guarded by
    // progress_mutex like the user callback.
    std::size_t completed_cells = 0;
    std::uint64_t completed_instructions = 0;

    // Serialized completion bookkeeping shared by every cell.
    const auto note_cell_done = [&](std::size_t w, std::size_t r,
                                    std::uint64_t instructions) {
        if (!progress && !recorder)
            return;
        std::lock_guard<std::mutex> lock(progress_mutex);
        ++completed_cells;
        completed_instructions += instructions;
        if (recorder) {
            recorder->counter("cells_completed",
                              static_cast<double>(completed_cells));
            const double elapsed = secondsSince(wall_start);
            recorder->counter(
                "minst_per_sec",
                elapsed > 0.0 ? static_cast<double>(
                                    completed_instructions) /
                                    elapsed / 1e6
                              : 0.0);
        }
        if (progress)
            progress(w, r);
    };

    const bool collect = options.collectRegistries ||
                         options.cellCache != nullptr;

    // The plan's cache hits land first. The display name sits outside
    // the identity, so restamp it; every other field (footprint
    // included) was stored post-stamp and comes back as simulated.
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        for (std::size_t r = 0; r < grid.runs.size(); ++r) {
            const CellPlan &cell = plan.cells[w][r];
            if (!cell.cached())
                continue;
            results.cells_[w][r] = cell.hit->metrics;
            results.cells_[w][r].benchmark = grid.workloads[w].name;
            results.execution_[w][r] = CellExecution::Cached;
            if (collect)
                results.registries_[w][r] =
                    registryFromJson(cell.hit->counters);
            note_cell_done(w, r, results.cells_[w][r].instructions);
        }
    }

    // Every job's future, in submission order: the row builds, then
    // the passes. A P(N) group leader submits its re-run members from
    // inside its own job, so the vector is shared under a mutex with
    // the wait loop at the end. submit and the state the jobs use
    // live at this scope: they must outlive every job.
    //
    // A lane job goes ahead of every queued pass (submitAhead): a
    // finished pass's monitor lanes replay, and free its miss log,
    // before another pass starts recording one. A pass starts only
    // when no lane job is queued, so about one log per worker is
    // live at a time. Lane jobs never wait, and every build is taken
    // before the first pass ends, so the order cannot stall a build.
    //
    // Once a job has thrown, the grid has failed: a cell job
    // submitted after it returns without simulating. The first
    // failure in submission order never skips, so it is still the
    // error runGrid rethrows. Builds always run: a cell that already
    // started may be waiting on its row's promise.
    std::vector<std::future<void>> jobs;
    std::mutex jobs_mutex;
    std::size_t first_failed = std::numeric_limits<std::size_t>::max();
    jobs.reserve(grid.workloads.size() + grid.cellCount());
    enum class Job { Build, Pass, Lane };
    const auto submit = [&](Job kind, std::function<void()> job) {
        std::lock_guard<std::mutex> lock(jobs_mutex);
        const std::size_t index = jobs.size();
        auto guarded = [&, is_cell = kind != Job::Build, index,
                        job = std::move(job)]() {
            {
                std::lock_guard<std::mutex> check(jobs_mutex);
                if (is_cell && first_failed < index)
                    return;
            }
            try {
                job();
            } catch (...) {
                std::lock_guard<std::mutex> mark(jobs_mutex);
                first_failed = std::min(first_failed, index);
                throw;
            }
        };
        jobs.push_back(kind == Job::Lane
                           ? pool.submitAhead(std::move(guarded))
                           : pool.submit(std::move(guarded)));
    };

    // Programs outlive the sources that reference them. A row's
    // source exists once its build job settles the row's promise
    // (with the build's error, if it failed); a synthetic replay row
    // publishes its buffer before packing it, so the row's cells
    // start on records as the packer publishes them. A row's
    // prediction stream sees each chunk before the buffer publishes
    // it, so a machine never needs an outcome the stream has not
    // published, except after the last record. Build jobs never
    // wait and the pool is FIFO, so every build starts before any
    // cell: no worker count can leave a cell waiting on a build that
    // no worker runs.
    std::vector<std::unique_ptr<trace::SyntheticProgram>> programs(
        grid.workloads.size());
    std::vector<std::optional<RunSource>> sources(grid.workloads.size());
    std::vector<double> build_seconds(grid.workloads.size(), 0.0);
    std::vector<std::promise<void>> published(grid.workloads.size());
    std::vector<std::shared_future<void>> source_ready;
    source_ready.reserve(grid.workloads.size());
    for (std::promise<void> &promise : published)
        source_ready.push_back(promise.get_future().share());
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const RowSource kind = plan.sources[w];
        if (kind == RowSource::None)
            continue;
        submit(Job::Build, [&, kind, w]() {
            try {
                const auto build_start = std::chrono::steady_clock::now();
                label_track();
                stats::ScopedTimer span(recorder, "replay_build");
                span.arg("workload",
                         stats::JsonValue(grid.workloads[w].name));
                span.arg("source", stats::JsonValue(rowSourceName(kind)));
                const GridWorkload &row = grid.workloads[w];
                std::shared_ptr<trace::RecordBuffer> deferred;
                std::shared_ptr<frontend::PredictionStream> predictions;
                trace::RecordBuffer::ChunkObserver predict;
                if (const auto column = plan.predictionColumns[w]) {
                    // A block has at least one record.
                    predictions =
                        std::make_shared<frontend::PredictionStream>(
                            predictorConfig(grid.runs[*column].options),
                            plan.bufferRecords);
                    predict = [stream = predictions.get()](
                                  const trace::TraceRecord *records,
                                  std::size_t n) {
                        stream->append(records, n);
                    };
                }
                if (row.traceBacked()) {
                    // The buffer unrolls the trace's wrap-around, so
                    // any window length replays correctly; a cursor
                    // that still overruns re-opens the file at the
                    // overrun position via the tail factory. Both
                    // kinds report the container's pack-time
                    // footprint census. A raw EMTR row packs (and
                    // predicts) before it publishes.
                    const std::uint64_t census = traceFootprintLines(row);
                    if (kind == RowSource::Replay) {
                        auto buffer = buildTraceReplay(
                            row, plan.bufferRecords, pool, predict);
                        if (predictions)
                            predictions->finish();
                        sources[w].emplace(std::move(buffer), census,
                                           predictions);
                    } else
                        sources[w].emplace(
                            ChunkSourceFactory(
                                [&row](std::uint64_t start_record) {
                                    return openTraceSource(
                                        row, start_record);
                                }),
                            census);
                } else {
                    programs[w] =
                        std::make_unique<trace::SyntheticProgram>(
                            row.profile);
                    if (kind == RowSource::Replay) {
                        deferred = std::make_shared<trace::RecordBuffer>(
                            *programs[w], plan.bufferRecords,
                            trace::RecordBuffer::Packing::Deferred);
                        sources[w].emplace(
                            std::shared_ptr<const trace::RecordBuffer>(
                                deferred),
                            0, predictions);
                    } else {
                        sources[w].emplace(*programs[w]);
                    }
                }
                published[w].set_value();
                // Nothing past the publication throws: pack(),
                // append() and finish() are noexcept.
                if (deferred) {
                    deferred->pack(predict);
                    if (predictions)
                        predictions->finish();
                }
                span.arg("predicted_blocks",
                         stats::JsonValue(predictions
                                              ? predictions->published()
                                              : std::uint64_t{0}));
                build_seconds[w] = secondsSince(build_start);
            } catch (...) {
                published[w].set_exception(std::current_exception());
                throw;
            }
        });
    }

    // A fresh cell's result lands in its slot (and the cell cache);
    // every job writes only its own slots, so no locking, and
    // completion order cannot reorder or perturb the results.
    const auto fill_cell = [&](std::size_t w, std::size_t r, Metrics m,
                               stats::Registry &registry,
                               CellExecution execution, double seconds,
                               const GridTiming::CellPhases &phases) {
        // The grid row's name wins over the source's
        // self-description.
        m.benchmark = grid.workloads[w].name;
        if (options.cellCache) {
            CellCacheEntry entry;
            entry.metrics = m;
            entry.counters = registryJson(registry);
            options.cellCache->store(plan.cells[w][r].cacheKey,
                                     plan.cells[w][r].cacheCanonical,
                                     entry);
        }
        const std::uint64_t instructions = m.instructions;
        results.cells_[w][r] = std::move(m);
        if (collect)
            results.registries_[w][r] = std::move(registry);
        results.timing_.runSeconds[w][r] = seconds;
        results.timing_.phaseSeconds[w][r] = phases;
        results.execution_[w][r] = execution;
        return instructions;
    };

    // The one pass body: simulate column @p lead of row w, the timing
    // lane of a fused pass or a cell of its own. Fills the column's
    // slot unless it is a cached timing column, which drives the
    // pass but keeps its cached result: monitor results depend on the
    // timing lane's policy through the shared pipeline, and the cache
    // keyed them under that policy. With @p feed set the pass also
    // records there the feed its monitor lanes replay. Returns the
    // run's same-path N range (empty unless its L2 runs EMISSARY).
    const auto run_pass = [&](std::size_t w, std::size_t lead,
                              std::size_t lanes,
                              std::shared_ptr<const MonitorFeed> *feed) {
        // Rethrows the row build's error, which fails this cell.
        source_ready[w].get();
        const auto pass_start = std::chrono::steady_clock::now();
        label_track();
        const GridWorkload &row = grid.workloads[w];
        stats::ScopedTimer span(recorder, plan.fused ? "group" : "cell");
        RunTelemetry telemetry;
        telemetry.spans = recorder;
        Metrics metrics = runTiming(
            *sources[w], plan.l2Specs[lead], plan.l1iSpecs[lead],
            grid.runs[lead].options, feed, &pool, &telemetry);
        const double pass_seconds = secondsSince(pass_start);
        if (feed && span.active()) {
            std::vector<std::pair<std::string, stats::JsonValue>> args;
            args.emplace_back("events", stats::JsonValue(feedEvents(**feed)));
            args.emplace_back("bytes", stats::JsonValue(feedBytes(**feed)));
            recorder->recordSpan(
                "miss_log", recorder->toNs(pass_start),
                recorder->toNs(std::chrono::steady_clock::now()),
                std::move(args));
        }
        const bool fresh = !plan.cells[w][lead].cached();
        std::uint64_t instructions = 0;
        if (fresh)
            // A chunked timing lane is a splice, not an exact run —
            // its provenance must say so.
            instructions = fill_cell(
                w, lead, std::move(metrics), telemetry.registries.front(),
                telemetry.chunks > 1 ? CellExecution::TimeParallel
                : plan.fused         ? CellExecution::FusedTiming
                                     : CellExecution::Sequential,
                pass_seconds,
                {telemetry.warmupSeconds, telemetry.measureSeconds,
                 telemetry.statExportSeconds});
        if (span.active()) {
            span.arg("workload", stats::JsonValue(row.name));
            if (plan.fused)
                span.arg("lanes", stats::JsonValue(
                                      static_cast<std::uint64_t>(lanes)));
            span.arg("policy", stats::JsonValue(grid.runs[lead].l2Policy));
            // Grid-cell index: policy labels repeat across rows (and
            // group slices cover several cells), so slices stay
            // distinguishable.
            span.arg("cell", stats::JsonValue(static_cast<std::uint64_t>(
                                 w * grid.runs.size() + lead)));
            span.arg("instructions", stats::JsonValue(instructions));
            span.arg("minst_per_sec",
                     stats::JsonValue(
                         pass_seconds > 0.0
                             ? static_cast<double>(instructions) /
                                   pass_seconds / 1e6
                             : 0.0));
            span.arg("replay_wait_ms",
                     stats::JsonValue(1e3 * telemetry.replayWaitSeconds));
            span.arg("prediction_wait_ms",
                     stats::JsonValue(1e3 *
                                      telemetry.predictionWaitSeconds));
        }
        if (fresh)
            note_cell_done(w, lead, instructions);
        return telemetry.l2SameRunRange;
    };

    // One monitor lane: replay @p feed under column r's policy.
    const CellExecution monitor_execution =
        plan.sampledSets > 1 ? CellExecution::FusedMonitorSampled
                             : CellExecution::FusedMonitor;
    const auto run_lane = [&](std::size_t w, std::size_t r,
                              const MonitorFeed &feed) {
        label_track();
        stats::ScopedTimer span(recorder, "lane");
        RunTelemetry telemetry;
        Metrics metrics =
            replayMonitor(feed, plan.l2Specs[r], plan.sampledSets,
                          &telemetry);
        const std::uint64_t instructions = fill_cell(
            w, r, std::move(metrics), telemetry.registries.front(),
            monitor_execution,
            telemetry.wallSeconds,
            {telemetry.warmupSeconds, telemetry.measureSeconds, 0.0});
        if (span.active()) {
            span.arg("workload", stats::JsonValue(grid.workloads[w].name));
            span.arg("policy", stats::JsonValue(grid.runs[r].l2Policy));
            span.arg("cell", stats::JsonValue(static_cast<std::uint64_t>(
                                 w * grid.runs.size() + r)));
            span.arg("events", stats::JsonValue(feedEvents(feed)));
        }
        note_cell_done(w, r, instructions);
        return telemetry.l2SameRunRange;
    };

    // A group member inside its leader's range: the leader's run is
    // this cell's run, bit for bit, so only the policy name differs.
    // Runs in the leader's job, right after the leader's pass. An
    // exact member is marked shared; a monitor lane (@p feed set)
    // keeps its fused tag, and only its "lane" slice names the
    // leader.
    const auto share_cell = [&](std::size_t w, std::size_t r,
                                std::size_t leader,
                                const MonitorFeed *feed) {
        stats::ScopedTimer span(recorder, feed ? "lane" : "cell");
        Metrics metrics = results.cells_[w][leader];
        metrics.policy = plan.l2Specs[r].toString();
        stats::Registry registry = results.registries_[w][leader];
        const std::uint64_t instructions = fill_cell(
            w, r, std::move(metrics), registry,
            feed ? monitor_execution : CellExecution::Shared, 0.0, {});
        if (!feed)
            results.sharedWith_[w][r] = leader;
        if (span.active()) {
            span.arg("workload",
                     stats::JsonValue(grid.workloads[w].name));
            span.arg("policy", stats::JsonValue(grid.runs[r].l2Policy));
            span.arg("cell", stats::JsonValue(static_cast<std::uint64_t>(
                                 w * grid.runs.size() + r)));
            if (feed) {
                span.arg("events", stats::JsonValue(feedEvents(*feed)));
            } else {
                span.arg("instructions", stats::JsonValue(instructions));
                span.arg("minst_per_sec", stats::JsonValue(0.0));
                span.arg("replay_wait_ms", stats::JsonValue(0.0));
                span.arg("prediction_wait_ms", stats::JsonValue(0.0));
            }
            span.arg("shared_with",
                     stats::JsonValue(grid.runs[leader].l2Policy));
        }
        note_cell_done(w, r, instructions);
    };

    // The one submission loop: every pass in plan order. The only
    // decisions left to running jobs are a P(N) member's: inside the
    // leader's same-path range it shares the leader's result,
    // otherwise it re-runs on its own, queued behind the passes
    // already submitted, or replays its lane ahead of them. A fused
    // pass queues its monitor lanes when it ends; each lane job holds
    // the pass's feed, which goes when the last of them ends.
    for (const GridPass &planned : plan.passes) {
        submit(Job::Pass, [&, pass = &planned]() {
            const std::size_t w = pass->row;
            const std::size_t lead = pass->columns.front();
            std::shared_ptr<const MonitorFeed> feed;
            const replacement::ProtectRange same =
                run_pass(w, lead, pass->columns.size(),
                         pass->monitors.empty() ? nullptr : &feed);
            for (const std::size_t r : pass->members) {
                if (same.contains(plan.l2Specs[r].protectN))
                    share_cell(w, r, lead, nullptr);
                else
                    submit(Job::Pass,
                           [&, w, r]() { run_pass(w, r, 1, nullptr); });
            }
            for (const GridPass &lanes : pass->monitors) {
                submit(Job::Lane, [&, w, lanes = &lanes, feed]() mutable {
                    const std::size_t leader = lanes->columns.front();
                    const replacement::ProtectRange lane_same =
                        run_lane(w, leader, *feed);
                    for (const std::size_t r : lanes->members) {
                        if (lane_same.contains(plan.l2Specs[r].protectN))
                            share_cell(w, r, leader, feed.get());
                        else
                            submit(Job::Lane, [&, w, r, feed]() mutable {
                                run_lane(w, r, *feed);
                                feed.reset();
                            });
                    }
                    feed.reset();
                });
            }
        });
    }

    // Wait for every build and every cell; report the first failure,
    // in submission order, only after the stragglers finish (they
    // write local state). A job appends its follow-ups before its own
    // future completes, so once the index reaches the end no job is
    // left that could append.
    std::exception_ptr first_error;
    for (std::size_t i = 0;; ++i) {
        std::future<void> future;
        {
            std::lock_guard<std::mutex> lock(jobs_mutex);
            if (i == jobs.size())
                break;
            future = std::move(jobs[i]);
        }
        try {
            future.get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);

    for (const double s : build_seconds)
        results.timing_.replayBuildSeconds += s;
    results.timing_.totalSeconds = secondsSince(wall_start);
    return results;
}

stats::JsonValue
workloadProvenanceJson(const GridWorkload &row)
{
    using stats::JsonValue;
    JsonValue provenance = JsonValue::object();
    if (!row.traceBacked()) {
        provenance.set("type", JsonValue("synthetic"));
        provenance.set("profile", JsonValue(row.profile.name));
        return provenance;
    }
    provenance.set("type", JsonValue("trace"));
    provenance.set("path", JsonValue(row.tracePath));
    provenance.set("skip_records", JsonValue(row.skipRecords));
    provenance.set("max_records", JsonValue(row.maxRecords));
    if (isPackedTracePath(row.tracePath)) {
        const auto info = readTraceInfo(row.tracePath);
        provenance.set("records", JsonValue(info.recordCount));
        provenance.set("unique_code_lines",
                       JsonValue(info.uniqueCodeLines));
        provenance.set("file_bytes", JsonValue(info.fileBytes));
        provenance.set("compression_ratio",
                       JsonValue(info.compressionRatio()));
    }
    return provenance;
}

stats::JsonValue
sweepJson(const PolicyGrid &grid, const GridResults &results)
{
    using stats::JsonValue;

    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue("emissary.sweep.v1"));
    doc.set("workloads",
            JsonValue(static_cast<std::uint64_t>(
                grid.workloads.size())));
    doc.set("policies", JsonValue(static_cast<std::uint64_t>(
                            grid.runs.size())));
    doc.set("mode", JsonValue(results.fused() ? "fused" : "sequential"));
    doc.set("sampled_sets", JsonValue(static_cast<std::uint64_t>(
                                results.sampledSets())));

    // Splice provenance: readers of the sweep must see at the top
    // level that (some) cells carry the chunked approximation, not
    // exact end-to-end simulation. Per-cell detail sits in each
    // run's "execution" and "config".
    {
        std::uint64_t chunked_columns = 0;
        std::uint64_t max_chunks = 1;
        std::uint64_t warmup_records = 0;
        for (const RunSpec &spec : grid.runs) {
            if (spec.options.timeChunks <= 1)
                continue;
            ++chunked_columns;
            max_chunks = std::max<std::uint64_t>(
                max_chunks, spec.options.timeChunks);
            warmup_records = std::max(warmup_records,
                                      spec.options.chunkWarmupRecords);
        }
        if (chunked_columns > 0) {
            JsonValue tp = JsonValue::object();
            tp.set("chunked_columns", JsonValue(chunked_columns));
            tp.set("time_chunks", JsonValue(max_chunks));
            tp.set("chunk_warmup_records",
                   JsonValue(warmup_records));
            doc.set("time_parallel", std::move(tp));
        }
    }

    JsonValue runs = JsonValue::array();
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const GridWorkload &row = grid.workloads[w];

        const JsonValue provenance = workloadProvenanceJson(row);

        for (std::size_t r = 0; r < grid.runs.size(); ++r) {
            const RunSpec &spec = grid.runs[r];
            const RunOptions &opts = spec.options;

            JsonValue manifest = JsonValue::object();
            manifest.set("benchmark",
                         JsonValue(grid.workloads[w].name));
            manifest.set("workload", provenance);
            manifest.set("policy", JsonValue(spec.l2Policy));
            manifest.set("label", JsonValue(spec.label));
            manifest.set("seed", JsonValue(opts.seed));
            manifest.set("config", runOptionsJson(opts));

            manifest.set("execution",
                         JsonValue(cellExecutionName(
                             results.executionAt(w, r))));
            if (results.executionAt(w, r) != CellExecution::Cached)
                manifest.set("source", JsonValue(rowSourceName(
                                           results.sourceAt(w))));
            if (results.executionAt(w, r) == CellExecution::Shared)
                manifest.set(
                    "shared_with",
                    JsonValue(
                        grid.runs[results.sharedWith(w, r)].l2Policy));
            manifest.set("wall_seconds",
                         JsonValue(results.timing().runSeconds[w][r]));
            manifest.set("metrics", results.at(w, r).toJson());
            runs.push(std::move(manifest));
        }
    }
    doc.set("runs", std::move(runs));

    JsonValue timing = JsonValue::object();
    timing.set("total_seconds",
               JsonValue(results.timing().totalSeconds));
    timing.set("serial_seconds",
               JsonValue(results.timing().serialSeconds()));
    timing.set("runs_per_second",
               JsonValue(results.timing().runsPerSecond()));
    timing.set("instructions", JsonValue(results.totalInstructions()));
    timing.set("instructions_per_second",
               JsonValue(results.instructionsPerSecond()));
    timing.set("workers",
               JsonValue(static_cast<std::uint64_t>(
                   results.timing().workers)));

    JsonValue phases = JsonValue::object();
    phases.set("replay_build_seconds",
               JsonValue(results.timing().replayBuildSeconds));
    phases.set("warmup_seconds",
               JsonValue(results.timing().warmupSeconds()));
    phases.set("measure_seconds",
               JsonValue(results.timing().measureSeconds()));
    phases.set("stat_export_seconds",
               JsonValue(results.timing().statExportSeconds()));
    timing.set("phases", std::move(phases));

    JsonValue histogram = results.timing().cellWallHistogram().toJson();
    histogram.set("unit", JsonValue("microseconds"));
    timing.set("cell_wall_histogram", std::move(histogram));
    doc.set("timing", std::move(timing));

    doc.set("provenance", buildProvenanceJson());
    return doc;
}

void
writeSweepJson(const std::string &path, const PolicyGrid &grid,
               const GridResults &results)
{
    stats::writeJsonFile(path, sweepJson(grid, results));
}

} // namespace emissary::core
