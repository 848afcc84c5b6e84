/**
 * @file
 * The three grid workloads. The orchestrator prepares each run's
 * inputs and oracle (untimed); a child process then sets up, runs the
 * workload's ops in turn for the run's seconds, checks every result
 * cell, and in a traced run adds spans and the per-layer probes.
 *
 *   fig5_exact  the Fig. 5 grid on the sequential engine, one row
 *               (13 policies) per op;
 *   fig5_fused  the same grid as fused policy groups, four rows (one
 *               fused job per worker) per op;
 *   trace_long  one long EMTC trace run time-parallel (T = 4), one
 *               policy per op.
 *
 * Ops are short (about a second) so that a run holds dozens of them
 * and its medians pass over the host's brief slow spells.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>

#include "bench/e2e/harness.hh"
#include "core/experiment.hh"
#include "core/replay_build.hh"
#include "core/threadpool.hh"
#include "stats/chrome_trace.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "trace/replay.hh"
#include "workload/emtc.hh"

namespace emissary::e2e
{

using stats::JsonValue;

namespace
{

/** Rows of one fig5_fused op: one fused job per worker of 4. */
constexpr std::size_t kFusedRowsPerOp = 4;

/** One timed op: the rows and runs of the full grid it covers. */
struct OpShape
{
    std::vector<std::size_t> rows;
    std::vector<std::size_t> runs;
};

/** One grid workload, fully resolved for a seed. */
struct SweepSpec
{
    /** The whole grid: the shape of the oracle and the reference. */
    core::PolicyGrid grid;
    core::GridOptions options;
    /** The timed ops, run in this order, round after round. */
    std::vector<OpShape> ops;
    /** Reference oracle file (seed 0, full windows); empty = none. */
    std::string reference;
    /** Column whose cells are exact (-1 = every cell). */
    int exactColumn = -1;
    /** Time-parallel ops: no exact cells, an exact run is the oracle. */
    bool chunked = false;
    /** The trace_long container (empty for synthetic grids). */
    std::string tracePath;
    /** Generator of the probed stream (the trace's profile for
     *  trace_long) and the grid row that carries it. */
    trace::WorkloadProfile probeProfile;
    std::size_t probeRow = 0;
};

trace::WorkloadProfile
seededProfile(const std::string &name, std::uint64_t seed)
{
    trace::WorkloadProfile profile = trace::profileByName(name);
    profile.seed = mixSeed(profile.seed, seed);
    return profile;
}

struct TraceWindow
{
    std::uint64_t warmup;
    std::uint64_t measure;
    std::uint64_t records;
    std::uint64_t chunkWarmup;
};

TraceWindow
traceWindow(const RunConfig &config)
{
    if (config.smoke)
        return {100'000, 400'000, 600'000, 100'000};
    return {1'000'000, 8'000'000, 9'100'000, 1'000'000};
}

std::string
tracePathFor(const RunConfig &config)
{
    return std::filesystem::absolute(
               config.out + "/inputs/tomcat-s" +
               std::to_string(config.seed) +
               (config.smoke ? "-smoke" : "") + ".emtc")
        .string();
}

std::string
referencePath(const std::string &name)
{
    return std::string(EMISSARY_BENCH_REFERENCE_DIR) + "/" + name +
           "_seed0.json";
}

/** Where the orchestrator leaves a run's oracle for its child. */
std::string
oraclePath(const RunConfig &config)
{
    return config.out + "/" + config.workload + ".oracle.json";
}

std::vector<std::size_t>
indices(std::size_t from, std::size_t to)
{
    std::vector<std::size_t> out;
    for (std::size_t i = from; i < to; ++i)
        out.push_back(i);
    return out;
}

SweepSpec
makeSpec(const RunConfig &config, const std::string &workload)
{
    SweepSpec spec;
    const bool reference_ok = config.seed == 0 && !config.smoke;
    if (workload == "trace_long") {
        const TraceWindow window = traceWindow(config);
        spec.tracePath = tracePathFor(config);
        spec.probeProfile = seededProfile("tomcat", config.seed);
        core::RunOptions options =
            windowOptions(window.warmup, window.measure, config.seed);
        options.timeChunks = 4;
        options.chunkWarmupRecords = window.chunkWarmup;
        spec.grid = core::PolicyGrid::sweep(
            std::vector<core::GridWorkload>{
                core::GridWorkload("tomcat.trace", spec.tracePath)},
            requestPolicies(), options);
        // One long run per op: the latency a user of time-parallel
        // mode waits for.
        for (std::size_t r = 0; r < spec.grid.runs.size(); ++r)
            spec.ops.push_back({{0}, {r}});
        if (reference_ok)
            spec.reference = referencePath("trace_long");
        spec.chunked = true;
        return spec;
    }
    const std::vector<trace::WorkloadProfile> rows = fig5Rows(config.seed);
    // The two grids share their input, so each probes its own row:
    // the first for fig5_exact, the last for fig5_fused.
    spec.probeRow = workload == "fig5_fused" ? rows.size() - 1 : 0;
    spec.probeProfile = rows[spec.probeRow];
    const core::RunOptions options =
        config.smoke ? windowOptions(10'000, 30'000, config.seed)
                     : windowOptions(250'000, 500'000, config.seed);
    spec.grid = core::PolicyGrid::sweep(rows, fig5Policies(), options);
    if (reference_ok)
        spec.reference = referencePath("fig5");
    const std::vector<std::size_t> all_runs =
        indices(0, spec.grid.runs.size());
    if (workload == "fig5_exact") {
        // One workload under the 13 policies per op.
        for (std::size_t w = 0; w < rows.size(); ++w)
            spec.ops.push_back({{w}, all_runs});
    } else if (workload == "fig5_fused") {
        spec.options.fused = true;
        spec.exactColumn = 0; // Timing lanes; the rest are monitors.
        for (std::size_t w = 0; w < rows.size(); w += kFusedRowsPerOp)
            spec.ops.push_back(
                {indices(w, std::min(w + kFusedRowsPerOp, rows.size())),
                 all_runs});
    } else {
        throw std::invalid_argument("unknown workload: " + workload);
    }
    return spec;
}

/** The part of @p grid one op covers. */
core::PolicyGrid
opGrid(const core::PolicyGrid &grid, const OpShape &shape)
{
    core::PolicyGrid out;
    for (const std::size_t w : shape.rows)
        out.workloads.push_back(grid.workloads[w]);
    for (const std::size_t r : shape.runs)
        out.runs.push_back(grid.runs[r]);
    return out;
}

/** The grid with every cell on the exact sequential engine. */
core::PolicyGrid
exactGrid(core::PolicyGrid grid)
{
    for (core::RunSpec &run : grid.runs)
        run.options.timeChunks = 1;
    return grid;
}

/** Cells of an oracle document ({"cells": [[cell|null, ...], ...]}),
 *  checked against the shape of @p grid. */
CellOracle
loadCells(const std::string &path, const core::PolicyGrid &grid)
{
    const JsonValue doc = JsonValue::parse(readFile(path));
    const JsonValue &cells = *doc.find("cells");
    if (cells.size() != grid.workloads.size())
        throw std::runtime_error(path + ": row count does not match");
    CellOracle oracle(cells.size());
    for (std::size_t w = 0; w < cells.size(); ++w) {
        if (cells.at(w).size() != grid.runs.size())
            throw std::runtime_error(path +
                                     ": column count does not match");
        for (std::size_t r = 0; r < cells.at(w).size(); ++r)
            oracle[w].push_back(cells.at(w).at(r));
    }
    return oracle;
}

/** @p cells as the "cells" array of an oracle document. */
JsonValue
cellsJson(const CellOracle &cells)
{
    JsonValue rows = JsonValue::array();
    for (const auto &row : cells) {
        JsonValue out_row = JsonValue::array();
        for (const JsonValue &cell : row)
            out_row.push(cell);
        rows.push(std::move(out_row));
    }
    return rows;
}

bool
complete(const CellOracle &cells)
{
    for (const auto &row : cells)
        for (const JsonValue &cell : row)
            if (cell.isNull())
                return false;
    return !cells.empty();
}

/**
 * Oracle without a reference file: the baseline column plus one
 * rotating policy per row, each simulated by core::runPolicy on a
 * live SyntheticExecutor — a separate path from runGrid's shared
 * replay buffers, which the replay contract makes bit-identical.
 */
CellOracle
sampledOracle(const core::PolicyGrid &grid, core::ThreadPool &pool)
{
    CellOracle oracle(grid.workloads.size(),
                      std::vector<JsonValue>(grid.runs.size()));
    std::vector<std::future<JsonValue>> cells;
    std::vector<std::pair<std::size_t, std::size_t>> where;
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        auto program = std::make_shared<trace::SyntheticProgram>(
            grid.workloads[w].profile);
        std::vector<std::size_t> runs = {0};
        if (grid.runs.size() > 1)
            runs.push_back(1 + w % (grid.runs.size() - 1));
        for (const std::size_t r : runs) {
            const core::RunSpec &run = grid.runs[r];
            cells.push_back(pool.submit([program, run]() {
                return core::runPolicy(*program, run.l2Policy,
                                       run.options)
                    .toJson();
            }));
            where.emplace_back(w, r);
        }
    }
    for (std::size_t i = 0; i < cells.size(); ++i)
        oracle[where[i].first][where[i].second] = cells[i].get();
    return oracle;
}

/** Generate the trace_long container for this seed unless a valid
 *  one is already in place. */
void
ensureTrace(const RunConfig &config)
{
    const std::string path = tracePathFor(config);
    const TraceWindow window = traceWindow(config);
    if (fileExists(path)) {
        try {
            if (workload::readTraceInfo(path).recordCount ==
                window.records)
                return;
        } catch (const std::exception &) {
            // Fall through and regenerate a damaged container.
        }
    }
    makeDirs(std::filesystem::path(path).parent_path().string());
    const trace::SyntheticProgram program(
        seededProfile("tomcat", config.seed));
    trace::SyntheticExecutor executor(program);
    const std::string tmp = path + ".tmp";
    {
        workload::PackedTraceWriter writer(tmp, "tomcat");
        std::vector<trace::TraceRecord> batch(4096);
        for (std::uint64_t done = 0; done < window.records;) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(batch.size(),
                                        window.records - done));
            executor.fill(batch.data(), n);
            writer.append(batch.data(), n);
            done += n;
        }
        writer.finish();
    }
    std::filesystem::rename(tmp, path);
}

} // namespace

std::vector<trace::WorkloadProfile>
fig5Rows(std::uint64_t seed)
{
    std::vector<trace::WorkloadProfile> rows;
    for (const std::string &name : trace::suiteNames())
        if (name != "tpcc") // Omitted from Fig. 5, as in the paper.
            rows.push_back(seededProfile(name, seed));
    return rows;
}

const std::vector<std::string> &
fig5Policies()
{
    static const std::vector<std::string> policies = [] {
        std::vector<std::string> list = {"TPLRU", "M:0", "M:R(1/32)",
                                         "M:S&E", "M:S&E&R(1/32)"};
        for (const unsigned n : {2u, 6u, 10u, 14u}) {
            list.push_back("P(" + std::to_string(n) + "):S&E");
            list.push_back("P(" + std::to_string(n) + "):S&E&R(1/32)");
        }
        return list;
    }();
    return policies;
}

const std::vector<std::string> &
requestPolicies()
{
    static const std::vector<std::string> policies = {
        "TPLRU", "P(8):S&E&R(1/32)", "M:S&E", "P(4):S&E"};
    return policies;
}

core::RunOptions
windowOptions(std::uint64_t warmup, std::uint64_t measure,
              std::uint64_t seed)
{
    core::RunOptions options;
    options.warmupInstructions = warmup;
    options.measureInstructions = measure;
    options.seed = mixSeed(options.seed, seed);
    return options;
}

std::string
sweepWindows(const RunConfig &config)
{
    const SweepSpec spec = makeSpec(config, config.workload);
    const core::RunOptions &options = spec.grid.runs.front().options;
    return std::to_string(options.warmupInstructions) + "+" +
           std::to_string(options.measureInstructions) + " T=" +
           std::to_string(options.timeChunks) + " op=" +
           std::to_string(spec.ops.front().rows.size()) + "x" +
           std::to_string(spec.ops.front().runs.size());
}

std::vector<std::string>
prepareSweepInputs(const RunConfig &config)
{
    if (config.workload == "trace_long")
        ensureTrace(config);
    const SweepSpec spec = makeSpec(config, config.workload);
    core::ThreadPool pool(workerCount());
    std::vector<std::string> problems;
    CellOracle oracle;
    if (!spec.reference.empty())
        oracle = loadCells(spec.reference, spec.grid);
    if (spec.chunked) {
        // The exact run is both the accuracy oracle of the chunked
        // splices and, for seed 0, checked against the reference.
        const CellOracle exact =
            cellsOf(core::runGrid(exactGrid(spec.grid), pool));
        if (!oracle.empty()) {
            Outcome check;
            if (checkAgainst(exact, oracle, "trace_long exact", check))
                problems = check.problems;
        }
        oracle = exact;
    } else if (oracle.empty()) {
        // The traced fused run reports its error against every exact
        // cell; everything else needs only a sample.
        oracle = config.trace && spec.options.fused
                     ? cellsOf(core::runGrid(exactGrid(spec.grid), pool))
                     : sampledOracle(spec.grid, pool);
    }
    JsonValue doc = JsonValue::object();
    doc.set("cells", cellsJson(oracle));
    stats::writeJsonFile(oraclePath(config), doc);
    return problems;
}

int
setupOnly(const RunConfig &config)
{
    // What runGrid prepares for the first op before its first cell
    // simulates, through the same public calls: the grid, the pool,
    // and every row's program and replay buffer, built in parallel
    // (the trace decodes its blocks across the pool too).
    const SweepSpec spec = makeSpec(config, config.workload);
    const core::PolicyGrid grid = opGrid(spec.grid, spec.ops.front());
    core::ThreadPool pool(workerCount());
    std::uint64_t window = 0;
    for (const core::RunSpec &run : grid.runs)
        window = std::max(window, run.options.warmupInstructions +
                                      run.options.measureInstructions);
    const std::uint64_t records =
        trace::RecordBuffer::recordsForWindow(window);
    std::vector<std::future<std::uint64_t>> built;
    for (const core::GridWorkload &row : grid.workloads)
        built.push_back(pool.submit([&row, &pool, records]() {
            if (row.traceBacked())
                return core::buildTraceReplay(row, records, pool)->size();
            const trace::SyntheticProgram program(row.profile);
            return trace::RecordBuffer(program, records).size();
        }));
    std::uint64_t total = 0;
    for (auto &buffer : built)
        total += buffer.get();
    return total >= records * grid.workloads.size() ? 0 : 1;
}

Outcome
runSweepWorkload(const RunConfig &config)
{
    Outcome outcome;
    const SweepSpec spec = makeSpec(config, config.workload);
    core::ThreadPool pool(workerCount());
    std::vector<core::PolicyGrid> op_grids;
    for (const OpShape &shape : spec.ops)
        op_grids.push_back(opGrid(spec.grid, shape));
    const std::size_t round = spec.ops.size();
    // Read after the first op, so that the peak memory taken there is
    // the first op's in a fresh process and none of the checking's.
    CellOracle oracle;
    double peak_rss_mb = 0.0;

    // ---- timed ops ---------------------------------------------------
    stats::SpanRecorder recorder;
    // Op seconds at the reference host's speed, and as measured.
    std::vector<double> plain_seconds, traced_seconds, walls;
    std::vector<double> minst, scales;
    std::vector<core::GridTiming> timings;
    std::vector<std::uint64_t> instructions;
    // Every cell's first result, at its place in the whole grid; a
    // later op that runs the cell again must repeat it exactly.
    CellOracle first(spec.grid.workloads.size(),
                     std::vector<JsonValue>(spec.grid.runs.size()));
    std::unique_ptr<core::GridResults> last;
    std::size_t last_op = 0;
    // One op: a timed runGrid call, checked cell by cell. A traced
    // op records spans; untraced ops give the end-to-end numbers.
    const auto run_op = [&](std::size_t op, bool traced) {
        const OpShape &shape = spec.ops[op % round];
        const core::PolicyGrid &grid = op_grids[op % round];
        outcome.attempted += grid.cellCount();
        stats::SpanRecorder *spans = traced ? &recorder : nullptr;
        const double scale_before = hostScale();
        const auto op_start = Clock::now();
        stats::ScopedTimer span(spans, "op");
        auto results = std::make_unique<core::GridResults>(
            core::runGrid(grid, pool, spec.options, {}, spans));
        const double wall = secondsSince(op_start);
        span.arg("workload", JsonValue(config.workload));
        const double scale = 0.5 * (scale_before + hostScale());
        if (op == 0) {
            peak_rss_mb = peakRssMb();
            oracle = loadCells(oraclePath(config), spec.grid);
        }
        walls.push_back(wall);
        (traced ? traced_seconds : plain_seconds).push_back(wall / scale);
        if (!traced) {
            scales.push_back(scale);
            minst.push_back(
                static_cast<double>(results->totalInstructions()) /
                (wall / scale) / 1e6);
        }
        timings.push_back(results->timing());
        instructions.push_back(results->totalInstructions());
        for (std::size_t i = 0; i < shape.rows.size(); ++i) {
            for (std::size_t j = 0; j < shape.runs.size(); ++j) {
                const std::size_t w = shape.rows[i];
                const std::size_t r = shape.runs[j];
                const JsonValue cell = results->at(i, j).toJson();
                const JsonValue &expected = oracle[w][r];
                const bool exact_cell =
                    !spec.chunked && (spec.exactColumn < 0 ||
                                      r == static_cast<std::size_t>(
                                               spec.exactColumn));
                const char *why = nullptr;
                if (exact_cell && !expected.isNull() && cell != expected)
                    why = "differs from its oracle";
                else if (!first[w][r].isNull() && cell != first[w][r])
                    why = "differs from its first run";
                if (first[w][r].isNull())
                    first[w][r] = cell;
                if (!why)
                    continue;
                ++outcome.failed;
                if (outcome.problems.size() < 8)
                    outcome.problems.push_back(
                        config.workload + ": cell [" + std::to_string(w) +
                        "][" + std::to_string(r) + "] " + why);
            }
        }
        last = std::move(results);
        last_op = op % round;
    };
    // Ops run in turn while another one still fits in the run's
    // seconds. A traced run alternates untraced and traced rounds and
    // stops at a round's end after two or more, so both halves of
    // stats.trace_overhead_pct cover the same ops and every cell has
    // a result for the accuracy and model metrics.
    const auto start = Clock::now();
    try {
        for (std::size_t op = 0;; ++op) {
            run_op(op, config.trace && (op / round) % 2 == 1);
            const bool time_up =
                secondsSince(start) + median(walls) >= config.seconds;
            if (!config.trace && time_up)
                break;
            if (config.trace && op + 1 >= 2 * round &&
                (op + 1) % round == 0 && time_up)
                break;
        }
    } catch (const std::exception &error) {
        outcome.failed += spec.grid.cellCount();
        outcome.problems.push_back(config.workload + ": " + error.what());
    }
    if (!last)
        return outcome;

    if (!config.trace) {
        MetricValues &m = outcome.metrics;
        m["peak_rss_mb"] = peak_rss_mb;
        m["ref_minst_per_s"] = median(minst);
        m["ref_op_p50_ms"] = 1e3 * median(plain_seconds);
        m["raw.op_p50_ms"] = 1e3 * median(walls);
        m["raw.host_scale"] = median(scales);
        return outcome;
    }

    // ---- per-layer metrics (traced run) ----------------------------
    MetricValues &m = outcome.metrics;
    gridLayerMetrics(timings, instructions, m);
    const double plain = median(plain_seconds);
    m["stats.trace_overhead_pct"] =
        plain > 0.0 ? 100.0 * (median(traced_seconds) / plain - 1.0)
                    : 0.0;
    if (complete(first)) {
        modelMetrics(first, m);
        const ModeError error = complete(oracle) ? modeError(first, oracle)
                                                 : ModeError{};
        m["accuracy.speedup_err_pp"] = error.speedupErrPp;
        m["accuracy.ipc_err_pct"] = error.ipcErrPct;
        m["accuracy.l2i_mpki_err"] = error.l2iMpkiErr;
    } else {
        outcome.fail(config.workload + ": the traced run did not cover "
                                       "every cell");
    }
    runProbes(config,
              {spec.probeProfile, spec.grid.workloads[spec.probeRow]},
              &op_grids[last_op], last.get(), recorder, outcome);
    stats::ChromeTraceWriter::write(
        config.out + "/" + config.workload + ".trace.json", recorder);
    return outcome;
}

int
writeReferences(const RunConfig &config)
{
    RunConfig base = config;
    base.seed = 0;
    base.smoke = false;
    core::ThreadPool pool(workerCount());
    for (const std::string workload : {"fig5_exact", "trace_long"}) {
        base.workload = workload;
        if (workload == "trace_long")
            ensureTrace(base);
        SweepSpec spec = makeSpec(base, workload);
        const CellOracle cells =
            cellsOf(core::runGrid(exactGrid(spec.grid), pool));
        JsonValue doc = JsonValue::object();
        doc.set("schema", JsonValue("emissary.e2e.reference.v1"));
        doc.set("workload", JsonValue(workload == "trace_long"
                                          ? "trace_long"
                                          : "fig5"));
        doc.set("seed", JsonValue(std::uint64_t{0}));
        doc.set("cells", cellsJson(cells));
        const std::string path = referencePath(
            workload == "trace_long" ? "trace_long" : "fig5");
        stats::writeJsonFile(path, doc);
        std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    return 0;
}

int
selfTest(const RunConfig &config)
{
    RunConfig base = config;
    base.seed = 0;
    base.smoke = false;
    SweepSpec spec = makeSpec(base, "fig5_exact");
    CellOracle reference = loadCells(spec.reference, spec.grid);
    // One row, two columns: enough to exercise the checker.
    spec.grid.workloads.resize(1);
    spec.grid.runs.resize(2);
    reference.resize(1);
    reference[0].resize(2);
    core::ThreadPool pool(workerCount());
    const CellOracle cells = cellsOf(core::runGrid(spec.grid, pool));

    Outcome clean;
    const std::uint64_t clean_failed =
        checkAgainst(cells, reference, "self-test", clean);
    CellOracle perturbed = reference;
    JsonValue *cycles = perturbed[0][1].find("cycles");
    *cycles = JsonValue(cycles->asUint() + 1);
    Outcome tampered;
    const std::uint64_t failed =
        checkAgainst(cells, perturbed, "self-test", tampered);
    std::printf("{\"correct\": %s, \"attempted\": 2, \"failed\": %llu, "
                "\"fail_frac\": %.3f, \"clean_failed\": %llu}\n",
                failed ? "false" : "true",
                static_cast<unsigned long long>(failed),
                static_cast<double>(failed) / 2.0,
                static_cast<unsigned long long>(clean_failed));
    // The check must pass the true reference and trip on the
    // perturbed one.
    return clean_failed == 0 && failed > 0 ? 0 : 1;
}

} // namespace emissary::e2e
