/**
 * @file
 * Approximate-mode error bounds: sweeps the full datacenter suite
 * (the fig5 workloads) once under the sequential engine, the oracle,
 * then under every approximate execution mode, and reports each
 * mode's L2I/L2D/L3 MPKI, IPC and speedup error against the oracle
 * in one table. The table is the source of the bounds quoted in
 * docs/performance.md and is archived in results/mode_validation.txt.
 *
 * The modes:
 *  - fused, with full, 1-in-8 and 1-in-16 sampled monitor lanes. The
 *    timing lane (each workload's first policy) is the sequential
 *    simulation itself, not an approximation of it, so it is no
 *    error sample: the run fails unless its full Metrics equal the
 *    oracle's. Monitor lanes are untimed (core::Metrics::timed), so
 *    a fused mode samples MPKI only and prints IPC and speedup
 *    error as n/a.
 *  - time-parallel chunked at T = 2, 4 and 8. Chunking approximates
 *    every cell, so every cell is a sample, and the run fails when a
 *    mode's mean L2I MPKI error exceeds 0.2.
 *
 * Each mode's speedups are taken against its own baseline column;
 * for fused modes that column is the exact timing lane.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "trace/program.hh"

namespace
{

using namespace emissary;

/** Max and mean absolute error of one metric over a mode's cells. */
struct ErrorStats
{
    double maxAbs = 0.0;
    double sumAbs = 0.0;
    std::uint64_t samples = 0;

    void
    add(double reference, double candidate)
    {
        const double err = std::fabs(candidate - reference);
        maxAbs = std::max(maxAbs, err);
        sumAbs += err;
        ++samples;
    }

    /** NaN, printed n/a, when no cell was a sample: the IPC and
     *  speedup of a fused mode, whose monitor lanes are untimed. */
    double
    max() const
    {
        return core::timedFigure(samples > 0, maxAbs);
    }
    double
    mean() const
    {
        return core::timedFigure(
            samples > 0, sumAbs / static_cast<double>(samples));
    }
};

/** One execution mode and its error against the oracle. */
struct Mode
{
    std::string label;
    core::GridOptions scheduling;
    unsigned timeChunks = 1;
    ErrorStats l2Inst, l2Data, l3, ipcPct, speedupPct;
    std::uint64_t timingMismatches = 0;
    double seconds = 0.0;
};

} // namespace

int
main()
{
    // Time-parallel mode exists for long runs: short windows have no
    // chunk-level parallelism worth its warming overhead and amplify
    // the boundary transient. So every mode is measured at long-run
    // scale, 4M-instruction windows by default
    // (EMISSARY_BENCH_INSTRUCTIONS overrides). 1M warming records is
    // the measured knee where even 8-chunk splices hold the L2I
    // gate: the L3 is the slowest structure to warm, and shorter
    // prefixes leave chunk-boundary L3-miss transients that depress
    // IPC well before they move the MPKI columns.
    const core::RunOptions options = bench::defaultOptions(4'000'000);
    constexpr std::uint64_t kWarmRecords = 1'000'000;
    bench::banner("mode validation - fused, sampled and chunked "
                  "error bounds",
                  "methodology check (approximate execution modes)",
                  options);

    // The fig5 policy shape in miniature: the TPLRU baseline first
    // (every fused group's timing lane), then the headline EMISSARY
    // points and an insertion-policy control.
    const std::vector<std::string> policies = {
        "TPLRU", "P(8):S&E&R(1/32)", "P(8):S", "M:R(1/32)"};
    const std::vector<trace::WorkloadProfile> workloads =
        core::selectedBenchmarks();
    core::ThreadPool pool;

    std::vector<Mode> modes;
    for (const unsigned sampled : {0u, 8u, 16u}) {
        Mode mode;
        mode.label = sampled == 0 ? "fused, full monitors"
                                  : "fused, 1-in-" +
                                        std::to_string(sampled) +
                                        " sets";
        mode.scheduling.fused = true;
        mode.scheduling.sampledSets = sampled;
        modes.push_back(mode);
    }
    for (const unsigned chunks : {2u, 4u, 8u}) {
        Mode mode;
        mode.label = "chunked, T=" + std::to_string(chunks);
        mode.timeChunks = chunks;
        modes.push_back(mode);
    }

    const auto run_mode = [&](Mode &mode) {
        core::RunOptions run_options = options;
        if (mode.timeChunks > 1) {
            run_options.timeChunks = mode.timeChunks;
            run_options.chunkWarmupRecords = kWarmRecords;
        }
        const core::PolicyGrid grid =
            core::PolicyGrid::sweep(workloads, policies, run_options);
        std::printf("pass: %s, %zu cells\n", mode.label.c_str(),
                    grid.cellCount());
        std::fflush(stdout);
        const auto start = std::chrono::steady_clock::now();
        core::GridResults results =
            core::runGrid(grid, pool, mode.scheduling, {});
        mode.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        return results;
    };

    Mode oracle;
    oracle.label = "sequential oracle";
    const core::GridResults reference = run_mode(oracle);

    for (Mode &mode : modes) {
        const core::GridResults results = run_mode(mode);
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            for (std::size_t p = 0; p < policies.size(); ++p) {
                const core::Metrics &ref = reference.at(w, p);
                const core::Metrics &got = results.at(w, p);
                if (mode.scheduling.fused && p == 0) {
                    if (got.toJson() != ref.toJson())
                        ++mode.timingMismatches;
                    continue;
                }
                mode.l2Inst.add(ref.l2InstMpki, got.l2InstMpki);
                mode.l2Data.add(ref.l2DataMpki, got.l2DataMpki);
                mode.l3.add(ref.l3Mpki, got.l3Mpki);
                if (!got.timed())
                    continue;
                mode.ipcPct.add(
                    0.0, ref.ipc > 0.0
                             ? 100.0 * (got.ipc - ref.ipc) / ref.ipc
                             : 0.0);
                if (p > 0)
                    mode.speedupPct.add(
                        core::speedupPercent(reference.at(w, 0), ref),
                        core::speedupPercent(results.at(w, 0), got));
            }
        }
    }

    stats::Table table({"mode", "L2I MPKI err max", "mean",
                        "L2D MPKI err max", "mean", "L3 MPKI err max",
                        "mean", "IPC err% max", "mean",
                        "speedup% err max", "mean", "timing lane",
                        "wall vs seq"});
    for (const Mode &mode : modes)
        table.addRow(
            {mode.label, formatDouble(mode.l2Inst.max(), 3),
             formatDouble(mode.l2Inst.mean(), 3),
             formatDouble(mode.l2Data.max(), 3),
             formatDouble(mode.l2Data.mean(), 3),
             formatDouble(mode.l3.max(), 3),
             formatDouble(mode.l3.mean(), 3),
             formatDouble(mode.ipcPct.max(), 2),
             formatDouble(mode.ipcPct.mean(), 2),
             formatDouble(mode.speedupPct.max(), 2),
             formatDouble(mode.speedupPct.mean(), 2),
             !mode.scheduling.fused       ? "none"
             : mode.timingMismatches == 0 ? "bit-identical"
                                          : "MISMATCH",
             formatDouble(oracle.seconds / (mode.seconds > 0.0
                                                ? mode.seconds
                                                : 1.0),
                          2) +
                 "x"});

    const std::string rendered = table.render();
    std::printf("\nerror vs the sequential oracle (%zu workloads x "
                "%zu policies):\n%s\n",
                workloads.size(), policies.size(), rendered.c_str());
    std::printf("sequential oracle: %.2f s wall; %u pool workers\n",
                oracle.seconds, pool.workerCount());

    // Archive the table for docs/performance.md (opt-out by
    // pointing EMISSARY_VALIDATION_OUT at an empty string).
    const char *out_env = std::getenv("EMISSARY_VALIDATION_OUT");
    const std::string out_path =
        out_env ? out_env : "results/mode_validation.txt";
    if (!out_path.empty()) {
        if (std::FILE *out = std::fopen(out_path.c_str(), "w")) {
            std::fprintf(
                out,
                "Mode validation: error of each approximate execution\n"
                "mode vs the sequential oracle over the datacenter\n"
                "suite (%zu workloads; policies: TPLRU,\n"
                "P(8):S&E&R(1/32), P(8):S, M:R(1/32); window %llu\n"
                "warm + %llu measured instructions; chunked modes\n"
                "warm each later chunk over %llu records). Fused rows\n"
                "count the monitor lanes only: the TPLRU timing lane\n"
                "must equal the oracle. Monitor lanes are untimed, so\n"
                "fused rows have no IPC or speedup error (n/a).\n"
                "Chunked rows count every cell.\n"
                "Speedups are taken against each mode's own TPLRU "
                "column.\n"
                "Regenerate from the repo root:\n"
                "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release\n"
                "  cmake --build build -j && "
                "./build/bench/bench_mode_validation\n\n%s\n"
                "sequential oracle: %.2f s wall\n"
                "gates: fused timing lanes bit-identical; chunked "
                "mean L2I MPKI error <= 0.2\n",
                workloads.size(),
                static_cast<unsigned long long>(
                    options.warmupInstructions),
                static_cast<unsigned long long>(
                    options.measureInstructions),
                static_cast<unsigned long long>(kWarmRecords),
                rendered.c_str(), oracle.seconds);
            std::fclose(out);
            std::printf("validation table: %s\n", out_path.c_str());
        } else {
            std::printf("validation table: cannot write %s "
                        "(run from the repo root)\n",
                        out_path.c_str());
        }
    }

    int status = 0;
    for (const Mode &mode : modes) {
        if (mode.timingMismatches != 0) {
            std::printf("FAIL: %s: %llu timing lanes differ from "
                        "the oracle\n",
                        mode.label.c_str(),
                        static_cast<unsigned long long>(
                            mode.timingMismatches));
            status = 1;
        }
        if (mode.timeChunks > 1 && mode.l2Inst.mean() > 0.2) {
            std::printf("FAIL: %s mean L2I MPKI error %.3f exceeds "
                        "the 0.2 gate\n",
                        mode.label.c_str(), mode.l2Inst.mean());
            status = 1;
        }
    }
    return status;
}
