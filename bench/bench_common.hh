/**
 * @file
 * Shared plumbing for the benchmark harnesses: every bench binary
 * regenerates one table or figure of the EMISSARY paper and prints
 * the same rows/series the paper reports.
 *
 * Window sizes default to laptop scale (the paper used 100 M
 * instruction windows on gem5 server racks); override with
 * EMISSARY_BENCH_INSTRUCTIONS / EMISSARY_BENCH_WARMUP, and restrict
 * the suite with EMISSARY_BENCHMARKS=tomcat,kafka,...
 */

#ifndef EMISSARY_BENCH_COMMON_HH
#define EMISSARY_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/threadpool.hh"
#include "stats/chrome_trace.hh"
#include "stats/span_recorder.hh"
#include "stats/table.hh"
#include "util/strutil.hh"

namespace emissary::bench
{

/** Default measured window per run (overridable via env). */
inline core::RunOptions
defaultOptions(std::uint64_t fallback_instructions = 1'000'000)
{
    core::RunOptions options;
    options.measureInstructions = core::envU64(
        "EMISSARY_BENCH_INSTRUCTIONS", fallback_instructions);
    options.warmupInstructions = core::envU64(
        "EMISSARY_BENCH_WARMUP", options.measureInstructions / 2);
    return options;
}

/** Print the standard bench banner. */
inline void
banner(const char *experiment, const char *paper_ref,
       const core::RunOptions &options)
{
    std::printf("=== EMISSARY reproduction: %s ===\n", experiment);
    std::printf("paper reference: %s\n", paper_ref);
    std::printf("machine: Alderlake-like (Table 4); window: %llu warm"
                " + %llu measured instructions; jobs: %u\n\n",
                static_cast<unsigned long long>(
                    options.warmupInstructions),
                static_cast<unsigned long long>(
                    options.measureInstructions),
                core::ThreadPool::defaultWorkerCount());
}

/**
 * Grid scheduling from the environment: EMISSARY_FUSED=1 runs each
 * workload's policies as one fused trace pass (a timing lane plus
 * one monitor-lane replay per other policy);
 * EMISSARY_SAMPLED_SETS=K additionally samples the monitor lanes
 * 1-in-K (fast mode, implies fused). Unset = the sequential engine,
 * exactly as before.
 */
inline core::GridOptions
gridOptionsFromEnv()
{
    core::GridOptions options;
    const char *fused = std::getenv("EMISSARY_FUSED");
    options.fused =
        fused && *fused != '\0' && std::string(fused) != "0";
    options.sampledSets = static_cast<unsigned>(
        core::envU64("EMISSARY_SAMPLED_SETS", 0));
    if (options.sampledSets > 1)
        options.fused = true;
    return options;
}

/**
 * Progress reporter for runGrid: prints "[name done]" once every run
 * of a workload has completed. runGrid serializes callback
 * invocations, so the plain counters need no locking.
 */
class WorkloadProgress
{
  public:
    explicit WorkloadProgress(const core::PolicyGrid &grid)
        : names_(grid.workloads.size()),
          remaining_(grid.workloads.size(), grid.runs.size())
    {
        for (std::size_t w = 0; w < grid.workloads.size(); ++w)
            names_[w] = grid.workloads[w].name;
    }

    void
    operator()(std::size_t w, std::size_t)
    {
        if (--remaining_[w] == 0) {
            std::printf("[%s done]\n", names_[w].c_str());
            std::fflush(stdout);
        }
    }

  private:
    std::vector<std::string> names_;
    std::vector<std::size_t> remaining_;
};

/**
 * runGrid with the flight recorder attached when EMISSARY_PERF_TRACE
 * names an output file: the sweep's spans and counters are written
 * there as a Chrome trace (open in Perfetto). With the variable
 * unset this is exactly core::runGrid — no recorder, no file.
 */
inline core::GridResults
runGridRecorded(const char *bench_name, const core::PolicyGrid &grid,
                core::ThreadPool &pool,
                const std::function<void(std::size_t, std::size_t)>
                    &progress = {})
{
    const core::GridOptions options = gridOptionsFromEnv();
    if (options.fused)
        std::printf("[%s] scheduling: fused%s\n", bench_name,
                    options.sampledSets > 1
                        ? (" (fast mode, 1-in-" +
                           std::to_string(options.sampledSets) +
                           " sets)")
                              .c_str()
                        : "");
    const char *path = std::getenv("EMISSARY_PERF_TRACE");
    if (!path || *path == '\0')
        return core::runGrid(grid, pool, options, progress);
    stats::SpanRecorder recorder;
    core::GridResults results =
        core::runGrid(grid, pool, options, progress, &recorder);
    stats::ChromeTraceWriter::write(path, recorder);
    std::printf("[%s] flight trace: %s (%zu spans)\n", bench_name,
                path, recorder.spanCount());
    return results;
}

/** Print the sweep's wall-clock accounting (tracked in results/). */
inline void
reportSweepTiming(const core::GridResults &results,
                  const std::vector<core::GridWorkload> &workloads)
{
    std::printf("sweep wall-clock:\n%s\n",
                results.timingTable(workloads).render().c_str());
}

/** Profile-list overload for harnesses that keep WorkloadProfiles. */
inline void
reportSweepTiming(const core::GridResults &results,
                  const std::vector<trace::WorkloadProfile> &workloads)
{
    reportSweepTiming(results, std::vector<core::GridWorkload>(
                                   workloads.begin(), workloads.end()));
}

/**
 * Write the sweep's JSON artifact ("<bench>_sweep.json": a per-run
 * manifest for every cell plus the timing aggregate) into the
 * directory named by EMISSARY_BENCH_JSON. Opt-in: with the variable
 * unset the bench binaries produce no files, as before.
 */
inline void
writeSweepArtifact(const std::string &bench_name,
                   const core::PolicyGrid &grid,
                   const core::GridResults &results)
{
    const char *dir = std::getenv("EMISSARY_BENCH_JSON");
    if (!dir || *dir == '\0')
        return;
    const std::string path =
        std::string(dir) + "/" + bench_name + "_sweep.json";
    core::writeSweepJson(path, grid, results);
    std::printf("sweep JSON: %s\n", path.c_str());
}

} // namespace emissary::bench

#endif // EMISSARY_BENCH_COMMON_HH
