/**
 * @file
 * Shared plumbing of the end-to-end benchmark (bench/e2e/README.md):
 * run options, the metric map every workload fills, order statistics,
 * child-process control and the oracle comparison of grid results.
 */

#ifndef EMISSARY_BENCH_E2E_HARNESS_HH
#define EMISSARY_BENCH_E2E_HARNESS_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/grid.hh"
#include "stats/json.hh"
#include "stats/span_recorder.hh"

namespace emissary::e2e
{

/** Everything one benchmark invocation was asked to do. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 30.0;
    bool trace = false;
    /** Tiny windows and short runs: the ctest smoke hook. */
    bool smoke = false;
    /** Scratch and result directory (inside the checkout). */
    std::string out = "build-bench/e2e-out";
};

/** The workloads, in the order a full run executes them. */
const std::vector<std::string> &workloadNames();

/** Metric name -> value, as measured (units live in BENCHMARK.json). */
using MetricValues = std::map<std::string, double>;

/** What a measuring process reports back to the orchestrator. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Checks outside the op count held (the exact trace run against
     *  its reference, a traced run covering every cell, ...). */
    bool checksOk = true;
    MetricValues metrics;
    /** Human-readable notes on failed checks (stderr + result file). */
    std::vector<std::string> problems;

    stats::JsonValue toJson() const;
    static Outcome fromJson(const stats::JsonValue &doc);
    void fail(const std::string &why);
};

// ---- order statistics --------------------------------------------

double median(std::vector<double> values);

/** Python's statistics.quantiles(values, n=4) ("exclusive" method);
 *  values.size() >= 2. */
std::vector<double> quartiles(std::vector<double> values);

/**
 * The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
 * beyond it (nearest rank); the median when fewer than 20 samples
 * exist.
 */
double highPercentile(std::vector<double> values);

// ---- time ----------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** User + system CPU seconds of this process so far. */
double processCpuSeconds();

/**
 * How much slower than the reference host this host runs right now
 * (1 = as fast): the calibration kernel's mean time on workerCount()
 * threads at once against its reference time (calibrate.cc). A timed
 * metric is its measured time divided by the mean of the scales taken
 * just before and just after it, that is, the time the reference host
 * would have taken.
 */
double hostScale();

/** Peak resident set of this process so far (VmHWM), MB. */
double peakRssMb();

// ---- child processes -----------------------------------------------

/** Start @p argv with stdout sent to stderr (the result line is the
 *  orchestrator's) and @p log_path receiving both when non-empty.
 *  @throws std::runtime_error when the spawn fails. */
pid_t spawn(const std::vector<std::string> &argv,
            const std::string &log_path = "");

/** Reap @p pid; returns its exit code (128+signal when killed) and
 *  its peak resident set in MB. */
int reap(pid_t pid, double *peak_rss_mb = nullptr);

/** Owns a started child: SIGTERM + reap on destruction unless
 *  released by an explicit reap. */
class ChildGuard
{
  public:
    explicit ChildGuard(pid_t pid) : pid_(pid) {}
    ~ChildGuard();
    ChildGuard(const ChildGuard &) = delete;
    ChildGuard &operator=(const ChildGuard &) = delete;

    pid_t pid() const { return pid_; }
    int reap(double *peak_rss_mb);

  private:
    pid_t pid_;
};

/** Path of the running executable. */
std::string selfPath();

void makeDirs(const std::string &path);
void removeTree(const std::string &path);
std::string readFile(const std::string &path);
bool fileExists(const std::string &path);

// ---- inputs ----------------------------------------------------------

/** Mix the benchmark seed into a generator seed; seed 0 keeps
 *  @p base, so seed 0 reproduces the repository's own fig5 inputs. */
std::uint64_t mixSeed(std::uint64_t base, std::uint64_t seed);

/** Worker threads of every pool: the pool default. */
unsigned workerCount();

/** The Fig. 5 rows (the suite without tpcc), each profile seeded. */
std::vector<trace::WorkloadProfile> fig5Rows(std::uint64_t seed);

/** The default Fig. 5 policy columns (bench_fig5_policy_sweep);
 *  column 0 is the TPLRU baseline. */
const std::vector<std::string> &fig5Policies();

/** Run options of the given windows with the seed mixed in. */
core::RunOptions windowOptions(std::uint64_t warmup, std::uint64_t measure,
                               std::uint64_t seed);

/** The run's windows and op shape, stored with its record so that
 *  --compare never pools runs of different settings. */
std::string sweepWindows(const RunConfig &config);

// ---- oracle comparison ---------------------------------------------

/** One exact result per grid cell, [workload][run]; a null entry is
 *  a cell the oracle did not compute. */
using CellOracle = std::vector<std::vector<stats::JsonValue>>;

/** Every cell's Metrics as JSON ([workload][run]). */
CellOracle cellsOf(const core::GridResults &results);

/** Compare @p actual with @p oracle cell by cell (bit-exact
 *  Metrics JSON); returns the mismatching cells' count and records
 *  the first few in @p outcome. Cells where @p oracle is null are
 *  skipped; @p only_run >= 0 restricts the check to that column. */
std::uint64_t checkAgainst(const CellOracle &actual,
                           const CellOracle &oracle,
                           const std::string &what, Outcome &outcome,
                           int only_run = -1);

/** Error of an approximate result against its exact oracle: max
 *  |speedup% delta| over non-baseline cells, max relative IPC error
 *  in %, mean |L2I MPKI delta|. Column 0 is the baseline. */
struct ModeError
{
    double speedupErrPp = 0.0;
    double ipcErrPct = 0.0;
    double l2iMpkiErr = 0.0;
};
ModeError modeError(const CellOracle &approx, const CellOracle &exact);

/** Simulated-model summary of a result table (column 0 = baseline):
 *  model.ipc, model.l1i_mpki, model.l2i_mpki, model.l2d_mpki,
 *  model.starv_per_ki, model.best_speedup_pct. */
void modelMetrics(const CellOracle &cells, MetricValues &out);

/** Grid-engine layer metrics of a set of timed runGrid calls:
 *  trace.replay_build_s, core.sim_ns_per_inst, core.warmup_share,
 *  core.cell_ms.{p50,p_hi,n}, core.pool_busy_frac. */
void gridLayerMetrics(const std::vector<core::GridTiming> &timings,
                      const std::vector<std::uint64_t> &instructions,
                      MetricValues &out);

// ---- workloads ---------------------------------------------------------

/** Setup only (the setup_s probe): the system's own preparation of
 *  one op, without the harness's oracle; exit status 0 when ready. */
int setupOnly(const RunConfig &config);

/** The measuring child of a sweep workload (fig5_*, trace_long). */
Outcome runSweepWorkload(const RunConfig &config);

/** What a sweep workload's child needs before it starts, made in the
 *  orchestrator so that its cost and memory stay out of the child's
 *  numbers: the trace_long container and the oracle cells the child
 *  checks against. Not timed. Returns the checks that failed on the
 *  way (the exact trace run against its reference). */
std::vector<std::string> prepareSweepInputs(const RunConfig &config);

/** Per-layer probe input: where a workload's stream comes from. The
 *  probes read the first records of that stream. No two workloads
 *  probe the same stream. */
struct ProbeInput
{
    trace::WorkloadProfile profile;   ///< Generator of the stream.
    core::GridWorkload row;           ///< Row as the workload runs it.
};

/** Run every layer probe on @p input, adding its per-layer metrics
 *  (spans go to @p recorder). @p own_results, when non-null, is the
 *  workload's last timed grid, used for stats.sweep_json_ms. */
void runProbes(const RunConfig &config, const ProbeInput &input,
               const core::PolicyGrid *own_grid,
               const core::GridResults *own_results,
               stats::SpanRecorder &recorder, Outcome &outcome);

/** The four policies of the trace_long grid and the probe grids:
 *  the baseline, the paper's best EMISSARY setting and two more. */
const std::vector<std::string> &requestPolicies();

// ---- tools -------------------------------------------------------------

/** --compare A B: 1 on any regression, 2 when only unresolved
 *  metrics remain, else 0.
 *  @throws std::runtime_error when the records mix settings. */
int compareRuns(const std::string &a, const std::string &b,
                const std::string &spec_path);

/** --write-reference: exact seed-0 oracles into the reference dir. */
int writeReferences(const RunConfig &config);

/** --self-test: a perturbed reference must fail the check. */
int selfTest(const RunConfig &config);

} // namespace emissary::e2e

#endif // EMISSARY_BENCH_E2E_HARNESS_HH
