#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench/e2e/harness.hh"
#include "core/experiment.hh"
#include "core/observability.hh"
#include "core/threadpool.hh"

extern char **environ;

namespace emissary::e2e
{

using stats::JsonValue;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig5_exact", "fig5_fused", "trace_long"};
    return names;
}

JsonValue
Outcome::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc.set("attempted", JsonValue(attempted));
    doc.set("failed", JsonValue(failed));
    doc.set("checks_ok", JsonValue(checksOk));
    JsonValue values = JsonValue::object();
    for (const auto &[name, value] : metrics)
        values.set(name, JsonValue(value));
    doc.set("metrics", std::move(values));
    JsonValue notes = JsonValue::array();
    for (const std::string &note : problems)
        notes.push(JsonValue(note));
    doc.set("problems", std::move(notes));
    return doc;
}

Outcome
Outcome::fromJson(const JsonValue &doc)
{
    Outcome outcome;
    outcome.attempted = doc.find("attempted")->asUint();
    outcome.failed = doc.find("failed")->asUint();
    outcome.checksOk = doc.find("checks_ok")->asBool();
    for (const auto &[name, value] : doc.find("metrics")->members())
        outcome.metrics[name] = value.asDouble();
    const JsonValue &notes = *doc.find("problems");
    for (std::size_t i = 0; i < notes.size(); ++i)
        outcome.problems.push_back(notes.at(i).asString());
    return outcome;
}

void
Outcome::fail(const std::string &why)
{
    checksOk = false;
    problems.push_back(why);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double>
quartiles(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const long ld = static_cast<long>(values.size());
    const long m = ld + 1;
    std::vector<double> result;
    for (long i = 1; i < 4; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        result.push_back((values[j - 1] * static_cast<double>(4 - delta) +
                          values[j] * static_cast<double>(delta)) /
                         4.0);
    }
    return result;
}

double
highPercentile(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (n * (1.0 - p / 100.0) < 10.0)
            continue;
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * n));
        return values[std::max<std::size_t>(rank, 1) - 1];
    }
    return median(values);
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec +
                               usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                      usage.ru_stime.tv_usec);
}

double
peakRssMb()
{
    std::istringstream status(readFile("/proc/self/status"));
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

pid_t
spawn(const std::vector<std::string> &argv, const std::string &log_path)
{
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    if (log_path.empty()) {
        posix_spawn_file_actions_adddup2(&actions, 2, 1);
    } else {
        posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
    }
    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, args[0], &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
        throw std::runtime_error("cannot start " + argv[0] + ": " +
                                 std::strerror(rc));
    return pid;
}

int
reap(pid_t pid, double *peak_rss_mb)
{
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR)
            throw std::runtime_error(std::string("wait4: ") +
                                     std::strerror(errno));
    }
    if (peak_rss_mb)
        *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return 128 + WTERMSIG(status);
}

ChildGuard::~ChildGuard()
{
    if (pid_ <= 0)
        return;
    kill(pid_, SIGTERM);
    try {
        e2e::reap(pid_, nullptr);
    } catch (const std::exception &) {
        // Nothing left to release; the child is gone or not ours.
    }
}

int
ChildGuard::reap(double *peak_rss_mb)
{
    const pid_t pid = pid_;
    pid_ = -1;
    return e2e::reap(pid, peak_rss_mb);
}

std::string
selfPath()
{
    return std::filesystem::read_symlink("/proc/self/exe").string();
}

void
makeDirs(const std::string &path)
{
    std::filesystem::create_directories(path);
}

void
removeTree(const std::string &path)
{
    std::filesystem::remove_all(path);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

bool
fileExists(const std::string &path)
{
    return std::filesystem::exists(path);
}

std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t seed)
{
    if (seed == 0)
        return base;
    // splitmix64 finaliser over the pair.
    std::uint64_t z = base ^ (seed * 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

unsigned
workerCount()
{
    return core::ThreadPool::defaultWorkerCount();
}

CellOracle
cellsOf(const core::GridResults &results)
{
    CellOracle cells(results.workloadCount());
    for (std::size_t w = 0; w < results.workloadCount(); ++w)
        for (std::size_t r = 0; r < results.runCount(); ++r)
            cells[w].push_back(results.at(w, r).toJson());
    return cells;
}

std::uint64_t
checkAgainst(const CellOracle &actual, const CellOracle &oracle,
             const std::string &what, Outcome &outcome, int only_run)
{
    std::uint64_t mismatches = 0;
    for (std::size_t w = 0; w < oracle.size(); ++w) {
        for (std::size_t r = 0; r < oracle[w].size(); ++r) {
            if (oracle[w][r].isNull() ||
                (only_run >= 0 && r != static_cast<std::size_t>(only_run)))
                continue;
            if (w < actual.size() && r < actual[w].size() &&
                actual[w][r] == oracle[w][r])
                continue;
            ++mismatches;
            if (outcome.problems.size() < 8)
                outcome.problems.push_back(
                    what + ": cell [" + std::to_string(w) + "][" +
                    std::to_string(r) + "] differs from its oracle");
        }
    }
    return mismatches;
}

ModeError
modeError(const CellOracle &approx, const CellOracle &exact)
{
    ModeError error;
    double mpki_sum = 0.0;
    std::size_t cells = 0;
    for (std::size_t w = 0; w < exact.size(); ++w) {
        const core::Metrics base_e = core::metricsFromJson(exact[w][0]);
        const core::Metrics base_a = core::metricsFromJson(approx[w][0]);
        for (std::size_t r = 0; r < exact[w].size(); ++r) {
            const core::Metrics e = core::metricsFromJson(exact[w][r]);
            const core::Metrics a = core::metricsFromJson(approx[w][r]);
            if (r > 0)
                error.speedupErrPp = std::max(
                    error.speedupErrPp,
                    std::fabs(core::speedupPercent(base_a, a) -
                              core::speedupPercent(base_e, e)));
            if (e.ipc > 0.0)
                error.ipcErrPct = std::max(
                    error.ipcErrPct,
                    100.0 * std::fabs(a.ipc - e.ipc) / e.ipc);
            mpki_sum += std::fabs(a.l2InstMpki - e.l2InstMpki);
            ++cells;
        }
    }
    error.l2iMpkiErr = cells ? mpki_sum / static_cast<double>(cells) : 0.0;
    return error;
}

void
modelMetrics(const CellOracle &cells, MetricValues &out)
{
    double ipc = 0.0, l1i = 0.0, l2i = 0.0, l2d = 0.0, starv = 0.0;
    std::vector<double> best;
    for (const auto &row : cells) {
        const core::Metrics base = core::metricsFromJson(row[0]);
        ipc += base.ipc;
        l1i += base.l1iMpki;
        l2i += base.l2InstMpki;
        l2d += base.l2DataMpki;
        starv += base.instructions
                     ? 1000.0 *
                           static_cast<double>(base.starvationCycles) /
                           static_cast<double>(base.instructions)
                     : 0.0;
        double top = 0.0;
        for (std::size_t r = 1; r < row.size(); ++r)
            top = std::max(top, core::speedupPercent(
                                    base, core::metricsFromJson(row[r])));
        best.push_back(top);
    }
    const double rows = static_cast<double>(std::max<std::size_t>(
        cells.size(), 1));
    out["model.ipc"] = ipc / rows;
    out["model.l1i_mpki"] = l1i / rows;
    out["model.l2i_mpki"] = l2i / rows;
    out["model.l2d_mpki"] = l2d / rows;
    out["model.starv_per_ki"] = starv / rows;
    out["model.best_speedup_pct"] = core::geomeanSpeedupPercent(best);
}

void
gridLayerMetrics(const std::vector<core::GridTiming> &timings,
                 const std::vector<std::uint64_t> &instructions,
                 MetricValues &out)
{
    std::vector<double> build, ns_per_inst, warm_share, busy, cell_ms;
    for (std::size_t i = 0; i < timings.size(); ++i) {
        const core::GridTiming &t = timings[i];
        const double serial = t.serialSeconds();
        build.push_back(t.replayBuildSeconds);
        if (instructions[i] > 0)
            ns_per_inst.push_back(
                1e9 * serial / static_cast<double>(instructions[i]));
        const double phases = t.warmupSeconds() + t.measureSeconds();
        warm_share.push_back(phases > 0.0 ? t.warmupSeconds() / phases
                                          : 0.0);
        if (t.totalSeconds > 0.0 && t.workers > 0)
            busy.push_back(serial / (t.totalSeconds * t.workers));
        for (const auto &row : t.runSeconds)
            for (const double s : row)
                cell_ms.push_back(1e3 * s);
    }
    out["trace.replay_build_s"] = median(build);
    out["core.sim_ns_per_inst"] = median(ns_per_inst);
    out["core.warmup_share"] = median(warm_share);
    out["core.pool_busy_frac"] = median(busy);
    out["core.cell_ms.p50"] = median(cell_ms);
    out["core.cell_ms.p_hi"] = highPercentile(cell_ms);
    out["core.cell_ms.n"] = static_cast<double>(cell_ms.size());
}

} // namespace emissary::e2e
