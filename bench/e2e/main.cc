/**
 * @file
 * emissary_bench: the repository's end-to-end benchmark
 * (bench/e2e/README.md). bench/e2e/run.sh builds it and forwards its
 * arguments:
 *
 *   run.sh --workload W --seed N --seconds S --trace 0|1
 *   run.sh [--seed N] [--trace]        every workload in turn
 *   run.sh --smoke                     tiny windows, own output dir
 *   run.sh --compare DIR_A DIR_B       bounds from BENCHMARK.json
 *   run.sh --self-test | --write-reference
 *
 * Each workload runs in child processes of its own: the setup probe
 * (setup_s, median of several fresh starts) and the measuring process.
 * The last stdout line is one JSON
 * object: correct, attempted, failed and the metrics BENCHMARK.json
 * declares — end_to_end ones untraced, per_layer ones with --trace 1.
 * The exit status is 1 when any workload was not correct.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench/e2e/harness.hh"

namespace
{

using namespace emissary;
using namespace emissary::e2e;
using stats::JsonValue;

/** Fresh starts behind each setup_s median. */
constexpr int kSetupRuns = 15;

[[noreturn]] void
usage(int code)
{
    std::fprintf(code ? stderr : stdout,
                 "usage: emissary_bench [--workload W] [--seed N] "
                 "[--seconds S] [--trace [0|1]] [--smoke] [--out DIR]\n"
                 "       emissary_bench --compare DIR_A DIR_B\n"
                 "       emissary_bench --self-test | --write-reference\n"
                 "workloads: fig5_exact fig5_fused trace_long\n");
    std::exit(code);
}

std::vector<std::string>
forwardArgs(const RunConfig &config)
{
    std::vector<std::string> args = {
        "--workload", config.workload,
        "--seed",     std::to_string(config.seed),
        "--seconds",  std::to_string(config.seconds),
        "--trace",    config.trace ? "1" : "0",
        "--out",      config.out};
    if (config.smoke)
        args.push_back("--smoke");
    return args;
}

/** A grid workload: inputs and oracle, setup probes, then the
 *  measuring child. */
Outcome
runSweep(const RunConfig &config)
{
    const std::vector<std::string> problems = prepareSweepInputs(config);
    const std::string self = selfPath();
    std::vector<std::string> args = forwardArgs(config);
    args.insert(args.begin(), self);

    // Only untraced runs report setup_s.
    std::vector<double> setups, raw_setups;
    for (int i = 0; i < (config.trace ? 0 : kSetupRuns); ++i) {
        std::vector<std::string> setup_args = args;
        setup_args.push_back("--setup-only");
        const double scale_before = hostScale();
        const auto start = Clock::now();
        ChildGuard child(spawn(setup_args));
        if (child.reap(nullptr) != 0)
            throw std::runtime_error("setup of " + config.workload +
                                     " failed");
        raw_setups.push_back(secondsSince(start));
        setups.push_back(raw_setups.back() /
                         (0.5 * (scale_before + hostScale())));
    }

    const std::string result = config.out + "/" + config.workload +
                               ".child.json";
    removeTree(result);
    args.push_back("--child");
    ChildGuard child(spawn(args));
    const int code = child.reap(nullptr);
    if (code != 0 || !fileExists(result))
        throw std::runtime_error(config.workload +
                                 " measuring process exited with " +
                                 std::to_string(code));
    Outcome outcome = Outcome::fromJson(JsonValue::parse(readFile(result)));
    for (const std::string &problem : problems)
        outcome.fail(problem);
    if (!config.trace) {
        outcome.metrics["setup_s"] = median(setups);
        outcome.metrics["raw.setup_s"] = median(raw_setups);
    }
    return outcome;
}

/** One workload end to end; prints and stores its result line and
 *  returns whether it was correct. A workload that throws still
 *  leaves an incorrect record, so --compare counts the crash. */
bool
runWorkload(const RunConfig &config, const JsonValue &spec)
{
    makeDirs(config.out);
    Outcome outcome;
    try {
        outcome = runSweep(config);
    } catch (const std::exception &error) {
        outcome.attempted = std::max<std::uint64_t>(outcome.attempted, 1);
        outcome.failed = outcome.attempted;
        outcome.fail(error.what());
    }

    bool correct = outcome.checksOk && outcome.failed == 0 &&
                   outcome.attempted > 0;
    JsonValue metrics = JsonValue::object();
    const JsonValue &declared =
        *spec.find(config.trace ? "per_layer" : "end_to_end");
    MetricValues undeclared = outcome.metrics;
    for (std::size_t i = 0; i < declared.size(); ++i) {
        const std::string &name = declared.at(i).find("name")->asString();
        const auto found = outcome.metrics.find(name);
        if (found == outcome.metrics.end()) {
            std::fprintf(stderr, "%s: metric %s was not measured\n",
                         config.workload.c_str(), name.c_str());
            correct = false;
            continue;
        }
        JsonValue entry = JsonValue::object();
        entry.set("value", JsonValue(found->second));
        entry.set("unit", *declared.at(i).find("unit"));
        metrics.set(name, std::move(entry));
        undeclared.erase(name);
    }
    for (const std::string &problem : outcome.problems)
        std::fprintf(stderr, "%s: %s\n", config.workload.c_str(),
                     problem.c_str());

    JsonValue line = JsonValue::object();
    line.set("correct", JsonValue(correct));
    line.set("attempted", JsonValue(outcome.attempted));
    line.set("failed", JsonValue(outcome.failed));
    line.set("metrics", std::move(metrics));

    // The record --compare reads: the line plus what identifies it.
    JsonValue record = line;
    record.set("workload", JsonValue(config.workload));
    record.set("seed", JsonValue(config.seed));
    record.set("trace", JsonValue(config.trace));
    record.set("smoke", JsonValue(config.smoke));
    record.set("seconds", JsonValue(config.seconds));
    record.set("windows", JsonValue(sweepWindows(config)));
    // Measured alongside (the raw times behind the reference-speed
    // ones, the host scale), kept for a reader of the record.
    JsonValue raw = JsonValue::object();
    for (const auto &[name, value] : undeclared)
        raw.set(name, JsonValue(value));
    record.set("raw", std::move(raw));
    JsonValue problems = JsonValue::array();
    for (const std::string &problem : outcome.problems)
        problems.push(JsonValue(problem));
    record.set("problems", std::move(problems));
    const std::string runs = config.out + "/runs";
    makeDirs(runs);
    const auto stamp = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count();
    stats::writeJsonFile(runs + "/" + config.workload + "-s" +
                             std::to_string(config.seed) +
                             (config.trace ? "-trace-" : "-") +
                             std::to_string(stamp) + ".json",
                         record);
    if (config.trace) {
        const std::string layers = config.out + "/layers.json";
        JsonValue all = fileExists(layers)
                            ? JsonValue::parse(readFile(layers))
                            : JsonValue::object();
        all.set(config.workload, *line.find("metrics"));
        stats::writeJsonFile(layers, all);
    }

    std::printf("%s\n", line.dump(0).c_str());
    std::fflush(stdout);
    return correct;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    enum class Mode { Run, Child, SetupOnly, Compare, SelfTest, Reference };
    Mode mode = Mode::Run;
    std::string compare_a, compare_b;
    bool seconds_given = false;
    bool out_given = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    usage(2);
                return argv[++i];
            };
            if (flag == "--workload") {
                config.workload = value();
            } else if (flag == "--seed") {
                config.seed = std::stoull(value());
            } else if (flag == "--seconds") {
                config.seconds = std::stod(value());
                seconds_given = true;
            } else if (flag == "--trace") {
                // "--trace" alone means traced; "--trace 0|1" explicit.
                if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                                     std::strcmp(argv[i + 1], "1") == 0))
                    config.trace = value() == "1";
                else
                    config.trace = true;
            } else if (flag == "--smoke") {
                config.smoke = true;
            } else if (flag == "--out") {
                config.out = value();
                out_given = true;
            } else if (flag == "--child") {
                mode = Mode::Child;
            } else if (flag == "--setup-only") {
                mode = Mode::SetupOnly;
            } else if (flag == "--compare") {
                mode = Mode::Compare;
                compare_a = value();
                compare_b = value();
            } else if (flag == "--self-test") {
                mode = Mode::SelfTest;
            } else if (flag == "--write-reference") {
                mode = Mode::Reference;
            } else if (flag == "--help" || flag == "-h") {
                usage(0);
            } else {
                std::fprintf(stderr, "emissary_bench: unknown flag %s\n",
                             flag.c_str());
                usage(2);
            }
        }
        if (config.smoke && !seconds_given)
            config.seconds = 1.0;
        // Smoke records stay out of the directory real runs fill.
        if (config.smoke && !out_given)
            config.out = "build-bench/e2e-smoke";

        switch (mode) {
          case Mode::Compare:
            return compareRuns(compare_a, compare_b, EMISSARY_BENCH_SPEC);
          case Mode::SelfTest:
            return selfTest(config);
          case Mode::Reference:
            return writeReferences(config);
          case Mode::SetupOnly:
            return setupOnly(config);
          case Mode::Child:
            stats::writeJsonFile(
                config.out + "/" + config.workload + ".child.json",
                runSweepWorkload(config).toJson());
            return 0;
          case Mode::Run:
            break;
        }

        const JsonValue spec =
            JsonValue::parse(readFile(EMISSARY_BENCH_SPEC));
        std::vector<std::string> workloads = workloadNames();
        if (!config.workload.empty()) {
            if (std::find(workloads.begin(), workloads.end(),
                          config.workload) == workloads.end())
                throw std::invalid_argument("unknown workload " +
                                            config.workload);
            workloads = {config.workload};
        }
        bool all_correct = true;
        for (const std::string &workload : workloads) {
            RunConfig one = config;
            one.workload = workload;
            all_correct = runWorkload(one, spec) && all_correct;
        }
        return all_correct ? 0 : 1;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "emissary_bench: %s\n", error.what());
        return 1;
    }
}
