/**
 * @file
 * --compare A B: the regression rule of the benchmark. A and B are
 * directories of run records (<out>/runs). For every workload and
 * end-to-end metric it prints each side's median and quartiles and
 * applies the metric's bound from BENCHMARK.json, a share of A's
 * median:
 *
 *   regression  B's median is worse than A's by more than the bound,
 *               or B lacks the metric or the workload, or B has
 *               incorrect runs where A had none;
 *   unresolved  a side's quartile spread exceeds the bound, unless
 *               every B run reads better than every A run;
 *   ok          otherwise.
 *
 * Traced and smoke records are skipped. Records of one workload must
 * share their settings (seconds and windows), on each side and
 * across the sides; otherwise the comparison is refused.
 *
 * Exit 1 on any regression, 2 when something is unresolved, else 0.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "bench/e2e/harness.hh"

namespace emissary::e2e
{

using stats::JsonValue;

namespace
{

/** workload -> metric -> values, plus run and failure counts and the
 *  settings (seconds, windows) each workload's runs used. */
struct Side
{
    std::map<std::string, std::map<std::string, std::vector<double>>>
        values;
    std::map<std::string, std::uint64_t> runs;
    std::map<std::string, std::uint64_t> incorrect;
    std::map<std::string, std::string> settings;
};

std::string
settingsOf(const JsonValue &record)
{
    const JsonValue *windows = record.find("windows");
    char text[256];
    std::snprintf(text, sizeof(text), "seconds=%g windows=%s",
                  record.find("seconds")->asDouble(),
                  windows ? windows->asString().c_str() : "?");
    return text;
}

Side
loadSide(const std::string &dir)
{
    Side side;
    for (const auto &file : std::filesystem::directory_iterator(dir)) {
        if (file.path().extension() != ".json")
            continue;
        const JsonValue record = JsonValue::parse(readFile(file.path()));
        const JsonValue *workload = record.find("workload");
        const JsonValue *trace = record.find("trace");
        const JsonValue *smoke = record.find("smoke");
        if (!workload || !trace || trace->asBool())
            continue; // Only untraced runs carry end-to-end metrics.
        if (smoke && smoke->asBool())
            continue; // Tiny windows: a check, not a measurement.
        const std::string name = workload->asString();
        const std::string settings = settingsOf(record);
        const auto [known, fresh] = side.settings.emplace(name, settings);
        if (!fresh && known->second != settings)
            throw std::runtime_error(
                dir + ": " + name + " runs mix settings (" +
                known->second + " vs " + settings + ")");
        ++side.runs[name];
        if (!record.find("correct")->asBool())
            ++side.incorrect[name];
        for (const auto &[metric, entry] :
             record.find("metrics")->members())
            side.values[name][metric].push_back(
                entry.find("value")->asDouble());
    }
    return side;
}

std::uint64_t
countOf(const std::map<std::string, std::uint64_t> &counts,
        const std::string &workload)
{
    const auto found = counts.find(workload);
    return found == counts.end() ? 0 : found->second;
}

struct Summary
{
    double median = 0.0, q1 = 0.0, q3 = 0.0;
    double spread() const
    {
        return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
    }
};

Summary
summarize(const std::vector<double> &values)
{
    Summary s;
    s.median = median(values);
    if (values.size() >= 2) {
        const std::vector<double> q = quartiles(values);
        s.q1 = q[0];
        s.q3 = q[2];
    } else {
        s.q1 = s.q3 = s.median;
    }
    return s;
}

} // namespace

int
compareRuns(const std::string &a, const std::string &b,
            const std::string &spec_path)
{
    const JsonValue spec = JsonValue::parse(readFile(spec_path));
    const JsonValue &metrics = *spec.find("end_to_end");
    Side side_a = loadSide(a);
    Side side_b = loadSide(b);

    int regressions = 0;
    int unresolved = 0;
    std::printf("%-14s %-16s %-8s %28s %28s %8s %6s  %s\n", "workload",
                "metric", "unit", "A median [q1, q3]", "B median [q1, q3]",
                "B vs A", "bound", "verdict");
    for (const auto &[workload, a_runs] : side_a.runs) {
        const std::uint64_t b_runs = countOf(side_b.runs, workload);
        const std::uint64_t a_bad = countOf(side_a.incorrect, workload);
        const std::uint64_t b_bad = countOf(side_b.incorrect, workload);
        std::printf("%-14s runs A=%llu B=%llu, incorrect A=%llu B=%llu\n",
                    workload.c_str(),
                    static_cast<unsigned long long>(a_runs),
                    static_cast<unsigned long long>(b_runs),
                    static_cast<unsigned long long>(a_bad),
                    static_cast<unsigned long long>(b_bad));
        // A workload B did not run, or ran with failures A did not
        // have, is a regression whatever the timings say.
        if (b_runs == 0) {
            std::printf("%-14s no runs on B%56s  REGRESSION\n",
                        workload.c_str(), "");
            ++regressions;
            continue;
        }
        if (side_b.settings.at(workload) != side_a.settings.at(workload))
            throw std::runtime_error(
                workload + " ran with other settings on A (" +
                side_a.settings.at(workload) + ") than on B (" +
                side_b.settings.at(workload) + ")");
        if (b_bad > 0 && a_bad == 0) {
            std::printf("%-14s incorrect runs on B%50s  REGRESSION\n",
                        workload.c_str(), "");
            ++regressions;
        }
        const auto &a_values = side_a.values[workload];
        const auto &b_values = side_b.values[workload];
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const std::string name = metrics.at(i).find("name")->asString();
            const auto av = a_values.find(name);
            const auto bv = b_values.find(name);
            if (av == a_values.end())
                continue; // Nothing to compare against.
            if (bv == b_values.end()) {
                std::printf("%-14s %-16s not measured on B%40s  "
                            "REGRESSION\n",
                            workload.c_str(), name.c_str(), "");
                ++regressions;
                continue;
            }
            const bool lower =
                metrics.at(i).find("better")->asString() == "lower";
            const double bound = metrics.at(i).find("bound")->asDouble();
            const Summary sa = summarize(av->second);
            const Summary sb = summarize(bv->second);
            // Positive = B is worse than A, as a share of A's median.
            const double worse =
                sa.median != 0.0
                    ? (lower ? sb.median - sa.median
                             : sa.median - sb.median) /
                          std::fabs(sa.median)
                    : 0.0;
            const auto [a_lo, a_hi] = std::minmax_element(
                av->second.begin(), av->second.end());
            const auto [b_lo, b_hi] = std::minmax_element(
                bv->second.begin(), bv->second.end());
            const bool b_all_better =
                lower ? *b_hi < *a_lo : *b_lo > *a_hi;
            const char *verdict = "ok";
            if (std::max(sa.spread(), sb.spread()) > bound &&
                !b_all_better) {
                verdict = "unresolved";
                ++unresolved;
            } else if (worse > bound) {
                verdict = "REGRESSION";
                ++regressions;
            }
            char a_text[64], b_text[64];
            std::snprintf(a_text, sizeof(a_text), "%.4g [%.4g, %.4g]",
                          sa.median, sa.q1, sa.q3);
            std::snprintf(b_text, sizeof(b_text), "%.4g [%.4g, %.4g]",
                          sb.median, sb.q1, sb.q3);
            std::printf("%-14s %-16s %-8s %28s %28s %+7.2f%% %5.0f%%  %s\n",
                        workload.c_str(), name.c_str(),
                        metrics.at(i).find("unit")->asString().c_str(),
                        a_text, b_text,
                        100.0 * (sa.median != 0.0
                                     ? (sb.median - sa.median) /
                                           std::fabs(sa.median)
                                     : 0.0),
                        100.0 * bound, verdict);
        }
    }
    std::printf("regressions: %d, unresolved: %d\n", regressions,
                unresolved);
    return regressions ? 1 : unresolved ? 2 : 0;
}

} // namespace emissary::e2e
