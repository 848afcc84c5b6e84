/**
 * @file
 * Table 5: geomean speedup over the TPLRU + FDIP baseline for the
 * P(N) parameter grid — N in {2..14 step 2} against the selection
 * columns S&E, R(r) and S&E&R(r) for r in {1/2, 1/8, 1/16, 1/32,
 * 1/64} — including the paper's "#Best" row/column accounting.
 *
 * Full grid over all 13 benchmarks is ~1000 simulations; the default
 * sweeps a 6-benchmark representative subset at a reduced window.
 * Override with EMISSARY_BENCHMARKS / EMISSARY_BENCH_INSTRUCTIONS
 * for the full run.
 */

#include <cstdlib>
#include <map>

#include "bench/bench_common.hh"
#include "trace/program.hh"

int
main()
{
    using namespace emissary;
    core::RunOptions options = bench::defaultOptions(600'000);
    bench::banner("Table 5 - r x N parameter grid",
                  "Table 5 (geomean speedup vs TPLRU + FDIP)",
                  options);

    if (!std::getenv("EMISSARY_BENCHMARKS")) {
        ::setenv("EMISSARY_BENCHMARKS",
                 "specjbb,finagle-http,tomcat,wikipedia,data-serving,"
                 "verilator",
                 1);
        std::printf("(default 6-benchmark subset; set "
                    "EMISSARY_BENCHMARKS= for the full suite)\n\n");
    }

    const std::vector<std::string> rates = {"1/2", "1/8", "1/16",
                                            "1/32", "1/64"};
    std::vector<std::string> columns = {"S&E"};
    for (const auto &r : rates)
        columns.push_back("R(" + r + ")");
    for (const auto &r : rates)
        columns.push_back("S&E&R(" + r + ")");
    const std::vector<unsigned> protect_ns = {2, 4, 6, 8, 10, 12, 14};

    // One grid over the whole r x N parameter space: column 0 is the
    // shared TPLRU baseline, then every P(N):<selection> combination
    // in (N-major, column-minor) order.
    const auto benchmarks = core::selectedBenchmarks();
    std::vector<std::string> policies = {"TPLRU"};
    for (const unsigned n : protect_ns)
        for (const auto &column : columns)
            policies.push_back("P(" + std::to_string(n) +
                               "):" + column);

    const core::PolicyGrid policy_grid =
        core::PolicyGrid::sweep(benchmarks, policies, options);
    core::ThreadPool pool;
    const core::GridResults results = bench::runGridRecorded(
        "table5", policy_grid, pool,
        bench::WorkloadProgress(policy_grid));

    std::map<std::pair<unsigned, std::string>, double> grid;
    std::size_t policy_index = 1;
    for (const unsigned n : protect_ns) {
        for (const auto &column : columns) {
            // A fused monitor cell is untimed: its column's geomean
            // prints as n/a and is never best.
            std::vector<double> speedups;
            for (std::size_t b = 0; b < benchmarks.size(); ++b) {
                const core::Metrics &base = results.at(b, 0);
                const core::Metrics &m = results.at(b, policy_index);
                speedups.push_back(core::timedFigure(
                    base.timed() && m.timed(),
                    core::speedupPercent(base, m)));
            }
            grid[{n, column}] =
                core::geomeanSpeedupPercent(speedups);
            ++policy_index;
        }
    }

    // Render with the paper's #Best accounting.
    std::vector<std::string> headers = {"P(N)"};
    for (const auto &column : columns)
        headers.push_back(column);
    headers.push_back("#Best");
    stats::Table table(headers);

    std::map<std::string, int> best_per_column;
    for (const unsigned n : protect_ns) {
        // A cell is "best" in its column if it is that column's max.
        std::vector<std::string> row = {std::to_string(n)};
        int best_in_row = 0;
        for (const auto &column : columns) {
            const double v = grid[{n, column}];
            double column_max = -1e9;
            for (const unsigned n2 : protect_ns)
                column_max = std::max(column_max, grid[{n2, column}]);
            const bool is_best = v >= column_max - 1e-12;
            if (is_best) {
                ++best_in_row;
                ++best_per_column[column];
            }
            row.push_back(formatDouble(v, 3) + (is_best ? "*" : ""));
        }
        row.push_back(std::to_string(best_in_row));
        table.addRow(row);
    }
    std::vector<std::string> best_row = {"#Best"};
    for (const auto &column : columns)
        best_row.push_back(std::to_string(best_per_column[column]));
    best_row.push_back("-");
    table.addRow(best_row);

    std::printf("\n%s\n", table.render().c_str());
    bench::reportSweepTiming(results, benchmarks);
    bench::writeSweepArtifact("table5_param_grid", policy_grid,
                              results);
    std::printf(
        "paper shape: speedups peak near N = 6-8 for most columns and\n"
        "collapse at N = 12-14 for unfiltered columns; the best r sits\n"
        "at moderate rates (paper: 1/32 at 100M-instruction windows;\n"
        "larger r at laptop windows, see EXPERIMENTS.md).\n");
    return 0;
}
