/**
 * @file
 * core::planGrid: every scheduling decision of a grid, checked
 * without a pool, a program or a buffer.
 *
 *  - fusion needs every column's RunOptions equal; otherwise the
 *    grid falls back and P(N) groups form;
 *  - a fused row wider than core::kFusedLaneColumns splits into
 *    lane chunks, each with its own timing column;
 *  - P(N) leaders and pass order in a Fig. 5-shaped row;
 *  - cache roles, keys and hits, and the passes they leave;
 *  - row sources at EMISSARY_REPLAY_BUDGET_MB 0 and at exactly one
 *    buffer;
 *  - which rows predict their block outcomes once, and which column
 *    keys the stream;
 *  - the sampling factor is stated only when a monitor lane exists,
 *    and must be 0 or a power of two.
 *
 * The last test runs a mixed grid and holds runGrid's provenance to
 * its plan.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/buildinfo.hh"
#include "core/grid.hh"
#include "core/threadpool.hh"
#include "trace/profile.hh"
#include "trace/replay.hh"

namespace emissary::core
{
namespace
{

using Columns = std::vector<std::size_t>;

RunOptions
smallWindow()
{
    RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 50'000;
    return options;
}

/** The Fig. 5 policies (bench_fig5_policy_sweep), TPLRU first. */
std::vector<std::string>
fig5Policies()
{
    std::vector<std::string> policies = {"TPLRU", "M:0", "M:R(1/32)",
                                         "M:S&E", "M:S&E&R(1/32)"};
    for (const unsigned n : {2u, 6u, 10u, 14u}) {
        policies.push_back("P(" + std::to_string(n) + "):S&E");
        policies.push_back("P(" + std::to_string(n) + "):S&E&R(1/32)");
    }
    return policies;
}

/** The first @p rows suite workloads under @p policies. */
PolicyGrid
suiteGrid(const std::vector<std::string> &policies,
          std::size_t rows = 1)
{
    const std::vector<trace::WorkloadProfile> suite =
        trace::datacenterSuite();
    return PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>(
            suite.begin(),
            suite.begin() + static_cast<std::ptrdiff_t>(rows)),
        policies, smallWindow());
}

GridOptions
fusedOptions(unsigned sampled_sets)
{
    GridOptions options;
    options.fused = true;
    options.sampledSets = sampled_sets;
    return options;
}

/** Sets an environment variable for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

TEST(GridPlan, MixedRunKnobsFallBackAndFormPnGroups)
{
    PolicyGrid mixed = suiteGrid(
        {"TPLRU", "P(2):S&E", "P(8):S&E", "P(14):S&E", "P(6):S&E"});
    // Another window keeps P(8) out of the group and the grid out of
    // fusion.
    mixed.runs[2].options.measureInstructions = 60'000;
    const GridPlan plan = planGrid(mixed, fusedOptions(8));

    EXPECT_FALSE(plan.fused);
    EXPECT_EQ(plan.sampledSets, 0u);
    for (std::size_t r = 0; r < mixed.runs.size(); ++r)
        EXPECT_EQ(plan.cells[0][r].timingColumn, r);
    // The group's leader is its largest N; the rest follow.
    ASSERT_EQ(plan.passes.size(), 3u);
    EXPECT_EQ(plan.passes[0].columns, Columns({3}));
    EXPECT_EQ(plan.passes[0].members, Columns({1, 4}));
    EXPECT_EQ(plan.passes[1].columns, Columns({0}));
    EXPECT_EQ(plan.passes[2].columns, Columns({2}));
    EXPECT_TRUE(plan.passes[1].members.empty());
    EXPECT_TRUE(plan.passes[2].members.empty());
}

TEST(GridPlan, WideFusedRowSplitsIntoLaneChunks)
{
    const std::size_t lanes = core::kFusedLaneColumns;
    std::vector<std::string> policies;
    for (std::size_t r = 0; r < lanes + 8; ++r)
        policies.push_back(r % 2 ? "LRU" : "TPLRU");
    const PolicyGrid wide = suiteGrid(policies, 2);
    const GridPlan plan = planGrid(wide, fusedOptions(0));

    EXPECT_TRUE(plan.fused);
    EXPECT_EQ(plan.sampledSets, 0u);
    ASSERT_EQ(plan.passes.size(), 4u);
    for (std::size_t i = 0; i < plan.passes.size(); ++i) {
        const GridPass &pass = plan.passes[i];
        EXPECT_EQ(pass.row, i / 2);
        EXPECT_EQ(pass.columns.front(), i % 2 ? lanes : 0u);
        EXPECT_EQ(pass.columns.size(), i % 2 ? 8u : lanes);
        EXPECT_TRUE(pass.members.empty());
        for (std::size_t lane = 0; lane < pass.columns.size(); ++lane)
            EXPECT_EQ(pass.columns[lane], pass.columns.front() + lane);
    }
    EXPECT_EQ(plan.cells[1][lanes - 1].timingColumn, 0u);
    EXPECT_EQ(plan.cells[1][lanes].timingColumn, lanes);
    EXPECT_EQ(plan.cells[1][lanes + 7].timingColumn, lanes);
}

TEST(GridPlan, Fig5RowRunsLeadersFirstThenItsOtherCells)
{
    const PolicyGrid fig5 = suiteGrid(fig5Policies(), 2);
    const GridPlan plan = planGrid(fig5, GridOptions{});

    EXPECT_FALSE(plan.fused);
    // Per row: P(14):S&E leads P(2/6/10):S&E, P(14):S&E&R(1/32)
    // leads its selection's P(2/6/10), then the five non-P(N) cells.
    const std::vector<GridPass> row = {
        {0, {11}, {5, 7, 9}, {}}, {0, {12}, {6, 8, 10}, {}},
        {0, {0}, {}, {}},         {0, {1}, {}, {}},
        {0, {2}, {}, {}},         {0, {3}, {}, {}},
        {0, {4}, {}, {}}};
    ASSERT_EQ(plan.passes.size(), 2 * row.size());
    for (std::size_t i = 0; i < plan.passes.size(); ++i) {
        const GridPass &want = row[i % row.size()];
        EXPECT_EQ(plan.passes[i].row, i / row.size());
        EXPECT_EQ(plan.passes[i].columns, want.columns) << i;
        EXPECT_EQ(plan.passes[i].members, want.members) << i;
        EXPECT_TRUE(plan.passes[i].monitors.empty()) << i;
    }
}

TEST(GridPlan, FusedFig5RowGroupsItsMonitorLanes)
{
    // A fused row is one timing pass; its monitor lanes group as the
    // exact cells do (leaders first, then the single lanes), and
    // every monitor column lands in exactly one lane job.
    const PolicyGrid fig5 = suiteGrid(fig5Policies(), 2);
    GridOptions fused;
    fused.fused = true;
    const GridPlan plan = planGrid(fig5, fused);
    ASSERT_TRUE(plan.fused);
    const std::vector<GridPass> lanes = {
        {0, {11}, {5, 7, 9}, {}}, {0, {12}, {6, 8, 10}, {}},
        {0, {1}, {}, {}},         {0, {2}, {}, {}},
        {0, {3}, {}, {}},         {0, {4}, {}, {}}};
    ASSERT_EQ(plan.passes.size(), 2u);
    for (const GridPass &pass : plan.passes) {
        EXPECT_EQ(pass.columns.size(), fig5.runs.size());
        EXPECT_EQ(pass.columns.front(), 0u);
        EXPECT_TRUE(pass.members.empty());
        ASSERT_EQ(pass.monitors.size(), lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            EXPECT_EQ(pass.monitors[i].row, pass.row);
            EXPECT_EQ(pass.monitors[i].columns, lanes[i].columns) << i;
            EXPECT_EQ(pass.monitors[i].members, lanes[i].members) << i;
        }
    }

    // Chunked columns never group, fused or not.
    PolicyGrid chunked = fig5;
    for (core::RunSpec &run : chunked.runs)
        run.options.timeChunks = 4;
    for (const GridPass &pass : planGrid(chunked, fused).passes) {
        EXPECT_EQ(pass.monitors.size(), fig5.runs.size() - 1);
        for (const GridPass &lane : pass.monitors)
            EXPECT_TRUE(lane.members.empty());
    }
}

/** A cache that hits exactly the identities it was given. */
class FakeCache : public CellResultCache
{
  public:
    bool
    lookup(const std::string &key, const std::string &canonical,
           CellCacheEntry &out) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++lookups;
        out = CellCacheEntry{};
        return serve.count(canonical) == 1 &&
               key == cellCacheKey(canonical);
    }

    void
    store(const std::string &, const std::string &,
          const CellCacheEntry &) override
    {
        ADD_FAILURE() << "planning stores nothing";
    }

    std::set<std::string> serve;
    std::size_t lookups = 0;

  private:
    std::mutex mutex_;
};

TEST(GridPlan, CacheHitsShapeRolesPassesAndSources)
{
    const PolicyGrid fused = suiteGrid({"TPLRU", "LRU", "P(8):S&E"}, 3);
    const std::string &sha = buildInfo().gitSha;
    const auto canonical = [&](std::size_t w, std::size_t r) {
        return cellCacheCanonical(fused.workloads[w], fused.runs[r],
                                  r == 0 ? "" : fused.runs[0].l2Policy,
                                  8, sha);
    };
    FakeCache cache;
    // Row 0: the timing column and one monitor. Row 1: both
    // monitors. Row 2: the whole row.
    for (const auto &[w, r] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {0, 0}, {0, 2}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}})
        cache.serve.insert(canonical(w, r));
    GridOptions options = fusedOptions(8);
    options.cellCache = &cache;
    const GridPlan plan = planGrid(fused, options);

    EXPECT_EQ(cache.lookups, fused.cellCount());
    EXPECT_TRUE(plan.fused);
    EXPECT_EQ(plan.sampledSets, 8u);
    for (std::size_t w = 0; w < 3; ++w)
        for (std::size_t r = 0; r < 3; ++r) {
            const CellPlan &cell = plan.cells[w][r];
            EXPECT_EQ(cell.timingColumn, 0u);
            EXPECT_EQ(cell.cacheCanonical, canonical(w, r));
            EXPECT_EQ(cell.cacheKey, cellCacheKey(cell.cacheCanonical));
            EXPECT_EQ(cell.cached(), cache.serve.count(canonical(w, r)) == 1);
        }
    // A monitor's identity names its timing lane and the factor; the
    // timing lane's is the exact role.
    EXPECT_NE(canonical(0, 1).find("\"role\":\"monitor_sampled_8\""),
              std::string::npos);
    EXPECT_NE(canonical(0, 0).find("\"role\":\"exact\""),
              std::string::npos);

    // The cached timing column still drives row 0's fresh monitor; row
    // 1's fresh timing lane runs alone; row 2 neither runs nor builds.
    ASSERT_EQ(plan.passes.size(), 2u);
    EXPECT_EQ(plan.passes[0].row, 0u);
    EXPECT_EQ(plan.passes[0].columns, Columns({0, 1}));
    EXPECT_EQ(plan.passes[1].row, 1u);
    EXPECT_EQ(plan.passes[1].columns, Columns({0}));
    EXPECT_EQ(plan.sources[0], RowSource::Replay);
    EXPECT_EQ(plan.sources[1], RowSource::Replay);
    EXPECT_EQ(plan.sources[2], RowSource::None);
}

TEST(GridPlan, ReplayBudgetAtZeroAndAtExactlyOneBuffer)
{
    // A window whose buffer is exactly 25 MiB: 2^20 records of 25 B.
    RunOptions window;
    window.warmupInstructions = 0;
    window.measureInstructions =
        (std::uint64_t{1} << 20) - trace::RecordBuffer::recordsForWindow(0);
    const std::vector<trace::WorkloadProfile> suite =
        trace::datacenterSuite();
    // Files are never opened: without a cache, a trace row's plan
    // reads only its path.
    const PolicyGrid rows = PolicyGrid::sweep(
        std::vector<GridWorkload>{GridWorkload("raw", "raw.emtr"),
                                  suite[0], suite[1],
                                  GridWorkload("packed", "packed.emtc")},
        {"TPLRU"}, window);

    const struct
    {
        const char *budgetMb;
        std::vector<RowSource> sources;
    } kCases[] = {
        {"0",
         {RowSource::Stream, RowSource::Live, RowSource::Live,
          RowSource::Stream}},
        {"24",
         {RowSource::Stream, RowSource::Live, RowSource::Live,
          RowSource::Stream}},
        {"25",
         {RowSource::Replay, RowSource::Live, RowSource::Live,
          RowSource::Stream}},
        {"50",
         {RowSource::Replay, RowSource::Replay, RowSource::Live,
          RowSource::Stream}},
    };
    for (const auto &test_case : kCases) {
        SCOPED_TRACE(test_case.budgetMb);
        const ScopedEnv budget("EMISSARY_REPLAY_BUDGET_MB",
                               test_case.budgetMb);
        const GridPlan plan = planGrid(rows, GridOptions{});
        EXPECT_EQ(plan.bufferRecords, std::uint64_t{1} << 20);
        EXPECT_EQ(plan.sources, test_case.sources);
    }
}

TEST(GridPlan, OnePolicyFusedGridSamplesNothing)
{
    const GridPlan one = planGrid(suiteGrid({"TPLRU"}, 2), fusedOptions(8));
    EXPECT_TRUE(one.fused);
    EXPECT_EQ(one.sampledSets, 0u);
    ASSERT_EQ(one.passes.size(), 2u);
    EXPECT_EQ(one.passes[1].row, 1u);
    EXPECT_EQ(one.passes[1].columns, Columns({0}));

    const GridPlan two =
        planGrid(suiteGrid({"TPLRU", "LRU"}, 2), fusedOptions(8));
    EXPECT_EQ(two.sampledSets, 8u);
    EXPECT_EQ(two.passes[1].columns, Columns({0, 1}));
}

TEST(GridPlan, ReplayRowsWithTwoMachinesOrMoreSharePredictions)
{
    using Keys = std::vector<std::optional<std::size_t>>;
    const Keys none = {std::nullopt};

    // A Fig. 5 row: its first pass, the P(14):S&E leader, keys it.
    EXPECT_EQ(planGrid(suiteGrid(fig5Policies(), 2), GridOptions{})
                  .predictionColumns,
              (Keys{11, 11}));
    // One P(N) group is one pass, but its member may re-run.
    EXPECT_EQ(planGrid(suiteGrid({"P(2):S&E", "P(8):S&E"}), GridOptions{})
                  .predictionColumns,
              Keys{1});
    // One machine per row predicts for itself: a one-policy grid, or
    // a fused row of up to kMaxLanes lanes. A wider fused row runs
    // two passes.
    EXPECT_EQ(planGrid(suiteGrid({"TPLRU"}, 2), GridOptions{})
                  .predictionColumns,
              (Keys{std::nullopt, std::nullopt}));
    EXPECT_EQ(planGrid(suiteGrid(fig5Policies()), fusedOptions(8))
                  .predictionColumns,
              none);
    std::vector<std::string> wide(core::kFusedLaneColumns + 1,
                                  "LRU");
    EXPECT_EQ(planGrid(suiteGrid(wide), fusedOptions(0)).predictionColumns,
              Keys{0});

    // Only replay rows: an EMTC row streams, and past the budget a
    // synthetic row runs live and an EMTR row streams.
    const PolicyGrid mixed = PolicyGrid::sweep(
        std::vector<GridWorkload>{trace::datacenterSuite()[0],
                                  GridWorkload("packed", "packed.emtc"),
                                  GridWorkload("raw", "raw.emtr")},
        {"TPLRU", "LRU"}, smallWindow());
    EXPECT_EQ(planGrid(mixed, GridOptions{}).predictionColumns,
              (Keys{0, std::nullopt, 0}));
    {
        const ScopedEnv budget("EMISSARY_REPLAY_BUDGET_MB", "0");
        EXPECT_EQ(planGrid(mixed, GridOptions{}).predictionColumns,
                  (Keys{std::nullopt, std::nullopt, std::nullopt}));
    }

    // Only fresh passes count: row 0 keeps one, row 1 none.
    const PolicyGrid two = suiteGrid({"TPLRU", "LRU", "P(8):S&E"}, 2);
    FakeCache cache;
    for (const auto &[w, r] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {0, 0}, {0, 2}, {1, 0}, {1, 1}, {1, 2}})
        cache.serve.insert(cellCacheCanonical(
            two.workloads[w], two.runs[r], "", 0, buildInfo().gitSha));
    GridOptions cached;
    cached.cellCache = &cache;
    const GridPlan plan = planGrid(two, cached);
    EXPECT_EQ(plan.sources[1], RowSource::None);
    EXPECT_EQ(plan.predictionColumns, (Keys{std::nullopt, std::nullopt}));
}

TEST(GridPlan, SamplingFactorIsZeroOrAPowerOfTwo)
{
    const PolicyGrid grid = suiteGrid({"TPLRU", "LRU"});
    try {
        planGrid(grid, fusedOptions(3));
        ADD_FAILURE() << "factor 3 planned";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("sampling factor 3"),
                  std::string::npos)
            << error.what();
    }
    // A sequential grid does not sample, but the request is still bad.
    GridOptions sequential;
    sequential.sampledSets = 12;
    EXPECT_THROW(planGrid(grid, sequential), std::invalid_argument);
    for (const unsigned factor : {0u, 1u, 8u})
        EXPECT_NO_THROW(planGrid(grid, fusedOptions(factor))) << factor;
}

TEST(GridPlan, EmptyGridThrows)
{
    EXPECT_THROW(planGrid(PolicyGrid{}, GridOptions{}),
                 std::invalid_argument);
}

/** In-memory CellResultCache for the executed grid. */
class MapCache : public CellResultCache
{
  public:
    bool
    lookup(const std::string &key, const std::string &canonical,
           CellCacheEntry &out) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries.find(key);
        if (it == entries.end() || it->second.first != canonical)
            return false;
        out = it->second.second;
        return true;
    }

    void
    store(const std::string &key, const std::string &canonical,
          const CellCacheEntry &entry) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries[key] = {canonical, entry};
    }

    std::map<std::string, std::pair<std::string, CellCacheEntry>> entries;

  private:
    std::mutex mutex_;
};

TEST(GridPlan, RunGridFollowsItsPlan)
{
    // Mixed knobs (so fusion falls back), two P(N) groups and one
    // cached cell, on one worker and on three.
    PolicyGrid mixed = PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat"),
            trace::profileByName("verilator")},
        {"TPLRU", "P(2):S&E", "P(14):S&E", "P(6):S&E",
         "P(14):S&E&R(1/32)", "P(2):S&E&R(1/32)", "LRU"},
        smallWindow());
    mixed.runs[6].options.fdip = false;
    MapCache warm;
    {
        GridOptions options;
        options.cellCache = &warm;
        ThreadPool pool(2);
        runGrid(PolicyGrid{{mixed.workloads[1]}, {mixed.runs[0]}}, pool,
                options);
    }
    ASSERT_EQ(warm.entries.size(), 1u);

    for (const unsigned workers : {1u, 3u}) {
        SCOPED_TRACE(workers);
        MapCache cache;
        cache.entries = warm.entries;
        GridOptions options = fusedOptions(8);
        options.cellCache = &cache;
        // Lookups change nothing, so runGrid plans the same grid.
        const GridPlan plan = planGrid(mixed, options);
        ThreadPool pool(workers);
        const GridResults results = runGrid(mixed, pool, options);

        EXPECT_FALSE(results.fused());
        EXPECT_EQ(results.fused(), plan.fused);
        EXPECT_EQ(results.sampledSets(), plan.sampledSets);
        EXPECT_TRUE(plan.cells[1][0].cached());
        std::size_t shared = 0;
        for (std::size_t w = 0; w < mixed.workloads.size(); ++w) {
            EXPECT_EQ(results.sourceAt(w), plan.sources[w]);
            for (std::size_t r = 0; r < mixed.runs.size(); ++r) {
                const CellExecution execution = results.executionAt(w, r);
                if (plan.cells[w][r].cached()) {
                    EXPECT_EQ(execution, CellExecution::Cached);
                    continue;
                }
                // Each fresh cell leads one pass or is one's member.
                std::size_t leads = 0;
                std::size_t leader = r;
                for (const GridPass &pass : plan.passes) {
                    if (pass.row != w)
                        continue;
                    leads += pass.columns.front() == r;
                    for (const std::size_t m : pass.members)
                        if (m == r)
                            leader = pass.columns.front();
                }
                EXPECT_EQ(leads + (leader != r), 1u) << w << "," << r;
                if (execution == CellExecution::Shared) {
                    ++shared;
                    EXPECT_NE(leader, r) << w << "," << r;
                    EXPECT_EQ(results.sharedWith(w, r), leader);
                } else {
                    EXPECT_EQ(execution, CellExecution::Sequential);
                    EXPECT_EQ(results.sharedWith(w, r), r);
                }
            }
        }
        EXPECT_GT(shared, 0u);
    }
}

} // namespace
} // namespace emissary::core
