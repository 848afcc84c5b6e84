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
 *  - row sources: a trace row always streams; a synthetic row packs
 *    when two or more machines or a chunked pass read it, or when a
 *    worker is spare; the budget at 0, at exactly one buffer (which a
 *    shared row gets first) and at its 2^44 MB cap, and a buffer
 *    whose byte count would wrap;
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
#include <limits>
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
using Keys = std::vector<std::optional<std::size_t>>;
using Sources = std::vector<RowSource>;

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
    const GridPlan plan = planGrid(mixed, fusedOptions(8), 4);

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
    const GridPlan plan = planGrid(wide, fusedOptions(0), 4);

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
    const GridPlan plan = planGrid(fig5, GridOptions{}, 4);

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
    const GridPlan plan = planGrid(fig5, fused, 4);
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
    for (const GridPass &pass : planGrid(chunked, fused, 4).passes) {
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
    const GridPlan plan = planGrid(fused, options, 2);

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
    // Each fresh row has one reader, its pass: on two workers neither
    // packs, and on three the first takes the spare worker.
    ASSERT_EQ(plan.passes.size(), 2u);
    EXPECT_EQ(plan.passes[0].row, 0u);
    EXPECT_EQ(plan.passes[0].columns, Columns({0, 1}));
    EXPECT_EQ(plan.passes[1].row, 1u);
    EXPECT_EQ(plan.passes[1].columns, Columns({0}));
    EXPECT_EQ(plan.sources,
              (Sources{RowSource::Live, RowSource::Live, RowSource::None}));
    EXPECT_EQ(planGrid(fused, options, 3).sources,
              (Sources{RowSource::Replay, RowSource::Live, RowSource::None}));
}

/** A window whose buffer is exactly 25 MiB: 2^20 records of 25 B. */
RunOptions
oneBufferWindow()
{
    RunOptions window;
    window.warmupInstructions = 0;
    window.measureInstructions =
        (std::uint64_t{1} << 20) - trace::RecordBuffer::recordsForWindow(0);
    return window;
}

TEST(GridPlan, ReplayBudgetAtZeroAndAtExactlyOneBuffer)
{
    const std::vector<trace::WorkloadProfile> suite =
        trace::datacenterSuite();
    // Files are never opened: without a cache, a trace row's plan
    // reads only its path. Two machines read every row, so each
    // synthetic row packs while the budget lasts; the trace row
    // streams at every budget and takes none of it.
    const PolicyGrid rows = PolicyGrid::sweep(
        std::vector<GridWorkload>{suite[0],
                                  GridWorkload("packed", "packed.emtc"),
                                  suite[1], suite[2]},
        {"TPLRU", "LRU"}, oneBufferWindow());

    const struct
    {
        const char *budgetMb;
        std::vector<RowSource> sources;
    } kCases[] = {
        {"0",
         {RowSource::Live, RowSource::Stream, RowSource::Live,
          RowSource::Live}},
        {"24",
         {RowSource::Live, RowSource::Stream, RowSource::Live,
          RowSource::Live}},
        {"25",
         {RowSource::Replay, RowSource::Stream, RowSource::Live,
          RowSource::Live}},
        {"50",
         {RowSource::Replay, RowSource::Stream, RowSource::Replay,
          RowSource::Live}},
    };
    for (const auto &test_case : kCases) {
        SCOPED_TRACE(test_case.budgetMb);
        const ScopedEnv budget("EMISSARY_REPLAY_BUDGET_MB",
                               test_case.budgetMb);
        const GridPlan plan = planGrid(rows, GridOptions{}, 1);
        EXPECT_EQ(plan.bufferRecords, std::uint64_t{1} << 20);
        EXPECT_EQ(plan.sources, test_case.sources);
    }
}

TEST(GridPlan, OnePolicyFusedGridSamplesNothing)
{
    const GridPlan one =
        planGrid(suiteGrid({"TPLRU"}, 2), fusedOptions(8), 4);
    EXPECT_TRUE(one.fused);
    EXPECT_EQ(one.sampledSets, 0u);
    ASSERT_EQ(one.passes.size(), 2u);
    EXPECT_EQ(one.passes[1].row, 1u);
    EXPECT_EQ(one.passes[1].columns, Columns({0}));

    const GridPlan two =
        planGrid(suiteGrid({"TPLRU", "LRU"}, 2), fusedOptions(8), 4);
    EXPECT_EQ(two.sampledSets, 8u);
    EXPECT_EQ(two.passes[1].columns, Columns({0, 1}));
}

TEST(GridPlan, ReplayRowsWithTwoMachinesOrMoreSharePredictions)
{
    const Keys none = {std::nullopt};

    // A Fig. 5 row: its first pass, the P(14):S&E leader, keys it.
    EXPECT_EQ(planGrid(suiteGrid(fig5Policies(), 2), GridOptions{}, 4)
                  .predictionColumns,
              (Keys{11, 11}));
    // One P(N) group is one pass, but its member may re-run.
    EXPECT_EQ(planGrid(suiteGrid({"P(2):S&E", "P(8):S&E"}), GridOptions{},
                       4)
                  .predictionColumns,
              Keys{1});
    // One machine per row predicts for itself, even when its row packs
    // on a spare worker: a one-policy grid, or a fused row of up to
    // kFusedLaneColumns lanes. A wider fused row runs two passes.
    EXPECT_EQ(planGrid(suiteGrid({"TPLRU"}, 2), GridOptions{}, 4)
                  .predictionColumns,
              (Keys{std::nullopt, std::nullopt}));
    EXPECT_EQ(planGrid(suiteGrid(fig5Policies()), fusedOptions(8), 4)
                  .predictionColumns,
              none);
    std::vector<std::string> wide(core::kFusedLaneColumns + 1,
                                  "LRU");
    EXPECT_EQ(
        planGrid(suiteGrid(wide), fusedOptions(0), 4).predictionColumns,
        Keys{0});

    // Only replay rows: a trace row streams, and past the budget a
    // synthetic row runs live.
    const PolicyGrid mixed = PolicyGrid::sweep(
        std::vector<GridWorkload>{trace::datacenterSuite()[0],
                                  GridWorkload("packed", "packed.emtc"),
                                  trace::datacenterSuite()[1]},
        {"TPLRU", "LRU"}, smallWindow());
    EXPECT_EQ(planGrid(mixed, GridOptions{}, 4).predictionColumns,
              (Keys{0, std::nullopt, 0}));
    {
        const ScopedEnv budget("EMISSARY_REPLAY_BUDGET_MB", "0");
        EXPECT_EQ(planGrid(mixed, GridOptions{}, 4).predictionColumns,
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
    const GridPlan plan = planGrid(two, cached, 4);
    EXPECT_EQ(plan.sources[1], RowSource::None);
    EXPECT_EQ(plan.predictionColumns, (Keys{std::nullopt, std::nullopt}));
}

TEST(GridPlan, SingleReaderRowsPackOnlyOnSpareWorkers)
{
    // Four fused Fig. 5 rows: one timing pass reads each. On four
    // workers none is spare, and every row generates live inside its
    // pass; on six, two workers are spare, and the first two rows pack
    // beside their passes.
    const PolicyGrid fused = suiteGrid(fig5Policies(), 4);
    const GridPlan busy = planGrid(fused, fusedOptions(0), 4);
    EXPECT_EQ(busy.sources, Sources(4, RowSource::Live));
    EXPECT_EQ(busy.predictionColumns, Keys(4));
    const GridPlan spare = planGrid(fused, fusedOptions(0), 6);
    EXPECT_EQ(spare.sources,
              (Sources{RowSource::Replay, RowSource::Replay,
                       RowSource::Live, RowSource::Live}));
    EXPECT_EQ(spare.predictionColumns, Keys(4));

    // One exact cell on one worker: its pass takes the only worker.
    EXPECT_EQ(planGrid(suiteGrid({"TPLRU"}), GridOptions{}, 1).sources,
              Sources{RowSource::Live});
}

TEST(GridPlan, SharedAndChunkedRowsPackOnABusyPool)
{
    // A fused row of kFusedLaneColumns + 1 columns runs two timing
    // passes, so two machines read it.
    const std::vector<std::string> wide(core::kFusedLaneColumns + 1,
                                        "LRU");
    const GridPlan two_passes =
        planGrid(suiteGrid(wide), fusedOptions(0), 1);
    ASSERT_EQ(two_passes.passes.size(), 2u);
    EXPECT_EQ(two_passes.sources, Sources{RowSource::Replay});

    // A P(N) pair is one pass whose member may re-run.
    const GridPlan pair =
        planGrid(suiteGrid({"P(2):S&E", "P(8):S&E"}), GridOptions{}, 1);
    ASSERT_EQ(pair.passes.size(), 1u);
    EXPECT_EQ(pair.sources, Sources{RowSource::Replay});
    EXPECT_EQ(pair.predictionColumns, Keys{1});

    // One chunked pass needs random access, and predicts inline.
    PolicyGrid chunked = suiteGrid({"TPLRU"});
    chunked.runs[0].options.timeChunks = 4;
    const GridPlan chunks = planGrid(chunked, GridOptions{}, 1);
    EXPECT_EQ(chunks.sources, Sources{RowSource::Replay});
    EXPECT_EQ(chunks.predictionColumns, Keys(1));

    // A trace row has random access through its block index: shared,
    // chunked or on spare workers, it streams.
    PolicyGrid packed = PolicyGrid::sweep(
        std::vector<GridWorkload>{GridWorkload("packed", "packed.emtc")},
        {"P(2):S&E", "P(8):S&E"}, smallWindow());
    packed.runs[0].options.timeChunks = 4;
    EXPECT_EQ(planGrid(packed, GridOptions{}, 4).sources,
              Sources{RowSource::Stream});
}

TEST(GridPlan, OneBufferGoesToASharedRowBeforeAnEarlierSingleReader)
{
    // Row 0's LRU cell is cached, so one machine reads row 0 and two
    // read row 1. Four workers leave one spare, but a budget of one
    // buffer serves the shared row first.
    PolicyGrid grid = suiteGrid({"TPLRU", "LRU"}, 2);
    for (RunSpec &run : grid.runs)
        run.options = oneBufferWindow();
    FakeCache cache;
    cache.serve.insert(cellCacheCanonical(grid.workloads[0], grid.runs[1],
                                          "", 0, buildInfo().gitSha));
    GridOptions options;
    options.cellCache = &cache;
    {
        const ScopedEnv budget("EMISSARY_REPLAY_BUDGET_MB", "25");
        EXPECT_EQ(planGrid(grid, options, 4).sources,
                  (Sources{RowSource::Live, RowSource::Replay}));
    }
    const ScopedEnv budget("EMISSARY_REPLAY_BUDGET_MB", "50");
    EXPECT_EQ(planGrid(grid, options, 4).sources,
              (Sources{RowSource::Replay, RowSource::Replay}));
}

TEST(GridPlan, ReplayBudgetCountsSlotsWithoutWrapping)
{
    const PolicyGrid two = suiteGrid({"TPLRU", "LRU"});
    {
        // 2^44 MB, the largest budget, is 2^64 bytes: it must not
        // read as 0.
        const ScopedEnv budget("EMISSARY_REPLAY_BUDGET_MB",
                               "17592186044416");
        EXPECT_EQ(planGrid(two, GridOptions{}, 1).sources,
                  Sources{RowSource::Replay});
    }
    {
        const ScopedEnv budget("EMISSARY_REPLAY_BUDGET_MB",
                               "17592186044417");
        try {
            planGrid(two, GridOptions{}, 1);
            ADD_FAILURE() << "a budget above 2^44 MB planned";
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what())
                          .find("EMISSARY_REPLAY_BUDGET_MB"),
                      std::string::npos)
                << error.what();
        }
    }

    // A buffer of 2^64 + 9 bytes: its byte count would wrap to 9 and
    // fit the default budget millions of times.
    const std::uint64_t per_record = trace::RecordBuffer::kBytesPerRecord;
    const std::uint64_t records =
        std::numeric_limits<std::uint64_t>::max() / per_record + 1;
    ASSERT_EQ(records * per_record, 9u);
    PolicyGrid huge = two;
    for (RunSpec &run : huge.runs) {
        run.options.warmupInstructions = 0;
        run.options.measureInstructions =
            records - trace::RecordBuffer::recordsForWindow(0);
    }
    const GridPlan plan = planGrid(huge, GridOptions{}, 1);
    EXPECT_EQ(plan.bufferRecords, records);
    EXPECT_EQ(plan.sources, Sources{RowSource::Live});
}

TEST(GridPlan, SamplingFactorIsZeroOrAPowerOfTwo)
{
    const PolicyGrid grid = suiteGrid({"TPLRU", "LRU"});
    try {
        planGrid(grid, fusedOptions(3), 4);
        ADD_FAILURE() << "factor 3 planned";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("sampling factor 3"),
                  std::string::npos)
            << error.what();
    }
    // A sequential grid does not sample, but the request is still bad.
    GridOptions sequential;
    sequential.sampledSets = 12;
    EXPECT_THROW(planGrid(grid, sequential, 4), std::invalid_argument);
    for (const unsigned factor : {0u, 1u, 8u})
        EXPECT_NO_THROW(planGrid(grid, fusedOptions(factor), 4)) << factor;
}

TEST(GridPlan, EmptyGridThrows)
{
    EXPECT_THROW(planGrid(PolicyGrid{}, GridOptions{}, 4),
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
        const GridPlan plan = planGrid(mixed, options, workers);
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
