/**
 * @file
 * N-equivalence sharing in the sequential grid engine. A row's P(N)
 * columns that differ only in N run their largest N first; members
 * inside the leader's EmissaryPolicy::sameRunRange take its result
 * (CellExecution::Shared), the rest run as ordinary cells. Checked
 * here on a Fig. 5-shaped grid:
 *
 *  - every cell equals its own per-cell runPolicy, Metrics and
 *    counter registry, shared or not;
 *  - results and provenance do not depend on the worker count;
 *  - exactly the members inside the leader's range are Shared, and
 *    the sweep JSON, timing table, flight recorder and progress
 *    callback account for them;
 *  - a cell cache holding only a leader changes nothing;
 *  - a failing leader fails the grid without running its members;
 *  - on one worker a row's first simulated cell is a group leader.
 *
 * Prediction sharing: a replay row's machines read the block outcomes
 * its build job predicted once (frontend::PredictionStream). On the
 * 13 Fig. 5 policies every cell, re-run P(N) members included, still
 * equals its own inline run at 1 and 4 workers; a fused row of two
 * lane chunks equals the same grid predicted inline; columns under
 * another seed predict for themselves and match their own runs.
 *
 * Fused lane sharing: the P(N) monitor lanes of a fused row group
 * the same way, and each member lane that shares its leader lane's
 * result equals its own replay behind the same timing lane, at 1 and
 * 4 workers; some member lanes replay on their own.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/buildinfo.hh"
#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/observability.hh"
#include "core/threadpool.hh"
#include "frontend/frontend.hh"
#include "replacement/spec.hh"
#include "stats/span_recorder.hh"
#include "trace/profile.hh"
#include "trace/program.hh"

namespace emissary
{
namespace
{

using core::CellExecution;
using core::GridOptions;
using core::GridResults;
using core::PolicyGrid;
using replacement::PolicySpec;

/** TPLRU plus P(2/6/10/14) under both Fig. 5 selections. At these
 *  windows tomcat and verilator each have shared and re-run
 *  members. */
PolicyGrid
sharingGrid()
{
    core::RunOptions options;
    options.warmupInstructions = 30'000;
    options.measureInstructions = 100'000;
    std::vector<std::string> policies = {"TPLRU"};
    for (const unsigned n : {2u, 6u, 10u, 14u}) {
        policies.push_back("P(" + std::to_string(n) + "):S&E");
        policies.push_back("P(" + std::to_string(n) + "):S&E&R(1/32)");
    }
    return PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat"),
            trace::profileByName("verilator")},
        policies, options);
}

/** The leader column of @p r: the largest N with r's selection. */
std::size_t
leaderOf(const PolicyGrid &grid, std::size_t r)
{
    const PolicySpec spec = PolicySpec::parse(grid.runs[r].l2Policy);
    std::size_t leader = r;
    for (std::size_t c = 0; c < grid.runs.size(); ++c) {
        const PolicySpec other = PolicySpec::parse(grid.runs[c].l2Policy);
        if (other.family == replacement::PolicyFamily::EmissaryP &&
            other.selector == spec.selector &&
            other.protectN >
                PolicySpec::parse(grid.runs[leader].l2Policy).protectN)
            leader = c;
    }
    return leader;
}

/** One cell simulated on its own, as the oracle. */
struct CellRun
{
    std::string metrics;
    std::string registry;
    replacement::ProtectRange range;
};

std::vector<std::vector<CellRun>>
perCellRuns(const PolicyGrid &grid)
{
    std::vector<std::vector<CellRun>> out(grid.workloads.size());
    core::ThreadPool pool(4);
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const trace::SyntheticProgram program(grid.workloads[w].profile);
        std::vector<std::future<CellRun>> futures;
        for (const core::RunSpec &run : grid.runs)
            futures.push_back(pool.submit([&program, &run]() {
                core::RunTelemetry telemetry;
                const core::Metrics metrics =
                    core::run(program, {PolicySpec::parse(run.l2Policy)}, 0,
                              PolicySpec::parse(run.options.l1iPolicy),
                              run.options, nullptr, &telemetry)
                        .front();
                return CellRun{
                    metrics.toJson().dump(0),
                    core::registryJson(telemetry.registries.front()).dump(0),
                    telemetry.l2SameRunRange};
            }));
        for (auto &future : futures)
            out[w].push_back(future.get());
    }
    return out;
}

GridResults
runSharingGrid(const PolicyGrid &grid, unsigned workers,
               GridOptions options = {})
{
    options.collectRegistries = true;
    core::ThreadPool pool(workers);
    return core::runGrid(grid, pool, options);
}

std::string
cellJson(const GridResults &results, std::size_t w, std::size_t r)
{
    return results.at(w, r).toJson().dump(0);
}

std::string
registryText(const GridResults &results, std::size_t w, std::size_t r)
{
    return core::registryJson(results.registryAt(w, r)).dump(0);
}

class GridSharing : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        grid_ = new PolicyGrid(sharingGrid());
        oracle_ = new std::vector<std::vector<CellRun>>(
            perCellRuns(*grid_));
        results_ = new GridResults(runSharingGrid(*grid_, 4));
    }

    static void
    TearDownTestSuite()
    {
        delete results_;
        delete oracle_;
        delete grid_;
    }

    static PolicyGrid *grid_;
    static std::vector<std::vector<CellRun>> *oracle_;
    static GridResults *results_;
};

PolicyGrid *GridSharing::grid_ = nullptr;
std::vector<std::vector<CellRun>> *GridSharing::oracle_ = nullptr;
GridResults *GridSharing::results_ = nullptr;

TEST_F(GridSharing, EveryCellEqualsItsOwnRun)
{
    for (std::size_t w = 0; w < grid_->workloads.size(); ++w)
        for (std::size_t r = 0; r < grid_->runs.size(); ++r) {
            EXPECT_EQ(cellJson(*results_, w, r), (*oracle_)[w][r].metrics)
                << grid_->workloads[w].name << " "
                << grid_->runs[r].l2Policy;
            EXPECT_EQ(registryText(*results_, w, r),
                      (*oracle_)[w][r].registry)
                << grid_->workloads[w].name << " "
                << grid_->runs[r].l2Policy;
        }
}

TEST_F(GridSharing, ExactlyTheMembersInsideTheLeadersRangeAreShared)
{
    for (std::size_t w = 0; w < grid_->workloads.size(); ++w) {
        std::size_t shared = 0;
        std::size_t rerun = 0;
        for (std::size_t r = 0; r < grid_->runs.size(); ++r) {
            const PolicySpec spec =
                PolicySpec::parse(grid_->runs[r].l2Policy);
            const std::size_t leader =
                spec.family == replacement::PolicyFamily::EmissaryP
                    ? leaderOf(*grid_, r)
                    : r;
            const bool inside =
                leader != r &&
                (*oracle_)[w][leader].range.contains(spec.protectN);
            EXPECT_EQ(results_->executionAt(w, r),
                      inside ? CellExecution::Shared
                             : CellExecution::Sequential)
                << grid_->workloads[w].name << " "
                << grid_->runs[r].l2Policy;
            EXPECT_EQ(results_->sharedWith(w, r), inside ? leader : r);
            shared += inside;
            rerun += leader != r && !inside;
        }
        // The grid exercises both outcomes in every row.
        EXPECT_GT(shared, 0u) << grid_->workloads[w].name;
        EXPECT_GT(rerun, 0u) << grid_->workloads[w].name;
    }
}

TEST_F(GridSharing, OneWorkerGivesTheSameGrid)
{
    const GridResults serial = runSharingGrid(*grid_, 1);
    for (std::size_t w = 0; w < grid_->workloads.size(); ++w)
        for (std::size_t r = 0; r < grid_->runs.size(); ++r) {
            EXPECT_EQ(cellJson(serial, w, r), cellJson(*results_, w, r));
            EXPECT_EQ(registryText(serial, w, r),
                      registryText(*results_, w, r));
            EXPECT_EQ(serial.executionAt(w, r),
                      results_->executionAt(w, r));
            EXPECT_EQ(serial.sharedWith(w, r),
                      results_->sharedWith(w, r));
        }
}

TEST_F(GridSharing, SweepJsonAndTimingTableNameTheSharedCells)
{
    const stats::JsonValue doc = core::sweepJson(*grid_, *results_);
    EXPECT_EQ(doc.find("mode")->asString(), "sequential");
    const stats::JsonValue *runs = doc.find("runs");
    std::size_t shared = 0;
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const stats::JsonValue &run = runs->at(i);
        const std::size_t w = i / grid_->runs.size();
        const std::size_t r = i % grid_->runs.size();
        if (run.find("execution")->asString() != "shared") {
            EXPECT_EQ(run.find("shared_with"), nullptr);
            continue;
        }
        ++shared;
        EXPECT_EQ(run.find("shared_with")->asString(),
                  grid_->runs[results_->sharedWith(w, r)].l2Policy);
        EXPECT_EQ(run.find("wall_seconds")->asDouble(), 0.0);
    }
    ASSERT_GT(shared, 0u);

    const std::string table =
        results_->timingTable(grid_->workloads).render();
    const std::string label = "cells shared (exact)";
    const std::size_t row = table.find(label);
    ASSERT_NE(row, std::string::npos);
    std::istringstream cells(table.substr(row + label.size()));
    std::size_t count = 0;
    cells >> count;
    EXPECT_EQ(count, shared);
}

TEST_F(GridSharing, RecorderAndProgressSeeOneEventPerCell)
{
    stats::SpanRecorder recorder;
    std::size_t progress_calls = 0;
    core::ThreadPool pool(4);
    const GridResults traced = core::runGrid(
        *grid_, pool, GridOptions{},
        [&progress_calls](std::size_t, std::size_t) { ++progress_calls; },
        &recorder);
    EXPECT_EQ(progress_calls, grid_->cellCount());

    std::size_t cell_slices = 0;
    std::size_t shared_slices = 0;
    for (const auto &track : recorder.tracks())
        for (const auto &span : track.spans) {
            if (std::string(span.name) != "cell")
                continue;
            ++cell_slices;
            for (const auto &[key, value] : span.args)
                if (key == "shared_with")
                    ++shared_slices;
        }
    std::size_t shared = 0;
    for (std::size_t w = 0; w < grid_->workloads.size(); ++w)
        for (std::size_t r = 0; r < grid_->runs.size(); ++r) {
            shared += traced.executionAt(w, r) == CellExecution::Shared;
            EXPECT_EQ(cellJson(traced, w, r), cellJson(*results_, w, r));
        }
    EXPECT_EQ(cell_slices, grid_->cellCount());
    EXPECT_EQ(shared_slices, shared);
}

TEST_F(GridSharing, OneWorkerStartsARowWithAGroupLeader)
{
    // Leaders are submitted before their row's other cells, and the
    // pool starts jobs in submission order: the first cell slice of
    // a row must be one of its two leaders, P(14) under either
    // selection.
    PolicyGrid grid = *grid_;
    grid.workloads.resize(1);
    stats::SpanRecorder recorder;
    core::ThreadPool pool(1);
    const GridResults traced =
        core::runGrid(grid, pool, GridOptions{}, {}, &recorder);

    const std::vector<stats::SpanRecorder::Track> tracks =
        recorder.tracks();
    const stats::SpanRecorder::Span *first = nullptr;
    for (const auto &track : tracks)
        for (const auto &span : track.spans)
            if (std::string(span.name) == "cell" &&
                (!first || span.startNs < first->startNs))
                first = &span;
    ASSERT_NE(first, nullptr);
    std::string policy;
    for (const auto &[key, value] : first->args)
        if (key == "policy")
            policy = value.asString();
    EXPECT_TRUE(policy == "P(14):S&E" || policy == "P(14):S&E&R(1/32)")
        << "first cell: " << policy;
    for (std::size_t r = 0; r < grid.runs.size(); ++r)
        EXPECT_EQ(cellJson(traced, 0, r), cellJson(*results_, 0, r));
}

/** In-memory CellResultCache for the cache interplay checks. */
class MapCache : public core::CellResultCache
{
  public:
    bool
    lookup(const std::string &key, const std::string &canonical,
           core::CellCacheEntry &out) override
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
          const core::CellCacheEntry &entry) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries[key] = {canonical, entry};
    }

    std::map<std::string, std::pair<std::string, core::CellCacheEntry>>
        entries;

  private:
    std::mutex mutex_;
};

TEST_F(GridSharing, CacheHoldingOnlyALeaderYieldsTheSameGrid)
{
    // A cold cached run stores every cell, shared ones included.
    MapCache cold;
    GridOptions cold_options;
    cold_options.cellCache = &cold;
    const GridResults first = runSharingGrid(*grid_, 4, cold_options);
    EXPECT_EQ(cold.entries.size(), grid_->cellCount());

    // Keep only row 0's P(14):S&E entry: its former members now
    // group under the largest fresh N instead.
    const std::size_t leader = leaderOf(*grid_, 1);
    const std::string key = core::cellCacheKey(core::cellCacheCanonical(
        grid_->workloads[0], grid_->runs[leader], "", 0,
        core::buildInfo().gitSha));
    ASSERT_EQ(cold.entries.count(key), 1u);
    MapCache only_leader;
    only_leader.entries[key] = cold.entries[key];

    GridOptions options;
    options.cellCache = &only_leader;
    const GridResults warm = runSharingGrid(*grid_, 4, options);
    EXPECT_EQ(warm.executionAt(0, leader), CellExecution::Cached);
    for (std::size_t w = 0; w < grid_->workloads.size(); ++w)
        for (std::size_t r = 0; r < grid_->runs.size(); ++r) {
            EXPECT_EQ(cellJson(first, w, r), cellJson(*results_, w, r));
            EXPECT_EQ(cellJson(warm, w, r), cellJson(*results_, w, r));
            EXPECT_EQ(registryText(warm, w, r),
                      registryText(*results_, w, r));
            if (w != 0 || r != leader) {
                EXPECT_NE(warm.executionAt(w, r), CellExecution::Cached);
            }
        }
    EXPECT_EQ(only_leader.entries.size(), grid_->cellCount());
}

TEST(GridSharingErrors, FailedLeaderRethrowsAndLeavesMembersUnrun)
{
    // An empty window makes every simulation throw, the leader's
    // first: its members must neither run nor wedge the wait loop.
    core::RunOptions options;
    options.warmupInstructions = 1'000;
    options.measureInstructions = 0;
    const PolicyGrid grid = PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat")},
        {"P(2):S&E", "P(6):S&E", "P(14):S&E"}, options);
    std::size_t completed = 0;
    core::ThreadPool pool(2);
    EXPECT_THROW(core::runGrid(grid, pool, GridOptions{},
                               [&completed](std::size_t, std::size_t) {
                                   ++completed;
                               }),
                 std::invalid_argument);
    EXPECT_EQ(completed, 0u);
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

core::RunOptions
predictionWindow()
{
    core::RunOptions options;
    options.warmupInstructions = 50'000;
    options.measureInstructions = 150'000;
    return options;
}

/** Every row of @p grid predicts once under @p options' plan. */
void
expectEveryRowPredictsOnce(const PolicyGrid &grid,
                           const GridOptions &options)
{
    const core::GridPlan plan = core::planGrid(grid, options);
    for (std::size_t w = 0; w < grid.workloads.size(); ++w)
        EXPECT_TRUE(plan.predictionColumns[w].has_value()) << w;
}

TEST(PredictionSharing, Fig5CellsEqualTheirInlineRunsAtOneAndFourWorkers)
{
    const PolicyGrid grid = PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat"),
            trace::profileByName("verilator"),
            trace::profileByName("kafka")},
        fig5Policies(), predictionWindow());
    expectEveryRowPredictsOnce(grid, GridOptions{});
    const core::GridPlan plan = core::planGrid(grid, GridOptions{});
    const std::vector<std::vector<CellRun>> oracle = perCellRuns(grid);
    std::size_t rerun_members = 0;
    for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        const GridResults results = runSharingGrid(grid, workers);
        for (std::size_t w = 0; w < grid.workloads.size(); ++w)
            for (std::size_t r = 0; r < grid.runs.size(); ++r) {
                EXPECT_EQ(cellJson(results, w, r), oracle[w][r].metrics)
                    << w << "," << r;
                EXPECT_EQ(registryText(results, w, r),
                          oracle[w][r].registry)
                    << w << "," << r;
            }
        for (const core::GridPass &pass : plan.passes)
            for (const std::size_t r : pass.members)
                rerun_members += results.executionAt(pass.row, r) ==
                                 CellExecution::Sequential;
    }
    // Some members left their leader's range and ran on their own.
    EXPECT_GT(rerun_members, 0u);
}

TEST(PredictionSharing, TwoLaneChunkFusedRowEqualsInlinePrediction)
{
    std::vector<std::string> policies;
    while (policies.size() <= core::kFusedLaneColumns)
        for (const std::string &policy : fig5Policies())
            policies.push_back(policy);
    const PolicyGrid grid = PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat"),
            trace::profileByName("verilator")},
        policies, predictionWindow());
    GridOptions fused;
    fused.fused = true;
    expectEveryRowPredictsOnce(grid, fused);
    const GridResults shared = runSharingGrid(grid, 4, fused);

    // Without a replay budget the rows run live, and every machine
    // predicts for itself.
    ::setenv("EMISSARY_REPLAY_BUDGET_MB", "0", 1);
    const GridResults inline_grid = runSharingGrid(grid, 4, fused);
    ::unsetenv("EMISSARY_REPLAY_BUDGET_MB");
    EXPECT_EQ(inline_grid.sourceAt(0), core::RowSource::Live);
    for (std::size_t w = 0; w < grid.workloads.size(); ++w)
        for (std::size_t r = 0; r < grid.runs.size(); ++r) {
            EXPECT_EQ(shared.executionAt(w, r),
                      inline_grid.executionAt(w, r));
            EXPECT_EQ(cellJson(shared, w, r), cellJson(inline_grid, w, r))
                << w << "," << r;
            EXPECT_EQ(registryText(shared, w, r),
                      registryText(inline_grid, w, r))
                << w << "," << r;
        }
}

TEST(FusedLaneSharing, SharedMemberLanesEqualTheirOwnReplays)
{
    // A fused row's P(N) monitor lanes of one selection replay as a
    // group led by the largest N; a member inside the leader lane's
    // same-path range takes the leader lane's result. That must be
    // the member's own replay: the same policy behind the same timing
    // lane in a two-column grid.
    const PolicyGrid grid = PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat"),
            trace::profileByName("kafka"),
            trace::profileByName("verilator")},
        fig5Policies(), predictionWindow());
    const std::size_t columns = grid.runs.size();
    GridOptions fused;
    fused.fused = true;
    std::map<std::pair<std::size_t, std::size_t>, GridResults> alone;
    const auto own_replay = [&](std::size_t w, std::size_t r)
        -> const GridResults & {
        auto found = alone.find({w, r});
        if (found == alone.end()) {
            PolicyGrid pair;
            pair.workloads = {grid.workloads[w]};
            pair.runs = {grid.runs[0], grid.runs[r]};
            found = alone.emplace(std::make_pair(w, r),
                                  runSharingGrid(pair, 2, fused))
                        .first;
        }
        return found->second;
    };

    std::size_t shared = 0;
    std::size_t replayed = 0;
    for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        stats::SpanRecorder recorder;
        GridOptions traced = fused;
        traced.collectRegistries = true;
        core::ThreadPool pool(workers);
        const GridResults results =
            core::runGrid(grid, pool, traced, {}, &recorder);

        // One lane slice per monitor cell; shared ones name the
        // leader.
        std::map<std::uint64_t, bool> lanes;
        for (const auto &track : recorder.tracks())
            for (const auto &span : track.spans) {
                if (std::string(span.name) != "lane")
                    continue;
                std::uint64_t cell = 0;
                bool is_shared = false;
                for (const auto &[key, value] : span.args) {
                    if (key == "cell")
                        cell = value.asUint();
                    is_shared = is_shared || key == "shared_with";
                }
                EXPECT_TRUE(lanes.emplace(cell, is_shared).second)
                    << cell;
            }
        EXPECT_EQ(lanes.size(), grid.workloads.size() * (columns - 1));
        for (const auto &[cell, is_shared] : lanes) {
            const std::size_t w = cell / columns;
            const std::size_t r = cell % columns;
            EXPECT_EQ(results.executionAt(w, r),
                      CellExecution::FusedMonitor);
            if (PolicySpec::parse(grid.runs[r].l2Policy).family !=
                    replacement::PolicyFamily::EmissaryP ||
                leaderOf(grid, r) == r) {
                EXPECT_FALSE(is_shared) << w << "," << r;
                continue;
            }
            if (!is_shared) {
                ++replayed;
                continue;
            }
            ++shared;
            const GridResults &pair = own_replay(w, r);
            EXPECT_EQ(cellJson(results, w, r), cellJson(pair, 0, 1))
                << w << "," << r;
            EXPECT_EQ(registryText(results, w, r),
                      registryText(pair, 0, 1))
                << w << "," << r;
        }
    }
    EXPECT_GT(shared, 0u);
    // Some member lanes left their leader's range and replayed on
    // their own.
    EXPECT_GT(replayed, 0u);
}

TEST(PredictionSharing, OtherSeedColumnsPredictInlineAndMatchTheirRuns)
{
    core::RunOptions seed_a = predictionWindow();
    core::RunOptions seed_b = seed_a;
    seed_b.seed ^= 0x5A5A;
    ASSERT_FALSE(core::predictorConfig(seed_a) ==
                 core::predictorConfig(seed_b));
    PolicyGrid grid;
    grid.workloads = {trace::profileByName("tomcat")};
    grid.runs = {core::RunSpec("TPLRU", seed_a),
                 core::RunSpec("P(8):S&E", seed_a),
                 core::RunSpec("TPLRU", seed_b),
                 core::RunSpec("P(8):S&E", seed_b)};
    // The first pass's seed keys the row's stream.
    EXPECT_EQ(core::planGrid(grid, GridOptions{}).predictionColumns,
              std::vector<std::optional<std::size_t>>{0});
    const std::vector<std::vector<CellRun>> oracle = perCellRuns(grid);
    const GridResults results = runSharingGrid(grid, 4);
    for (std::size_t r = 0; r < grid.runs.size(); ++r) {
        EXPECT_EQ(cellJson(results, 0, r), oracle[0][r].metrics) << r;
        EXPECT_EQ(registryText(results, 0, r), oracle[0][r].registry)
            << r;
    }
    // The seeds make different machines.
    EXPECT_NE(oracle[0][0].metrics, oracle[0][2].metrics);
}

} // namespace
} // namespace emissary
