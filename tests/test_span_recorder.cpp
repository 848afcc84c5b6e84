/**
 * @file
 * Flight-recorder tests: SpanRecorder span/counter capture, the
 * ScopedTimer RAII helper, ChromeTraceWriter's trace_event output,
 * and the grid-engine integration — a recorded sweep must produce
 * one "cell" slice per grid cell, attributed to worker tracks, and
 * must not perturb the sweep's Metrics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/grid.hh"
#include "core/threadpool.hh"
#include "stats/chrome_trace.hh"
#include "stats/json.hh"
#include "stats/span_recorder.hh"
#include "trace/profile.hh"

namespace emissary
{
namespace
{

using stats::ChromeTraceWriter;
using stats::JsonValue;
using stats::ScopedTimer;
using stats::SpanRecorder;

TEST(SpanRecorder, RecordsNamedSpansWithArgs)
{
    SpanRecorder recorder;
    recorder.labelThread("main");
    {
        ScopedTimer span(&recorder, "outer");
        EXPECT_TRUE(span.active());
        span.arg("workload", JsonValue(std::string("tomcat")));
        span.arg("instructions", JsonValue(std::uint64_t{200000}));
    }

    const auto tracks = recorder.tracks();
    ASSERT_EQ(tracks.size(), 1u);
    EXPECT_EQ(tracks[0].label, "main");
    ASSERT_EQ(tracks[0].spans.size(), 1u);
    const SpanRecorder::Span &span = tracks[0].spans[0];
    EXPECT_STREQ(span.name, "outer");
    EXPECT_EQ(span.depth, 0u);
    ASSERT_EQ(span.args.size(), 2u);
    EXPECT_EQ(span.args[0].first, "workload");
    EXPECT_EQ(span.args[0].second.asString(), "tomcat");
    EXPECT_EQ(recorder.spanCount(), 1u);
}

TEST(SpanRecorder, DisabledRecorderRecordsNothing)
{
    SpanRecorder recorder;
    recorder.setEnabled(false);
    {
        ScopedTimer span(&recorder, "dropped");
        EXPECT_FALSE(span.active());
        span.arg("ignored", JsonValue(1.0));
    }
    recorder.recordSpan("also-dropped", 0, 100);
    recorder.counter("cells_completed", 1.0);
    recorder.labelThread("ghost");
    EXPECT_EQ(recorder.spanCount(), 0u);
    EXPECT_TRUE(recorder.tracks().empty());
    EXPECT_TRUE(recorder.counters().empty());

    // A null recorder is equally inert.
    ScopedTimer null_span(nullptr, "null");
    EXPECT_FALSE(null_span.active());
}

TEST(SpanRecorder, NestedScopesTrackDepth)
{
    SpanRecorder recorder;
    {
        ScopedTimer outer(&recorder, "outer");
        {
            ScopedTimer inner(&recorder, "inner");
        }
    }
    const auto tracks = recorder.tracks();
    ASSERT_EQ(tracks.size(), 1u);
    ASSERT_EQ(tracks[0].spans.size(), 2u);
    // Inner closes first, at depth 1; outer closes at depth 0.
    EXPECT_STREQ(tracks[0].spans[0].name, "inner");
    EXPECT_EQ(tracks[0].spans[0].depth, 1u);
    EXPECT_STREQ(tracks[0].spans[1].name, "outer");
    EXPECT_EQ(tracks[0].spans[1].depth, 0u);
    // The inner span nests inside the outer one in time.
    EXPECT_GE(tracks[0].spans[0].startNs, tracks[0].spans[1].startNs);
}

TEST(SpanRecorder, RetroactiveSpansInheritOpenDepth)
{
    SpanRecorder recorder;
    {
        ScopedTimer cell(&recorder, "cell");
        // Phase spans recorded mid-cell land one level below it,
        // exactly like the grid engine's warmup/measure children.
        recorder.recordSpan("warmup", 10, 20);
    }
    const auto tracks = recorder.tracks();
    ASSERT_EQ(tracks[0].spans.size(), 2u);
    EXPECT_STREQ(tracks[0].spans[0].name, "warmup");
    EXPECT_EQ(tracks[0].spans[0].depth, 1u);
    EXPECT_EQ(tracks[0].spans[0].startNs, 10u);
    EXPECT_EQ(tracks[0].spans[0].durationNs, 10u);
}

TEST(SpanRecorder, SeparateThreadsGetSeparateTracks)
{
    SpanRecorder recorder;
    recorder.labelThread("main");
    { ScopedTimer span(&recorder, "on-main"); }
    std::thread worker([&recorder]() {
        recorder.labelThread("worker");
        ScopedTimer span(&recorder, "on-worker");
    });
    worker.join();

    const auto tracks = recorder.tracks();
    ASSERT_EQ(tracks.size(), 2u);
    EXPECT_EQ(tracks[0].label, "main");
    EXPECT_EQ(tracks[1].label, "worker");
    ASSERT_EQ(tracks[0].spans.size(), 1u);
    ASSERT_EQ(tracks[1].spans.size(), 1u);
    EXPECT_STREQ(tracks[0].spans[0].name, "on-main");
    EXPECT_STREQ(tracks[1].spans[0].name, "on-worker");
}

TEST(SpanRecorder, CountersRecordInOrder)
{
    SpanRecorder recorder;
    recorder.counter("cells_completed", 1.0);
    recorder.counter("cells_completed", 2.0);
    recorder.counter("minst_per_sec", 3.5);
    const auto counters = recorder.counters();
    ASSERT_EQ(counters.size(), 3u);
    EXPECT_STREQ(counters[0].name, "cells_completed");
    EXPECT_DOUBLE_EQ(counters[1].value, 2.0);
    EXPECT_STREQ(counters[2].name, "minst_per_sec");
    EXPECT_LE(counters[0].timeNs, counters[2].timeNs);
}

TEST(ChromeTraceWriter, EmitsMetadataSlicesAndCounters)
{
    SpanRecorder recorder;
    recorder.labelThread("worker-0");
    {
        ScopedTimer span(&recorder, "cell");
        span.arg("policy", JsonValue(std::string("TPLRU")));
    }
    recorder.counter("cells_completed", 1.0);

    const JsonValue doc =
        JsonValue::parse(ChromeTraceWriter(recorder).toJson().dump());
    ASSERT_TRUE(doc.isArray());

    bool process_meta = false, thread_meta = false;
    bool cell_slice = false, counter_event = false;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        const JsonValue &event = doc.at(i);
        const std::string phase = event.find("ph")->asString();
        const std::string name = event.find("name")->asString();
        if (phase == "M" && name == "process_name")
            process_meta = true;
        if (phase == "M" && name == "thread_name") {
            thread_meta = true;
            EXPECT_EQ(event.find("args")
                          ->find("name")
                          ->asString(),
                      "worker-0");
        }
        if (phase == "X" && name == "cell") {
            cell_slice = true;
            EXPECT_TRUE(event.find("ts"));
            EXPECT_TRUE(event.find("dur"));
            EXPECT_EQ(event.find("args")
                          ->find("policy")
                          ->asString(),
                      "TPLRU");
        }
        if (phase == "C" && name == "cells_completed") {
            counter_event = true;
            EXPECT_DOUBLE_EQ(event.find("args")
                                 ->find("value")
                                 ->asDouble(),
                             1.0);
        }
    }
    EXPECT_TRUE(process_meta);
    EXPECT_TRUE(thread_meta);
    EXPECT_TRUE(cell_slice);
    EXPECT_TRUE(counter_event);
}

/**
 * Grid integration: record a small sweep, write the Chrome trace,
 * re-parse the file and reconcile it with the grid — one "cell"
 * slice per grid cell, every slice on a labelled worker track, and
 * phase children present. The recorded sweep's Metrics must be
 * bit-identical to an unrecorded one.
 */
TEST(SpanRecorderGrid, TraceFileReconcilesWithGrid)
{
    core::RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 50'000;
    const core::PolicyGrid grid = core::PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat"),
            trace::profileByName("kafka")},
        {"TPLRU", "P(8):S&E"}, options);

    SpanRecorder recorder;
    core::ThreadPool pool(2);
    const core::GridResults recorded =
        core::runGrid(grid, pool, {}, {}, &recorder);

    const std::string path =
        std::string(::testing::TempDir()) + "flight_trace.json";
    ChromeTraceWriter::write(path, recorder);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue doc = JsonValue::parse(text.str());
    ASSERT_TRUE(doc.isArray());

    std::size_t cell_slices = 0;
    std::set<std::uint64_t> cell_tids;
    std::set<std::string> phase_children;
    std::set<std::uint64_t> labelled_tids;
    std::multiset<std::uint64_t> measure_cycles;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        const JsonValue &event = doc.at(i);
        const std::string phase = event.find("ph")->asString();
        const std::string name = event.find("name")->asString();
        if (phase == "M" && name == "thread_name") {
            const std::string label =
                event.find("args")->find("name")->asString();
            EXPECT_TRUE(label.rfind("worker-", 0) == 0 ||
                        label == "caller")
                << label;
            labelled_tids.insert(
                event.find("tid")->asUint());
        }
        if (phase != "X")
            continue;
        if (name == "cell") {
            ++cell_slices;
            cell_tids.insert(event.find("tid")->asUint());
            EXPECT_TRUE(event.find("args")->find("workload"));
            EXPECT_TRUE(event.find("args")->find("policy"));
            EXPECT_TRUE(
                event.find("args")->find("minst_per_sec"));
        } else if (name == "warmup" || name == "measure" ||
                   name == "stat_export") {
            phase_children.insert(name);
            if (name == "stat_export")
                continue;
            // The engine steps some of a phase's cycles and adds
            // the idle rest in bulk.
            const std::uint64_t cycles =
                event.find("args")->find("cycles")->asUint();
            const std::uint64_t stepped =
                event.find("args")->find("stepped_cycles")->asUint();
            EXPECT_GT(stepped, 0u);
            EXPECT_LE(stepped, cycles);
            if (name == "measure")
                measure_cycles.insert(cycles);
        }
    }
    std::multiset<std::uint64_t> cell_cycles;
    for (std::size_t w = 0; w < grid.workloads.size(); ++w)
        for (std::size_t r = 0; r < grid.runs.size(); ++r)
            cell_cycles.insert(recorded.at(w, r).cycles);
    EXPECT_EQ(measure_cycles, cell_cycles);
    // Exactly one slice per grid cell, each on a labelled track.
    EXPECT_EQ(cell_slices, grid.cellCount());
    for (const std::uint64_t tid : cell_tids)
        EXPECT_TRUE(labelled_tids.count(tid)) << "tid " << tid;
    EXPECT_EQ(phase_children.size(), 3u);

    // Counter tracks reached the file: the last cells_completed
    // sample equals the cell count.
    double last_completed = 0.0;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        const JsonValue &event = doc.at(i);
        if (event.find("ph")->asString() == "C" &&
            event.find("name")->asString() == "cells_completed")
            last_completed =
                event.find("args")->find("value")->asDouble();
    }
    EXPECT_DOUBLE_EQ(last_completed,
                     static_cast<double>(grid.cellCount()));

    // Recording must not perturb the simulation.
    const core::GridResults plain = core::runGrid(grid, pool);
    for (std::size_t w = 0; w < grid.workloads.size(); ++w)
        for (std::size_t r = 0; r < grid.runs.size(); ++r) {
            EXPECT_EQ(recorded.at(w, r).cycles,
                      plain.at(w, r).cycles);
            EXPECT_EQ(recorded.at(w, r).instructions,
                      plain.at(w, r).instructions);
        }

    std::remove(path.c_str());
}

/** A cell cache in memory, for the fused-trace test below. */
class MapCache : public core::CellResultCache
{
  public:
    bool
    lookup(const std::string &key, const std::string &,
           core::CellCacheEntry &out) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto found = entries.find(key);
        if (found == entries.end())
            return false;
        out = found->second;
        return true;
    }

    void
    store(const std::string &key, const std::string &,
          const core::CellCacheEntry &entry) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries[key] = entry;
    }

    std::map<std::string, core::CellCacheEntry> entries;

  private:
    std::mutex mutex_;
};

/** Lane slices per cell index, true when the slice names a leader,
 *  and the miss_log slices' args. */
struct FusedTrace
{
    std::map<std::uint64_t, bool> lanes;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> logs;
};

FusedTrace
fusedTrace(const SpanRecorder &recorder)
{
    FusedTrace trace;
    for (const auto &track : recorder.tracks())
        for (const auto &span : track.spans) {
            const std::string name = span.name;
            std::map<std::string, JsonValue> args;
            for (const auto &[key, value] : span.args)
                args.emplace(key, value);
            if (name == "lane") {
                EXPECT_TRUE(args.count("workload"));
                EXPECT_TRUE(args.count("policy"));
                EXPECT_GT(args.at("events").asUint(), 0u);
                EXPECT_TRUE(trace.lanes
                                .emplace(args.at("cell").asUint(),
                                         args.count("shared_with") > 0)
                                .second);
            } else if (name == "miss_log") {
                trace.logs.emplace_back(args.at("events").asUint(),
                                        args.at("bytes").asUint());
            }
        }
    return trace;
}

/**
 * A fused grid records each timing pass's log as one "miss_log"
 * slice and each fresh monitor cell as one "lane" slice, whose time
 * is the cell's wall time (0 for a lane that shares its leader's
 * result). Cached monitor cells get no slice.
 */
TEST(SpanRecorderGrid, FusedTraceHasOneLaneSlicePerFreshMonitorCell)
{
    core::RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 50'000;
    const core::PolicyGrid grid = core::PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat"),
            trace::profileByName("kafka")},
        {"TPLRU", "P(8):S&E", "LRU", "P(2):S&E", "P(6):S&E"}, options);
    const std::size_t columns = grid.runs.size();
    MapCache cache;
    core::GridOptions fused;
    fused.fused = true;
    fused.cellCache = &cache;
    core::ThreadPool pool(2);

    SpanRecorder cold;
    const core::GridResults first =
        core::runGrid(grid, pool, fused, {}, &cold);
    const FusedTrace all = fusedTrace(cold);
    EXPECT_EQ(all.lanes.size(), grid.workloads.size() * (columns - 1));
    ASSERT_EQ(all.logs.size(), grid.workloads.size());
    for (const auto &[events, bytes] : all.logs) {
        EXPECT_GT(events, 0u);
        EXPECT_GE(bytes, events);
    }
    for (const auto &[cell, shared] : all.lanes) {
        const double seconds =
            first.timing().runSeconds[cell / columns][cell % columns];
        if (shared)
            EXPECT_EQ(seconds, 0.0) << cell;
        else
            EXPECT_GT(seconds, 0.0) << cell;
    }

    // Forget one monitor cell: its row's timing pass runs again, and
    // only that cell replays.
    const core::GridPlan plan = core::planGrid(grid, fused, 2);
    ASSERT_EQ(cache.entries.erase(plan.cells[1][2].cacheKey), 1u);
    SpanRecorder warm;
    const core::GridResults second =
        core::runGrid(grid, pool, fused, {}, &warm);
    const FusedTrace fresh = fusedTrace(warm);
    EXPECT_EQ(fresh.logs.size(), 1u);
    ASSERT_EQ(fresh.lanes.size(), 1u);
    EXPECT_EQ(fresh.lanes.begin()->first, columns + 2);
    EXPECT_EQ(second.executionAt(1, 2), core::CellExecution::FusedMonitor);
    EXPECT_EQ(second.at(1, 2).toJson().dump(0),
              first.at(1, 2).toJson().dump(0));
}

/**
 * A finished pass's lane jobs run before the next pass starts, so a
 * grid holds about one miss log per worker, not one per row: on one
 * worker every lane slice follows its own row's pass and precedes the
 * next row's.
 */
TEST(SpanRecorderGrid, OneWorkerReplaysEachPassBeforeTheNextPass)
{
    core::RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 50'000;
    const core::PolicyGrid grid = core::PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat"),
            trace::profileByName("kafka"),
            trace::profileByName("verilator")},
        {"TPLRU", "P(8):S&E", "LRU", "P(2):S&E", "P(6):S&E"}, options);
    core::GridOptions fused;
    fused.fused = true;
    core::ThreadPool pool(1);
    SpanRecorder recorder;
    core::runGrid(grid, pool, fused, {}, &recorder);

    const auto tracks = recorder.tracks();
    std::vector<const SpanRecorder::Span *> jobs;
    for (const auto &track : tracks)
        for (const auto &span : track.spans)
            if (std::string(span.name) == "group" ||
                std::string(span.name) == "lane")
                jobs.push_back(&span);
    std::sort(jobs.begin(), jobs.end(),
              [](const SpanRecorder::Span *a, const SpanRecorder::Span *b) {
                  return a->startNs < b->startNs;
              });
    const auto workload = [](const SpanRecorder::Span &span) {
        for (const auto &[key, value] : span.args)
            if (key == "workload")
                return value.asString();
        return std::string();
    };
    std::vector<std::string> passes;
    std::size_t lanes = 0;
    for (const SpanRecorder::Span *span : jobs) {
        if (std::string(span->name) == "group") {
            passes.push_back(workload(*span));
            continue;
        }
        ++lanes;
        ASSERT_FALSE(passes.empty());
        EXPECT_EQ(workload(*span), passes.back());
    }
    EXPECT_EQ(passes.size(), grid.workloads.size());
    EXPECT_EQ(lanes, grid.workloads.size() * (grid.runs.size() - 1));
}

} // namespace
} // namespace emissary
