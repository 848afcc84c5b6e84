/**
 * @file
 * Tests for the workload catalog: manifest parsing (strict, with the
 * defect named), relative path resolution, selection by name, and the
 * headline grid contract — a catalog sweep over a trace-backed
 * workload produces bit-identical Metrics whether the cells replay a
 * RecordBuffer or stream the container per cell.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/catalog.hh"
#include "core/grid.hh"
#include "core/threadpool.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "workload/emtc.hh"

namespace emissary
{
namespace
{

using core::GridWorkload;
using core::WorkloadCatalog;

const char *const kManifest = R"({
  "schema": "emissary.catalog.v1",
  "workloads": [
    {"name": "tomcat", "synthetic": {"profile": "tomcat"}},
    {"name": "tomcat.s7", "synthetic": {"profile": "tomcat", "seed": 7}},
    {"name": "served", "trace": {"path": "served.emtc",
                                 "skip_records": 100,
                                 "max_records": 5000}}
  ]
})";

TEST(WorkloadCatalog, ParsesManifest)
{
    const WorkloadCatalog catalog =
        WorkloadCatalog::parse(kManifest, "/data", "<test>");
    ASSERT_EQ(catalog.workloads().size(), 3u);

    const GridWorkload &synthetic = catalog.workloads()[0];
    EXPECT_EQ(synthetic.name, "tomcat");
    EXPECT_FALSE(synthetic.traceBacked());
    EXPECT_EQ(synthetic.profile.seed,
              trace::profileByName("tomcat").seed);

    const GridWorkload &reseeded = catalog.workloads()[1];
    EXPECT_EQ(reseeded.name, "tomcat.s7");
    EXPECT_EQ(reseeded.profile.seed, 7u);
    // The grid row's name propagates into the generator so reports
    // agree on what ran.
    EXPECT_EQ(reseeded.profile.name, "tomcat.s7");

    const GridWorkload &traced = catalog.workloads()[2];
    EXPECT_TRUE(traced.traceBacked());
    EXPECT_EQ(traced.tracePath, "/data/served.emtc");
    EXPECT_EQ(traced.skipRecords, 100u);
    EXPECT_EQ(traced.maxRecords, 5'000u);

    EXPECT_EQ(catalog.names(),
              (std::vector<std::string>{"tomcat", "tomcat.s7",
                                        "served"}));
}

TEST(WorkloadCatalog, AbsolutePathsAreLeftAlone)
{
    const WorkloadCatalog catalog = WorkloadCatalog::parse(
        R"({"schema": "emissary.catalog.v1",
            "workloads": [{"name": "t",
                           "trace": {"path": "/abs/t.emtc"}}]})",
        "/data", "<test>");
    EXPECT_EQ(catalog.workloads()[0].tracePath, "/abs/t.emtc");
}

TEST(WorkloadCatalog, SelectsByNameInGivenOrder)
{
    const WorkloadCatalog catalog =
        WorkloadCatalog::parse(kManifest, "", "<test>");
    const auto picked = catalog.select({"served", "tomcat"});
    ASSERT_EQ(picked.size(), 2u);
    EXPECT_EQ(picked[0].name, "served");
    EXPECT_EQ(picked[1].name, "tomcat");

    // Empty selection = everything, manifest order.
    EXPECT_EQ(catalog.select({}).size(), 3u);

    try {
        catalog.select({"nope"});
        FAIL() << "unknown name not rejected";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("nope"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("tomcat.s7"),
                  std::string::npos)
            << "error should list what the catalog has: "
            << e.what();
    }
}

void
expectParseFails(const std::string &text, const char *needle)
{
    try {
        WorkloadCatalog::parse(text, "", "<test>");
        FAIL() << "accepted: " << text;
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "wanted '" << needle << "' in: " << e.what();
    }
}

TEST(WorkloadCatalog, RejectsMalformedManifests)
{
    expectParseFails("not json", "<test>");
    expectParseFails(R"({"workloads": []})", "schema");
    expectParseFails(
        R"({"schema": "emissary.catalog.v2", "workloads": []})",
        "schema");
    expectParseFails(R"({"schema": "emissary.catalog.v1"})",
                     "workloads");
    expectParseFails(
        R"({"schema": "emissary.catalog.v1", "workloads": [],
            "extra": 1})",
        "workloads");
    expectParseFails(
        R"({"schema": "emissary.catalog.v1",
            "workloads": [{"synthetic": {"profile": "tomcat"}}]})",
        "name");
    expectParseFails(
        R"({"schema": "emissary.catalog.v1",
            "workloads": [{"name": "x"}]})",
        "exactly one");
    expectParseFails(
        R"({"schema": "emissary.catalog.v1",
            "workloads": [{"name": "x",
                           "synthetic": {"profile": "tomcat"},
                           "trace": {"path": "x.emtc"}}]})",
        "exactly one");
    expectParseFails(
        R"({"schema": "emissary.catalog.v1",
            "workloads": [{"name": "x",
                           "synthetic": {"profile": "tomcat",
                                         "bogus_knob": 1}}]})",
        "bogus_knob");
    expectParseFails(
        R"({"schema": "emissary.catalog.v1",
            "workloads": [{"name": "x",
                           "synthetic": {"profile": "not-a-suite"}}]})",
        "not-a-suite");
    expectParseFails(
        R"({"schema": "emissary.catalog.v1",
            "workloads": [{"name": "x",
                           "trace": {"path": "x.emtc",
                                     "bogus": 1}}]})",
        "bogus");
    expectParseFails(
        R"({"schema": "emissary.catalog.v1",
            "workloads": [
              {"name": "x", "synthetic": {"profile": "tomcat"}},
              {"name": "x", "synthetic": {"profile": "kafka"}}]})",
        "duplicate");
    expectParseFails(
        R"({"schema": "emissary.catalog.v1",
            "workloads": [{"name": "x",
                           "trace": {"path": "x.emtc",
                                     "skip_records": -4}}]})",
        "skip_records");
}

TEST(WorkloadCatalog, LoadNamesTheFileOnFailure)
{
    try {
        WorkloadCatalog::load("/nonexistent/catalog.json");
        FAIL() << "missing file not rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(
            std::string(e.what()).find("/nonexistent/catalog.json"),
            std::string::npos)
            << e.what();
    }
}

/**
 * The grid contract over a catalog mixing synthetic and trace-backed
 * workloads: the budget moves the synthetic row between replay and
 * live generation (the EMTC row streams under both) without changing
 * a bit, and every cell names the grid row (not the file) in its
 * Metrics. tests/test_runner.cpp holds streamed EMTC rows to their
 * replay buffer.
 */
TEST(WorkloadCatalog, GridMetricsIdenticalAcrossReplayBudgets)
{
    // Build a small container to sweep.
    trace::WorkloadProfile profile = trace::profileByName("tomcat");
    profile.codeFootprintBytes = 128 * 1024;
    profile.seed = 4242;
    const trace::SyntheticProgram program(profile);
    trace::SyntheticExecutor executor(program);
    const std::string path = std::string(::testing::TempDir()) +
                             "/emissary_catalog_grid.emtc";
    {
        workload::PackedTraceWriter writer(path, "grid-test");
        std::vector<trace::TraceRecord> chunk(4096);
        for (int i = 0; i < 40; ++i) {
            executor.fill(chunk.data(), chunk.size());
            writer.append(chunk.data(), chunk.size());
        }
        writer.finish();
    }

    const std::string manifest =
        R"({"schema": "emissary.catalog.v1",
            "workloads": [
              {"name": "live", "synthetic": {"profile": "kafka"}},
              {"name": "packed", "trace": {"path": ")" +
        path + R"(", "skip_records": 1000}}]})";
    const WorkloadCatalog catalog =
        WorkloadCatalog::parse(manifest, "", "<test>");

    core::RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 60'000;
    const core::PolicyGrid grid = core::PolicyGrid::sweep(
        catalog.workloads(), {"TPLRU", "P(8):S&E"}, options);

    ASSERT_EQ(setenv("EMISSARY_REPLAY_BUDGET_MB", "0", 1), 0);
    core::ThreadPool pool(2);
    const core::GridResults streamed = core::runGrid(grid, pool);
    ASSERT_EQ(setenv("EMISSARY_REPLAY_BUDGET_MB", "1024", 1), 0);
    const core::GridResults replayed = core::runGrid(grid, pool);
    ASSERT_EQ(unsetenv("EMISSARY_REPLAY_BUDGET_MB"), 0);

    const std::uint64_t footprint =
        workload::readTraceInfo(path).uniqueCodeLines;
    for (std::size_t w = 0; w < 2; ++w) {
        for (std::size_t r = 0; r < 2; ++r) {
            const core::Metrics &a = streamed.at(w, r);
            const core::Metrics &b = replayed.at(w, r);
            EXPECT_EQ(a.toJson().dump(), b.toJson().dump())
                << "cell (" << w << ", " << r << ")";
            EXPECT_EQ(a.benchmark, grid.workloads[w].name);
        }
        EXPECT_GT(streamed.at(w, 0).instructions, 0u);
    }
    // Trace-backed rows carry the container's pack-time footprint on
    // both paths.
    EXPECT_EQ(streamed.at(1, 0).codeFootprintLines, footprint);
    EXPECT_EQ(replayed.at(1, 0).codeFootprintLines, footprint);

    std::remove(path.c_str());
}

} // namespace
} // namespace emissary
