/**
 * @file
 * Tests for the sweep service and its content-addressed result
 * cache:
 *
 *  - cell identity (core::cellCacheCanonical) covers exactly the
 *    inputs that can change a cell's Metrics — policy, config,
 *    workload content (synthetic seed, EMTC container), execution
 *    role and build SHA — and nothing cosmetic (display names);
 *  - the ResultCache round-trips entries, verifies canonicals,
 *    survives restarts through its disk tier, spills past its
 *    budget and rejects corrupt files as misses;
 *  - the memoization contract: a warm runGrid serves every cell
 *    from cache with Metrics and counter registries bit-identical
 *    to a fresh sequential run, fused timing lanes are reusable by
 *    exact requests while monitor estimates never are, and config
 *    or sampling changes invalidate;
 *  - malformed requests come back as structured emissary.error.v1
 *    documents naming the offending field, and the service keeps
 *    serving afterwards (crafted fixtures included);
 *  - the TCP front end serves pings, rejects oversized requests and
 *    drains cleanly on a shutdown request.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/threadpool.hh"
#include "replacement/spec.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "service/server.hh"
#include "service/service.hh"
#include "stats/json.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "workload/emtc.hh"

namespace emissary
{
namespace
{

using core::CellCacheEntry;
using core::CellExecution;
using core::GridOptions;
using core::GridWorkload;
using core::Metrics;
using core::PolicyGrid;
using core::RunOptions;
using core::RunSpec;
using service::ResultCache;
using service::SweepService;
using stats::JsonValue;

RunOptions
smallWindow()
{
    RunOptions options;
    options.warmupInstructions = 2'000;
    options.measureInstructions = 8'000;
    return options;
}

std::string
tempPath(const char *tag, const char *ext = "")
{
    return std::string(::testing::TempDir()) + "/emissary_service_" +
           tag + ext;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << bytes;
}

GridWorkload
syntheticWorkload(const char *name, std::uint64_t seed)
{
    trace::WorkloadProfile profile = trace::profileByName("tomcat");
    profile.name = name;
    profile.seed = seed;
    GridWorkload workload(profile);
    workload.name = name;
    return workload;
}

/** Canonical of @p workload under one fixed run/role/build. */
std::string
canonicalOf(const GridWorkload &workload,
            const std::string &policy = "TPLRU",
            const std::string &timing_policy = "",
            unsigned sampled_sets = 0,
            const std::string &sha = "sha-a")
{
    return core::cellCacheCanonical(
        workload, RunSpec(policy, smallWindow()), timing_policy,
        sampled_sets, sha);
}

void
expectMetricsIdentical(const Metrics &a, const Metrics &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1iMpki, b.l1iMpki);
    EXPECT_EQ(a.l1dMpki, b.l1dMpki);
    EXPECT_EQ(a.l2InstMpki, b.l2InstMpki);
    EXPECT_EQ(a.l2DataMpki, b.l2DataMpki);
    EXPECT_EQ(a.l3Mpki, b.l3Mpki);
    EXPECT_EQ(a.starvationCycles, b.starvationCycles);
    EXPECT_EQ(a.starvationIqEmptyCycles, b.starvationIqEmptyCycles);
    EXPECT_EQ(a.feStallCycles, b.feStallCycles);
    EXPECT_EQ(a.beStallCycles, b.beStallCycles);
    EXPECT_EQ(a.totalStallCycles, b.totalStallCycles);
    EXPECT_EQ(a.decodeRate, b.decodeRate);
    EXPECT_EQ(a.issueRate, b.issueRate);
    EXPECT_EQ(a.condMispredictsPerKi, b.condMispredictsPerKi);
    EXPECT_EQ(a.btbMissesPerKi, b.btbMissesPerKi);
    EXPECT_EQ(a.energy.coreDynamicJ, b.energy.coreDynamicJ);
    EXPECT_EQ(a.energy.cacheDynamicJ, b.energy.cacheDynamicJ);
    EXPECT_EQ(a.energy.dramJ, b.energy.dramJ);
    EXPECT_EQ(a.energy.leakageJ, b.energy.leakageJ);
    EXPECT_EQ(a.priorityDistribution, b.priorityDistribution);
    EXPECT_EQ(a.highPriorityFills, b.highPriorityFills);
    EXPECT_EQ(a.priorityUpgrades, b.priorityUpgrades);
    EXPECT_EQ(a.codeFootprintLines, b.codeFootprintLines);
}

void
expectRegistriesIdentical(const stats::Registry &a,
                          const stats::Registry &b)
{
    ASSERT_EQ(a.names(), b.names());
    for (const std::string &name : a.names())
        EXPECT_EQ(a.value(name), b.value(name)) << name;
}

// ---------------------------------------------------------------
// Cell identity: what the cache key must (and must not) cover.
// ---------------------------------------------------------------

TEST(CellKey, SensitiveToPolicyConfigWorkloadAndBuild)
{
    const GridWorkload base = syntheticWorkload("w", 7);
    const std::string c0 = canonicalOf(base);

    EXPECT_NE(canonicalOf(base, "LRU"), c0);

    RunSpec reseeded("TPLRU", smallWindow());
    reseeded.options.seed = smallWindow().seed + 1;
    EXPECT_NE(core::cellCacheCanonical(base, reseeded, "", 0,
                                       "sha-a"),
              c0);

    RunSpec wider("TPLRU", smallWindow());
    wider.options.measureInstructions *= 2;
    EXPECT_NE(core::cellCacheCanonical(base, wider, "", 0, "sha-a"),
              c0);

    EXPECT_NE(canonicalOf(syntheticWorkload("w", 8)), c0);

    EXPECT_NE(canonicalOf(base, "TPLRU", "", 0, "sha-b"), c0);
}

TEST(CellKey, DisplayNamesAreCosmetic)
{
    const GridWorkload original = syntheticWorkload("w", 7);
    const GridWorkload renamed = syntheticWorkload("other-name", 7);
    EXPECT_EQ(canonicalOf(renamed), canonicalOf(original));

    RunSpec labelled("pretty label", "TPLRU", smallWindow());
    EXPECT_EQ(core::cellCacheCanonical(original, labelled, "", 0,
                                       "sha-a"),
              canonicalOf(original));
}

TEST(CellKey, PolicyNotationNormalises)
{
    // An alias and its canonical expansion are one cache identity.
    const GridWorkload w = syntheticWorkload("w", 7);
    const std::string expanded =
        replacement::PolicySpec::parse("EMISSARY").toString();
    EXPECT_EQ(canonicalOf(w, "EMISSARY"), canonicalOf(w, expanded));
}

TEST(CellKey, RoleKeyingSeparatesExactAndMonitorResults)
{
    const GridWorkload w = syntheticWorkload("w", 7);
    const std::string exact = canonicalOf(w, "LRU", "", 0);

    // Sequential cells and fused timing lanes are bit-identical, so
    // the exact role ignores the sampling factor: a sampled sweep
    // still reuses full-fidelity timing-lane entries.
    EXPECT_EQ(canonicalOf(w, "LRU", "", 8), exact);

    // Monitor estimates are keyed by the policy of the timing lane
    // that drove their pass and by the sampling factor; none of
    // those identities can ever serve an exact request.
    const std::string monitor = canonicalOf(w, "LRU", "TPLRU", 0);
    EXPECT_NE(monitor, exact);
    EXPECT_NE(canonicalOf(w, "LRU", "TPLRU", 8), monitor);
    EXPECT_NE(canonicalOf(w, "LRU", "P(8):S&E", 0), monitor);
}

TEST(CellKey, EmtcIdentityIsContainerContent)
{
    trace::WorkloadProfile profile = trace::profileByName("tomcat");
    profile.seed = 99;
    const trace::SyntheticProgram program(profile);
    trace::SyntheticExecutor executor(program);
    std::vector<trace::TraceRecord> records(3'000);
    executor.fill(records.data(), records.size());

    const auto pack = [&](const char *tag,
                          const std::vector<trace::TraceRecord> &r) {
        const std::string path = tempPath(tag, ".emtc");
        workload::PackedTraceWriter writer(path, "emtc-test", 512);
        writer.append(r.data(), r.size());
        writer.finish();
        return path;
    };

    const GridWorkload a("a", pack("emtc_a", records));
    const GridWorkload b("b", pack("emtc_b", records));
    EXPECT_EQ(canonicalOf(a), canonicalOf(b));

    // The block-index CRC digests every block, so a single flipped
    // pc changes the identity even at equal record counts.
    std::vector<trace::TraceRecord> tweaked = records;
    tweaked[100].pc ^= 0x40;
    const GridWorkload c("c", pack("emtc_c", tweaked));
    EXPECT_NE(canonicalOf(c), canonicalOf(a));

    std::vector<trace::TraceRecord> shorter = records;
    shorter.pop_back();
    const GridWorkload d("d", pack("emtc_d", shorter));
    EXPECT_NE(canonicalOf(d), canonicalOf(a));
}

TEST(CellKey, UnreadableTraceThrows)
{
    // A missing file, and a file that is not an EMTC container
    // whatever its name, have no content identity.
    const GridWorkload gone("gone", tempPath("missing", ".emtc"));
    EXPECT_THROW(canonicalOf(gone), std::runtime_error);
    const std::string path = tempPath("not_a_container", ".raw");
    writeFile(path, "emtr-payload-0123456789");
    try {
        canonicalOf(GridWorkload("raw", path));
        ADD_FAILURE() << "a file that is not a container was keyed";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
            << error.what();
    }
}

TEST(CellKey, KeyIsAStableContentAddress)
{
    const std::string key = core::cellCacheKey("canonical-text");
    EXPECT_EQ(key.rfind("emc1-", 0), 0u);
    ASSERT_EQ(key.size(), 5u + 16u);
    for (std::size_t i = 5; i < key.size(); ++i)
        EXPECT_TRUE(std::isxdigit(
            static_cast<unsigned char>(key[i])))
            << key;
    EXPECT_EQ(core::cellCacheKey("canonical-text"), key);
    EXPECT_NE(core::cellCacheKey("canonical-texU"), key);
}

// ---------------------------------------------------------------
// ResultCache: LRU index + disk tier.
// ---------------------------------------------------------------

CellCacheEntry
makeEntry(std::uint64_t tag)
{
    CellCacheEntry entry;
    entry.metrics.benchmark = "bench-" + std::to_string(tag);
    entry.metrics.policy = "TPLRU";
    entry.metrics.instructions = tag;
    entry.metrics.cycles = 1000 + tag;
    entry.metrics.ipc = 1.25 + static_cast<double>(tag);
    JsonValue counters = JsonValue::object();
    counters.set("sim.l2.misses", JsonValue(tag * 11));
    entry.counters = std::move(counters);
    return entry;
}

void
expectEntryEqual(const CellCacheEntry &a, const CellCacheEntry &b)
{
    EXPECT_EQ(a.metrics.benchmark, b.metrics.benchmark);
    EXPECT_EQ(a.metrics.instructions, b.metrics.instructions);
    EXPECT_EQ(a.metrics.ipc, b.metrics.ipc);
    EXPECT_EQ(a.counters.dump(0), b.counters.dump(0));
}

TEST(ResultCache, MemoryRoundTripVerifiesCanonical)
{
    ResultCache cache("");
    CellCacheEntry out;
    EXPECT_FALSE(cache.lookup("emc1-k", "canon", out));

    cache.store("emc1-k", "canon", makeEntry(3));
    ASSERT_TRUE(cache.lookup("emc1-k", "canon", out));
    expectEntryEqual(out, makeEntry(3));

    // Same key, different canonical: a hash collision must degrade
    // to a miss, never serve the other identity's result.
    EXPECT_FALSE(cache.lookup("emc1-k", "other-canon", out));

    const ResultCache::Snapshot snap = cache.snapshot();
    EXPECT_EQ(snap.hits, 1u);
    EXPECT_EQ(snap.misses, 2u);
    EXPECT_EQ(snap.entries, 1u);
    EXPECT_EQ(snap.diskWrites, 0u); // memory-only
    EXPECT_EQ(cache.diskPath("emc1-k"), "");
}

TEST(ResultCache, DiskTierSurvivesRestart)
{
    const std::string dir = tempPath("cache_restart");
    const std::string key =
        core::cellCacheKey("restart-canonical");
    {
        ResultCache cache(dir);
        cache.store(key, "restart-canonical", makeEntry(17));
        EXPECT_EQ(cache.snapshot().diskWrites, 1u);
        std::ifstream on_disk(cache.diskPath(key));
        EXPECT_TRUE(on_disk.good());
    }
    ResultCache reborn(dir);
    CellCacheEntry out;
    ASSERT_TRUE(reborn.lookup(key, "restart-canonical", out));
    expectEntryEqual(out, makeEntry(17));
    EXPECT_EQ(reborn.snapshot().diskHits, 1u);
}

TEST(ResultCache, StoreIsIdempotent)
{
    const std::string dir = tempPath("cache_idem");
    ResultCache cache(dir);
    cache.store("emc1-i", "canon", makeEntry(1));
    cache.store("emc1-i", "canon", makeEntry(1));
    const ResultCache::Snapshot snap = cache.snapshot();
    EXPECT_EQ(snap.entries, 1u);
    EXPECT_EQ(snap.diskWrites, 1u);
}

TEST(ResultCache, BudgetEvictsToDiskOnlyAndRehydrates)
{
    const std::string dir = tempPath("cache_budget");
    // Each entry costs >512 bytes by construction, so a 1.5 KiB
    // budget cannot hold four of them in memory.
    ResultCache cache(dir, 1'536);
    for (std::uint64_t i = 0; i < 4; ++i)
        cache.store("emc1-budget" + std::to_string(i),
                    "canon" + std::to_string(i), makeEntry(i));

    ResultCache::Snapshot snap = cache.snapshot();
    EXPECT_GT(snap.evictions, 0u);
    EXPECT_LT(snap.entries, 4u);
    EXPECT_LE(snap.bytes, 1'536u);

    // Every entry is still reachable: evicted ones come back from
    // the durable disk tier.
    for (std::uint64_t i = 0; i < 4; ++i) {
        CellCacheEntry out;
        ASSERT_TRUE(cache.lookup("emc1-budget" + std::to_string(i),
                                 "canon" + std::to_string(i), out))
            << i;
        expectEntryEqual(out, makeEntry(i));
    }
    EXPECT_GT(cache.snapshot().diskHits, 0u);
}

TEST(ResultCache, CorruptDiskEntryDegradesToMiss)
{
    const std::string dir = tempPath("cache_corrupt");
    std::string disk_file;
    {
        ResultCache cache(dir);
        cache.store("emc1-c", "canon", makeEntry(5));
        disk_file = cache.diskPath("emc1-c");
    }
    writeFile(disk_file, "{ not json");

    ResultCache cache(dir);
    CellCacheEntry out;
    EXPECT_FALSE(cache.lookup("emc1-c", "canon", out));
    EXPECT_EQ(cache.snapshot().rejected, 1u);

    // A lookup that rejected a file must not poison later stores.
    cache.store("emc1-c", "canon", makeEntry(5));
    EXPECT_TRUE(cache.lookup("emc1-c", "canon", out));
}

// ---------------------------------------------------------------
// runGrid + cache: the memoization contract.
// ---------------------------------------------------------------

PolicyGrid
smallGrid(const std::vector<std::string> &policies)
{
    PolicyGrid grid;
    grid.workloads.push_back(syntheticWorkload("w0", 7));
    grid.workloads.push_back(syntheticWorkload("w1", 8));
    for (const std::string &policy : policies)
        grid.runs.emplace_back(policy, smallWindow());
    return grid;
}

TEST(GridCache, WarmSequentialRunBitIdenticalToFresh)
{
    const PolicyGrid grid = smallGrid({"TPLRU", "LRU"});
    core::ThreadPool pool(2);

    GridOptions oracle_options;
    oracle_options.collectRegistries = true;
    const core::GridResults oracle =
        runGrid(grid, pool, oracle_options);

    ResultCache cache("");
    GridOptions cached_options;
    cached_options.cellCache = &cache;

    const core::GridResults cold =
        runGrid(grid, pool, cached_options);
    const core::GridResults warm =
        runGrid(grid, pool, cached_options);

    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        for (std::size_t r = 0; r < grid.runs.size(); ++r) {
            EXPECT_EQ(cold.executionAt(w, r),
                      CellExecution::Sequential);
            ASSERT_EQ(warm.executionAt(w, r),
                      CellExecution::Cached);
            expectMetricsIdentical(warm.at(w, r), oracle.at(w, r));
            expectRegistriesIdentical(warm.registryAt(w, r),
                                      oracle.registryAt(w, r));
        }
    }
    EXPECT_EQ(cache.snapshot().hits, grid.cellCount());
}

TEST(GridCache, FusedWarmRunServesEveryLane)
{
    PolicyGrid grid = smallGrid({"TPLRU", "LRU", "P(8):S&E"});
    grid.workloads.pop_back(); // one row is enough here
    core::ThreadPool pool(2);

    ResultCache cache("");
    GridOptions fused;
    fused.fused = true;
    fused.cellCache = &cache;

    const core::GridResults cold = runGrid(grid, pool, fused);
    EXPECT_EQ(cold.executionAt(0, 0), CellExecution::FusedTiming);
    EXPECT_EQ(cold.executionAt(0, 1), CellExecution::FusedMonitor);

    const core::GridResults warm = runGrid(grid, pool, fused);
    for (std::size_t r = 0; r < grid.runs.size(); ++r) {
        ASSERT_EQ(warm.executionAt(0, r), CellExecution::Cached);
        expectMetricsIdentical(warm.at(0, r), cold.at(0, r));
    }

    // The same from disk, through a fresh cache instance: the
    // monitor lanes' null clock keys must parse, not turn every
    // monitor entry into a rejected miss.
    const std::string dir = tempPath("cache_fused");
    std::filesystem::remove_all(dir);
    ResultCache writer(dir);
    fused.cellCache = &writer;
    runGrid(grid, pool, fused);
    ResultCache reader(dir);
    fused.cellCache = &reader;
    const core::GridResults reread = runGrid(grid, pool, fused);
    for (std::size_t r = 0; r < grid.runs.size(); ++r) {
        ASSERT_EQ(reread.executionAt(0, r), CellExecution::Cached);
        expectMetricsIdentical(reread.at(0, r), cold.at(0, r));
    }
    EXPECT_FALSE(reread.at(0, 1).timed());
    const ResultCache::Snapshot snap = reader.snapshot();
    EXPECT_EQ(snap.diskHits, grid.runs.size());
    EXPECT_EQ(snap.rejected, 0u);
}

TEST(GridCache, ExactRequestsNeverReuseMonitorEstimates)
{
    PolicyGrid grid = smallGrid({"TPLRU", "LRU", "P(8):S&E"});
    grid.workloads.pop_back();
    core::ThreadPool pool(2);

    ResultCache cache("");
    GridOptions fused;
    fused.fused = true;
    fused.cellCache = &cache;
    runGrid(grid, pool, fused);

    // A sequential (exact) sweep over the same grid may reuse the
    // fused timing lane — it is bit-identical by construction — but
    // must re-simulate every monitor-lane estimate.
    GridOptions sequential;
    sequential.cellCache = &cache;
    const core::GridResults exact =
        runGrid(grid, pool, sequential);
    EXPECT_EQ(exact.executionAt(0, 0), CellExecution::Cached);
    EXPECT_EQ(exact.executionAt(0, 1), CellExecution::Sequential);
    EXPECT_EQ(exact.executionAt(0, 2), CellExecution::Sequential);
}

TEST(GridCache, SampledMonitorsAreKeyedBySamplingFactor)
{
    PolicyGrid grid = smallGrid({"TPLRU", "LRU", "P(8):S&E"});
    grid.workloads.pop_back();
    core::ThreadPool pool(2);

    ResultCache cache("");
    GridOptions fused;
    fused.fused = true;
    fused.cellCache = &cache;
    runGrid(grid, pool, fused); // cold, full-fidelity monitors

    // A sampled sweep reuses the exact timing lane (its role
    // ignores sampling) but not the full-fidelity monitor results.
    GridOptions sampled = fused;
    sampled.sampledSets = 8;
    const core::GridResults first = runGrid(grid, pool, sampled);
    EXPECT_EQ(first.executionAt(0, 0), CellExecution::Cached);
    EXPECT_EQ(first.executionAt(0, 1),
              CellExecution::FusedMonitorSampled);
    EXPECT_EQ(first.executionAt(0, 2),
              CellExecution::FusedMonitorSampled);

    const core::GridResults second = runGrid(grid, pool, sampled);
    for (std::size_t r = 0; r < grid.runs.size(); ++r)
        EXPECT_EQ(second.executionAt(0, r), CellExecution::Cached);
}

TEST(GridCache, ConfigChangeInvalidatesEveryCell)
{
    PolicyGrid grid = smallGrid({"TPLRU", "LRU"});
    core::ThreadPool pool(2);

    ResultCache cache("");
    GridOptions options;
    options.cellCache = &cache;
    runGrid(grid, pool, options);

    for (RunSpec &run : grid.runs)
        run.options.seed += 1;
    const core::GridResults warm = runGrid(grid, pool, options);
    for (std::size_t w = 0; w < grid.workloads.size(); ++w)
        for (std::size_t r = 0; r < grid.runs.size(); ++r)
            EXPECT_NE(warm.executionAt(w, r),
                      CellExecution::Cached);
}

// ---------------------------------------------------------------
// SweepService: protocol behaviour without sockets.
// ---------------------------------------------------------------

SweepService::Options
tinyServiceOptions()
{
    SweepService::Options options;
    options.jobs = 2;
    return options;
}

const char *const kSweepRequest =
    R"({"schema": "emissary.request.v1", "id": "job-1",)"
    R"( "op": "sweep",)"
    R"( "catalog": {"schema": "emissary.catalog.v1", "workloads":)"
    R"( [{"name": "t", "synthetic": {"profile": "tomcat"}}]},)"
    R"( "policies": ["TPLRU", "LRU"],)"
    R"( "config": {"warmup_instructions": 2000,)"
    R"( "measure_instructions": 8000}})";

TEST(SweepServiceProtocol, MalformedRequestsNameTheField)
{
    const std::string head =
        R"({"schema": "emissary.request.v1", )";
    const std::string catalog =
        R"("catalog": {"schema": "emissary.catalog.v1",)"
        R"( "workloads": [{"name": "t",)"
        R"( "synthetic": {"profile": "tomcat"}}]}, )";
    const struct
    {
        std::string line;
        std::string field;
    } kCases[] = {
        {"{", "request"},
        {"[1, 2]", "request"},
        {"{}", "schema"},
        {R"({"schema": "emissary.request.v2"})", "schema"},
        {head + R"("bogus": 1})", "bogus"},
        {head + R"("op": "fly"})", "op"},
        {head + R"("op": "ping", "policies": ["TPLRU"]})",
         "policies"},
        {head + R"("op": "sweep"})", "policies"},
        {head + catalog + R"("policies": ["NOTAPOLICY("]})",
         "policies[0]"},
        {head + catalog + R"("policies": ["TPLRU", "P(8x):S&E"]})",
         "policies[1]"},
        {head + R"("policies": ["TPLRU"]})", "catalog"},
        {head + catalog +
             R"("catalog_path": "x.json", "policies": ["TPLRU"]})",
         "catalog"},
        {head +
             R"("catalog_path": "/no/such/manifest.json",)"
             R"( "policies": ["TPLRU"]})",
         "catalog_path"},
        {head + catalog +
             R"("policies": ["TPLRU"], "config": {"bogus": 1}})",
         "config.bogus"},
        {head + catalog +
             R"("policies": ["TPLRU"],)"
             R"( "config": {"measure_instructions": 0}})",
         "config.measure_instructions"},
        {head + catalog +
             R"("policies": ["TPLRU"], "sampled_sets": 3})",
         "sampled_sets"},
        // 32-bit knobs reject larger values instead of wrapping: 2^32
        // would run unsampled and 2^32 + 2 as two chunks.
        {head + catalog +
             R"("policies": ["TPLRU"], "fused": true,)"
             R"( "sampled_sets": 4294967296})",
         "sampled_sets"},
        {head + catalog +
             R"("policies": ["TPLRU"],)"
             R"( "config": {"time_chunks": 4294967298}})",
         "config.time_chunks"},
        // Set sampling shapes fused monitor lanes only; it is a
        // top-level key, never a per-cell config knob.
        {head + catalog +
             R"("policies": ["TPLRU"], "config": {"sampled_sets": 8}})",
         "config.sampled_sets"},
        {head + catalog +
             R"("policies": ["TPLRU"], "config": {"sampled_sets": 3}})",
         "config.sampled_sets"},
        {head + catalog +
             R"("policies": ["TPLRU"], "workloads": ["nope"]})",
         "workloads"},
    };

    SweepService svc(tinyServiceOptions());
    std::uint64_t bad = 0;
    for (const auto &test_case : kCases) {
        const JsonValue reply =
            JsonValue::parse(svc.handle(test_case.line));
        ASSERT_TRUE(reply.isObject()) << test_case.line;
        EXPECT_EQ(reply.find("schema")->asString(),
                  "emissary.error.v1")
            << test_case.line;
        EXPECT_EQ(reply.find("field")->asString(), test_case.field)
            << test_case.line;
        EXPECT_NE(reply.find("error"), nullptr);
        ++bad;
    }

    // The daemon shrugged every defect off and still serves.
    const JsonValue pong = JsonValue::parse(svc.handle(
        R"({"schema": "emissary.request.v1", "op": "ping"})"));
    EXPECT_TRUE(pong.find("ok")->asBool());
    EXPECT_EQ(svc.statsJson().find("bad_requests")->asUint(), bad);
}

TEST(SweepServiceProtocol, CraftedFixtureRequestsAreRejected)
{
    const auto fixture = [](const char *name) {
        std::ifstream in(std::string(EMISSARY_TEST_DATA_DIR) + "/" +
                         name);
        EXPECT_TRUE(in.good()) << name;
        std::ostringstream text;
        text << in.rdbuf();
        // The server strips the newline delimiter before handing a
        // request line over; mirror that here.
        std::string line = text.str();
        while (!line.empty() &&
               (line.back() == '\n' || line.back() == '\r'))
            line.pop_back();
        return line;
    };

    SweepService svc(tinyServiceOptions());
    const JsonValue truncated = JsonValue::parse(
        svc.handle(fixture("service_request_truncated.json")));
    EXPECT_EQ(truncated.find("schema")->asString(),
              "emissary.error.v1");
    EXPECT_EQ(truncated.find("field")->asString(), "request");

    const JsonValue bad_schema = JsonValue::parse(
        svc.handle(fixture("service_request_bad_schema.json")));
    EXPECT_EQ(bad_schema.find("schema")->asString(),
              "emissary.error.v1");
    EXPECT_EQ(bad_schema.find("field")->asString(), "schema");
}

TEST(SweepService, ColdThenWarmSweepIsBitIdentical)
{
    SweepService svc(tinyServiceOptions());

    const JsonValue cold = JsonValue::parse(svc.handle(kSweepRequest));
    ASSERT_EQ(cold.find("schema")->asString(),
              "emissary.response.v1");
    EXPECT_EQ(cold.find("id")->asString(), "job-1");
    EXPECT_EQ(cold.find("cache")->find("hits")->asUint(), 0u);
    EXPECT_EQ(cold.find("cache")->find("misses")->asUint(), 2u);

    const JsonValue warm = JsonValue::parse(svc.handle(kSweepRequest));
    EXPECT_EQ(warm.find("cache")->find("hits")->asUint(), 2u);
    EXPECT_EQ(warm.find("cache")->find("misses")->asUint(), 0u);

    const JsonValue *cold_runs = cold.find("sweep")->find("runs");
    const JsonValue *warm_runs = warm.find("sweep")->find("runs");
    ASSERT_EQ(cold_runs->size(), warm_runs->size());
    for (std::size_t i = 0; i < cold_runs->size(); ++i) {
        EXPECT_EQ(cold_runs->at(i).find("execution")->asString(),
                  "sequential");
        EXPECT_EQ(warm_runs->at(i).find("execution")->asString(),
                  "cached");
        // A cached cell built no source, so it names none.
        EXPECT_EQ(cold_runs->at(i).find("source")->asString(),
                  "replay");
        EXPECT_EQ(warm_runs->at(i).find("source"), nullptr);
        // The memoization contract on the wire: cached responses
        // reproduce metrics and the full counter registry
        // bit-identically.
        EXPECT_EQ(
            warm_runs->at(i).find("metrics")->dump(0),
            cold_runs->at(i).find("metrics")->dump(0));
        EXPECT_EQ(
            warm_runs->at(i).find("counters")->dump(0),
            cold_runs->at(i).find("counters")->dump(0));
        EXPECT_GT(cold_runs->at(i).find("counters")->size(), 0u);
    }

    const JsonValue stats = svc.statsJson();
    EXPECT_EQ(stats.find("schema")->asString(), "emissary.stats.v1");
    EXPECT_EQ(stats.find("jobs_completed")->asUint(), 2u);
    EXPECT_EQ(stats.find("cells_fresh")->asUint(), 2u);
    EXPECT_EQ(stats.find("cells_cached")->asUint(), 2u);
    EXPECT_EQ(stats.find("queue_depth")->asUint(), 0u);
    EXPECT_EQ(stats.find("latency")->find("count")->asUint(), 2u);
    EXPECT_EQ(stats.find("cache")->find("hits")->asUint(), 2u);
}

TEST(SweepService, WarmRerunServesSharedCellsByteIdentically)
{
    // P(N) columns differing only in N: the cold sweep shares some
    // of them (CellExecution::Shared) and stores each under its own
    // key, so the warm sweep serves every cell from the cache.
    const std::string request =
        R"({"schema": "emissary.request.v1", "id": "job-n",)"
        R"( "op": "sweep",)"
        R"( "catalog": {"schema": "emissary.catalog.v1", "workloads":)"
        R"( [{"name": "t", "synthetic": {"profile": "tomcat"}}]},)"
        R"json( "policies": ["TPLRU", "P(2):S&E&R(1/32)", "P(6):S&E",)json"
        R"json( "P(10):S&E&R(1/32)", "P(14):S&E",)json"
        R"json( "P(14):S&E&R(1/32)"],)json"
        R"( "config": {"warmup_instructions": 30000,)"
        R"( "measure_instructions": 100000}})";
    SweepService svc(tinyServiceOptions());
    const JsonValue cold = JsonValue::parse(svc.handle(request));
    ASSERT_EQ(cold.find("schema")->asString(), "emissary.response.v1");
    const JsonValue warm = JsonValue::parse(svc.handle(request));
    EXPECT_EQ(warm.find("cache")->find("hits")->asUint(), 6u);

    const JsonValue *cold_runs = cold.find("sweep")->find("runs");
    const JsonValue *warm_runs = warm.find("sweep")->find("runs");
    ASSERT_EQ(cold_runs->size(), warm_runs->size());
    std::size_t shared = 0;
    for (std::size_t i = 0; i < cold_runs->size(); ++i) {
        const JsonValue &run = cold_runs->at(i);
        if (run.find("execution")->asString() == "shared") {
            ++shared;
            EXPECT_NE(run.find("shared_with"), nullptr);
        }
        EXPECT_EQ(warm_runs->at(i).find("execution")->asString(),
                  "cached");
        EXPECT_EQ(warm_runs->at(i).find("metrics")->dump(0),
                  run.find("metrics")->dump(0));
        EXPECT_EQ(warm_runs->at(i).find("counters")->dump(0),
                  run.find("counters")->dump(0));
    }
    EXPECT_GT(shared, 0u);
}

TEST(SweepService, SweepStatesTheMonitorSamplingFactorOnce)
{
    // The factor the monitors ran with sits next to "mode", once;
    // no cell's config carries it.
    const std::string head =
        R"({"schema": "emissary.request.v1", "op": "sweep",)"
        R"( "catalog": {"schema": "emissary.catalog.v1", "workloads":)"
        R"( [{"name": "k", "synthetic": {"profile": "kafka"}}]},)"
        R"( "config": {"warmup_instructions": 20000,)"
        R"( "measure_instructions": 60000)";
    // Each input closes the config the head leaves open.
    const std::string two = R"json(}, "policies": ["TPLRU", "P(8):S&E"])json";
    const std::string one = R"json(}, "policies": ["TPLRU"])json";
    const std::string chunked =
        R"(, "time_chunks": 2, "chunk_warmup_records": 10000)";
    SweepService svc(tinyServiceOptions());
    const struct
    {
        std::string extra;
        const char *mode;
        std::uint64_t factor;
        std::size_t runs;
        const char *last;
    } kCases[] = {
        {two + "}", "sequential", 0, 2, "sequential"},
        {two + R"(, "sampled_sets": 8})", "sequential", 0, 2, "cached"},
        {two + R"(, "fused": true, "sampled_sets": 8})", "fused", 8, 2,
         "fused_monitor_sampled"},
        {two + R"(, "fused": true})", "fused", 0, 2, "fused_monitor"},
        // The plan states the mode and factor, also when every cell is
        // served from the cache ...
        {two + R"(, "fused": true, "sampled_sets": 8})", "fused", 8, 2,
         "cached"},
        // ... states no factor when no cell is a monitor lane ...
        {one + R"(, "fused": true, "sampled_sets": 8})", "fused", 0, 1,
         "cached"},
        // ... and says "fused" for a fused grid whose one column runs
        // time-parallel.
        {chunked + one + R"(, "fused": true})", "fused", 0, 1,
         "time_parallel"},
    };
    for (const auto &test_case : kCases) {
        SCOPED_TRACE(test_case.extra);
        const JsonValue reply =
            JsonValue::parse(svc.handle(head + test_case.extra));
        ASSERT_EQ(reply.find("schema")->asString(),
                  "emissary.response.v1");
        const JsonValue *sweep = reply.find("sweep");
        EXPECT_EQ(sweep->find("mode")->asString(), test_case.mode);
        EXPECT_EQ(sweep->find("sampled_sets")->asUint(),
                  test_case.factor);
        const JsonValue *runs = sweep->find("runs");
        ASSERT_EQ(runs->size(), test_case.runs);
        EXPECT_EQ(runs->at(runs->size() - 1).find("execution")->asString(),
                  test_case.last);
        for (std::size_t i = 0; i < runs->size(); ++i)
            EXPECT_EQ(runs->at(i).find("config")->find("sampled_sets"),
                      nullptr);
    }
    // A sequential request is exact whatever sampling it names, so
    // the second request is served entirely from the first's cells;
    // each new fused request reuses the exact timing lane and
    // simulates only its monitor, the two after them simulate
    // nothing, and the chunked column is a cell of its own.
    EXPECT_EQ(svc.statsJson().find("cells_fresh")->asUint(), 5u);
}

TEST(SweepService, ControlOpsAckAndShutdownRaisesTheFlag)
{
    SweepService svc(tinyServiceOptions());
    bool shutdown = false;

    const JsonValue pong = JsonValue::parse(svc.handle(
        R"({"schema": "emissary.request.v1", "op": "ping",)"
        R"( "id": "p7"})",
        &shutdown));
    EXPECT_TRUE(pong.find("ok")->asBool());
    EXPECT_EQ(pong.find("op")->asString(), "ping");
    EXPECT_EQ(pong.find("id")->asString(), "p7");
    EXPECT_FALSE(shutdown);

    const JsonValue bye = JsonValue::parse(svc.handle(
        R"({"schema": "emissary.request.v1", "op": "shutdown"})",
        &shutdown));
    EXPECT_TRUE(bye.find("ok")->asBool());
    EXPECT_TRUE(shutdown);
}

TEST(SweepService, FailingSweepIsAnErrorNotACrash)
{
    SweepService svc(tinyServiceOptions());
    const JsonValue reply = JsonValue::parse(svc.handle(
        R"({"schema": "emissary.request.v1", "id": "bad-trace",)"
        R"( "op": "sweep",)"
        R"( "catalog": {"schema": "emissary.catalog.v1",)"
        R"( "workloads": [{"name": "t", "trace":)"
        R"( {"path": "/no/such/trace.emtc"}}]},)"
        R"( "policies": ["TPLRU"]})"));
    EXPECT_EQ(reply.find("schema")->asString(), "emissary.error.v1");
    EXPECT_EQ(reply.find("field")->asString(), "sweep");
    EXPECT_EQ(reply.find("id")->asString(), "bad-trace");
    EXPECT_EQ(svc.statsJson().find("jobs_failed")->asUint(), 1u);

    // Still alive.
    const JsonValue pong = JsonValue::parse(svc.handle(
        R"({"schema": "emissary.request.v1", "op": "ping"})"));
    EXPECT_TRUE(pong.find("ok")->asBool());
}

TEST(SweepService, TraceThatIsNotAContainerIsAnErrorNotACrash)
{
    // Every trace path opens as an EMTC container, so a file in any
    // other format (an old raw trace, say) fails its sweep with the
    // reader's error, which names the path.
    const std::string path = tempPath("old_trace", ".raw");
    writeFile(path, std::string("EMTR") + std::string(60, '\0'));
    SweepService svc(tinyServiceOptions());
    const JsonValue reply = JsonValue::parse(svc.handle(
        R"({"schema": "emissary.request.v1", "id": "old-trace",)"
        R"( "op": "sweep",)"
        R"( "catalog": {"schema": "emissary.catalog.v1",)"
        R"( "workloads": [{"name": "t", "trace": {"path": ")" +
        path + R"("}}]}, "policies": ["TPLRU"]})"));
    EXPECT_EQ(reply.find("schema")->asString(), "emissary.error.v1");
    EXPECT_EQ(reply.find("field")->asString(), "sweep");
    EXPECT_EQ(reply.find("id")->asString(), "old-trace");
    const std::string error = reply.find("error")->asString();
    EXPECT_NE(error.find(path), std::string::npos) << error;
    EXPECT_NE(error.find("not an EMTC container"), std::string::npos)
        << error;

    // Still alive.
    const JsonValue pong = JsonValue::parse(svc.handle(
        R"({"schema": "emissary.request.v1", "op": "ping"})"));
    EXPECT_TRUE(pong.find("ok")->asBool());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// TCP front end.
// ---------------------------------------------------------------

int
connectTo(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

void
sendAll(int fd, const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        ASSERT_GT(n, 0);
        sent += static_cast<std::size_t>(n);
    }
}

std::string
recvLine(int fd)
{
    std::string line;
    char byte = 0;
    while (::recv(fd, &byte, 1, 0) == 1) {
        if (byte == '\n')
            return line;
        line.push_back(byte);
    }
    return line; // peer hung up
}

TEST(ServiceServer, ServesRejectsOversizeAndShutsDownCleanly)
{
    SweepService svc(tinyServiceOptions());
    service::Server::Options options;
    options.port = 0;
    options.maxRequestBytes = 256;
    service::Server server(svc, options);
    ASSERT_GT(server.port(), 0);

    std::thread serving([&server] { server.run(); });

    {
        const int fd = connectTo(server.port());
        sendAll(fd,
                "{\"schema\": \"emissary.request.v1\","
                " \"op\": \"ping\", \"id\": \"tcp\"}\n");
        const JsonValue pong = JsonValue::parse(recvLine(fd));
        EXPECT_TRUE(pong.find("ok")->asBool());
        EXPECT_EQ(pong.find("id")->asString(), "tcp");

        // A malformed line on the same connection: structured
        // error, connection stays up.
        sendAll(fd, "definitely not json\n");
        const JsonValue error = JsonValue::parse(recvLine(fd));
        EXPECT_EQ(error.find("schema")->asString(),
                  "emissary.error.v1");

        sendAll(fd,
                "{\"schema\": \"emissary.request.v1\","
                " \"op\": \"ping\"}\n");
        EXPECT_TRUE(JsonValue::parse(recvLine(fd))
                        .find("ok")
                        ->asBool());
        ::close(fd);
    }

    {
        // An unterminated request past maxRequestBytes gets a
        // structured error and a hang-up, not unbounded buffering.
        const int fd = connectTo(server.port());
        sendAll(fd, std::string(300, 'x'));
        const JsonValue error = JsonValue::parse(recvLine(fd));
        EXPECT_EQ(error.find("schema")->asString(),
                  "emissary.error.v1");
        EXPECT_NE(std::string(error.find("error")->asString())
                      .find("exceeds"),
                  std::string::npos);
        EXPECT_EQ(recvLine(fd), ""); // closed
        ::close(fd);
    }

    {
        const int fd = connectTo(server.port());
        sendAll(fd, "{\"schema\": \"emissary.request.v1\","
                    " \"op\": \"shutdown\"}\n");
        const JsonValue bye = JsonValue::parse(recvLine(fd));
        EXPECT_TRUE(bye.find("ok")->asBool());
        ::close(fd);
    }
    serving.join();
    EXPECT_TRUE(server.stopping());
}

} // namespace
} // namespace emissary
