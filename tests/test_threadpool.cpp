/**
 * @file
 * Tests for the parallel experiment engine: ThreadPool semantics
 * (submit/wait, exception propagation, drain on destruction,
 * first-in first-out start order, submitAhead), the strict envU64 parser that
 * sizes it, and the engine's headline guarantee — runGrid with 1, 2
 * and 4 workers produces identical Metrics for the same grid.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/threadpool.hh"

namespace emissary::core
{
namespace
{

TEST(ThreadPool, SubmitRunsEveryJobAndFuturesComplete)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);

    std::atomic<int> ran{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([&ran, i]() {
            ran.fetch_add(1);
            return i * i;
        }));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(futures[i].get(), i * i);
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures)
{
    // The job's exception object is reference-counted inside the C++
    // runtime, which TSan does not see. Holding a reference here until
    // the pool has joined its workers makes this thread drop the last
    // one, after the join, so the object is never freed on a worker
    // while this thread may still read it.
    std::exception_ptr thrown;
    {
        ThreadPool pool(2);
        auto ok = pool.submit([]() { return 7; });
        auto bad = pool.submit([]() -> int {
            throw std::runtime_error("job failed");
        });
        EXPECT_EQ(ok.get(), 7);
        EXPECT_THROW(
            {
                try {
                    bad.get();
                } catch (const std::runtime_error &e) {
                    EXPECT_STREQ(e.what(), "job failed");
                    thrown = std::current_exception();
                    throw;
                }
            },
            std::runtime_error);
    }
    EXPECT_TRUE(thrown);
}

TEST(ThreadPool, DestructorDrainsQueuedJobs)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i)
            pool.submit([&ran]() {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ran.fetch_add(1);
            });
        // Destruction must wait for all 32 jobs, not abandon them.
    }
    EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, JobsStartInSubmissionOrder)
{
    // Hold the only worker so that every later job is queued before
    // any of them can start; the worker must then take them oldest
    // first (the grid engine relies on it to start P(N) leaders and
    // buffer builds before the cells that wait on them).
    ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::future<void> held = pool.submit([open]() { open.wait(); });

    std::mutex mutex;
    std::vector<int> order;
    std::vector<std::future<void>> jobs;
    for (int i = 0; i < 16; ++i)
        jobs.push_back(pool.submit([&mutex, &order, i]() {
            std::lock_guard<std::mutex> lock(mutex);
            order.push_back(i);
        }));
    gate.set_value();
    held.get();
    for (std::future<void> &job : jobs)
        job.get();

    std::vector<int> expected(16);
    for (int i = 0; i < 16; ++i)
        expected[i] = i;
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, AheadJobsJumpEveryQueuedSubmitInTheirOwnOrder)
{
    // submitAhead queues behind the ahead jobs still queued and in
    // front of every submit() job (the grid replays a finished pass's
    // monitor lanes before it starts another pass), also when a
    // running job queues it.
    ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::future<void> held = pool.submit([open]() { open.wait(); });

    std::mutex mutex;
    std::vector<std::string> order;
    const auto note = [&mutex, &order](std::string name) {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(std::move(name));
    };
    std::future<void> queued_inside;
    std::vector<std::future<void>> jobs;
    jobs.push_back(pool.submit([&note]() { note("s0"); }));
    jobs.push_back(pool.submitAhead([&note]() { note("a0"); }));
    jobs.push_back(pool.submit([&note]() { note("s1"); }));
    jobs.push_back(pool.submitAhead([&]() {
        note("a1");
        queued_inside = pool.submitAhead([&note]() { note("a3"); });
    }));
    jobs.push_back(pool.submitAhead([&note]() { note("a2"); }));
    gate.set_value();
    held.get();
    for (std::future<void> &job : jobs)
        job.get();
    queued_inside.get();

    const std::vector<std::string> expected{"a0", "a1", "a2", "a3",
                                            "s0", "s1"};
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, DefaultWorkerCountHonoursEmissaryJobs)
{
    ::setenv("EMISSARY_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultWorkerCount(), 3u);
    ::setenv("EMISSARY_JOBS", "not-a-number", 1);
    EXPECT_THROW(ThreadPool::defaultWorkerCount(),
                 std::invalid_argument);
    ::unsetenv("EMISSARY_JOBS");
    EXPECT_GE(ThreadPool::defaultWorkerCount(), 1u);
}

TEST(EnvU64, StrictParsing)
{
    ::setenv("EMISSARY_TEST_ENV", "12345", 1);
    EXPECT_EQ(envU64("EMISSARY_TEST_ENV", 7), 12345u);
    ::setenv("EMISSARY_TEST_ENV", " 42 ", 1);
    EXPECT_EQ(envU64("EMISSARY_TEST_ENV", 7), 42u);
    ::unsetenv("EMISSARY_TEST_ENV");
    EXPECT_EQ(envU64("EMISSARY_TEST_ENV", 7), 7u);

    const std::vector<const char *> garbage = {
        "abc", "12abc", "-5", "+5", "1.5", "0x10",
        "99999999999999999999999999"};
    for (const char *value : garbage) {
        ::setenv("EMISSARY_TEST_ENV", value, 1);
        EXPECT_THROW(envU64("EMISSARY_TEST_ENV", 7),
                     std::invalid_argument)
            << "value '" << value << "' must be rejected";
        try {
            envU64("EMISSARY_TEST_ENV", 7);
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "EMISSARY_TEST_ENV"),
                      std::string::npos)
                << "the error must name the variable";
        }
    }
    ::unsetenv("EMISSARY_TEST_ENV");
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

TEST(RunGrid, ParallelResultsAreBitIdenticalToSerial)
{
    RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 60'000;

    const std::vector<trace::WorkloadProfile> workloads = {
        trace::profileByName("tomcat"),
        trace::profileByName("kafka")};
    const std::vector<std::string> policies = {
        "TPLRU", "P(2):S&E", "M:R(1/2)"};
    const PolicyGrid grid =
        PolicyGrid::sweep(workloads, policies, options);

    // The rows replay buffers that pack while their cells run: on
    // more than one worker the cells read each buffer as it fills.
    ThreadPool serial(1);
    const GridResults one = runGrid(grid, serial);
    ASSERT_EQ(one.workloadCount(), grid.workloads.size());
    ASSERT_EQ(one.runCount(), grid.runs.size());
    for (const unsigned workers : {2u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        ThreadPool parallel(workers);
        const GridResults many = runGrid(grid, parallel);
        for (std::size_t w = 0; w < one.workloadCount(); ++w)
            for (std::size_t r = 0; r < one.runCount(); ++r)
                expectMetricsIdentical(one.at(w, r), many.at(w, r));
    }
}

TEST(RunGrid, MatchesDirectRunPolicyAndOrdersResults)
{
    RunOptions options;
    options.warmupInstructions = 20'000;
    options.measureInstructions = 60'000;

    const trace::SyntheticProgram program(
        trace::profileByName("tomcat"));
    const Metrics direct = runPolicy(program, "P(2):S&E", options);

    const PolicyGrid grid = PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat")},
        {"TPLRU", "P(2):S&E"}, options);
    ThreadPool pool(2);
    const GridResults results = runGrid(grid, pool);

    // Slot (0, 1) is P(2):S&E regardless of completion order, and
    // identical to a standalone serial runPolicy call.
    EXPECT_EQ(results.at(0, 0).policy, "TPLRU");
    expectMetricsIdentical(results.at(0, 1), direct);

    // Timing is recorded for every cell.
    EXPECT_EQ(results.timing().runCount(), 2u);
    EXPECT_GT(results.timing().totalSeconds, 0.0);
    EXPECT_GT(results.timing().serialSeconds(), 0.0);
}

TEST(RunGrid, BadPolicyNotationThrowsBeforeAnyRun)
{
    RunOptions options;
    options.warmupInstructions = 1'000;
    options.measureInstructions = 2'000;
    const PolicyGrid grid = PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat")},
        {"TPLRU", "NOT-A-POLICY"}, options);
    ThreadPool pool(2);
    EXPECT_THROW(runGrid(grid, pool), std::invalid_argument);
}

TEST(RunGrid, CellFailuresPropagateAfterStragglersFinish)
{
    // An empty measurement window fails inside the worker, not at
    // parse time; runGrid must rethrow it at the call site.
    RunOptions options;
    options.warmupInstructions = 1'000;
    options.measureInstructions = 0;
    const PolicyGrid grid = PolicyGrid::sweep(
        std::vector<trace::WorkloadProfile>{
            trace::profileByName("tomcat")},
        {"TPLRU"}, options);
    ThreadPool pool(2);
    EXPECT_THROW(runGrid(grid, pool), std::invalid_argument);
}

} // namespace
} // namespace emissary::core
