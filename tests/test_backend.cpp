/**
 * @file
 * Tests for the back-end model: dispatch width, window capacity,
 * stall classification, the issue-queue-empty signal, starvation
 * accounting, and load-latency propagation. The last group drives
 * the edge paths of the completion calendar: completions beyond its
 * span, several completions and a resolution in one cycle, and
 * executeStage calls that skip cycles.
 */

#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "backend/backend.hh"

namespace emissary::backend
{
namespace
{

cache::Hierarchy::Config
hierConfig()
{
    cache::Hierarchy::Config config;
    config.l1i = {"l1i", 32 * 1024, 8, 64, 2,
                  replacement::PolicySpec::parse("TPLRU"), 1};
    config.l1d = {"l1d", 32 * 1024, 8, 64, 2,
                  replacement::PolicySpec::parse("TPLRU"), 2};
    config.l2 = {"l2", 256 * 1024, 16, 64, 12,
                 replacement::PolicySpec::parse("TPLRU"), 3};
    config.l3 = {"l3", 512 * 1024, 16, 64, 32,
                 replacement::PolicySpec::parse("DRRIP"), 4};
    config.nextLinePrefetch = false;
    return config;
}

core::DynInst
alu(std::uint64_t seq)
{
    core::DynInst inst;
    inst.seq = seq;
    inst.rec.pc = 0x1000 + 4 * seq;
    inst.rec.cls = trace::InstClass::IntAlu;
    return inst;
}

core::DynInst
load(std::uint64_t seq, std::uint64_t addr)
{
    core::DynInst inst = alu(seq);
    inst.rec.cls = trace::InstClass::Load;
    inst.rec.memAddr = addr;
    return inst;
}

struct Rig
{
    Rig() : hierarchy(hierConfig()), backend(config(), hierarchy) {}

    static Backend::Config
    config()
    {
        Backend::Config c;
        c.depFraction = 0.0;  // Deterministic for unit tests.
        c.loadChainFraction = 0.0;
        return c;
    }

    void
    cycle(std::uint64_t now,
          std::optional<std::uint64_t> pending = std::nullopt)
    {
        hierarchy.tick(now);
        backend.executeStage(now);
        backend.commitStage(now);
        backend.issueStage(now, queue, pending);
    }

    cache::Hierarchy hierarchy;
    Backend backend;
    std::deque<core::DynInst> queue;
};

TEST(Backend, DispatchBoundedByWidth)
{
    Rig rig;
    for (std::uint64_t s = 1; s <= 20; ++s)
        rig.queue.push_back(alu(s));
    rig.cycle(0);
    EXPECT_EQ(rig.backend.stats().issued, 8u);
    EXPECT_EQ(rig.queue.size(), 12u);
}

TEST(Backend, AluInstructionsCommitQuickly)
{
    Rig rig;
    for (std::uint64_t s = 1; s <= 8; ++s)
        rig.queue.push_back(alu(s));
    for (std::uint64_t now = 0; now < 5; ++now)
        rig.cycle(now);
    EXPECT_EQ(rig.backend.stats().committed, 8u);
    EXPECT_TRUE(rig.backend.robEmpty());
}

TEST(Backend, LoadLatencyGatesCommit)
{
    Rig rig;
    rig.queue.push_back(load(1, 0x100000));  // Cold miss: ~246 cycles.
    rig.queue.push_back(alu(2));
    for (std::uint64_t now = 0; now < 100; ++now)
        rig.cycle(now);
    // In-order commit: nothing retires while the load is in flight.
    EXPECT_EQ(rig.backend.stats().committed, 0u);
    EXPECT_GT(rig.backend.stats().beStallCycles, 50u);
    for (std::uint64_t now = 100; now < 400; ++now)
        rig.cycle(now);
    EXPECT_EQ(rig.backend.stats().committed, 2u);
}

TEST(Backend, StallClassification)
{
    Rig rig;
    // Empty machine: FE stalls.
    for (std::uint64_t now = 0; now < 10; ++now)
        rig.cycle(now);
    EXPECT_EQ(rig.backend.stats().feStallCycles, 10u);
    EXPECT_EQ(rig.backend.stats().beStallCycles, 0u);
}

TEST(Backend, IssueQueueEmptySignal)
{
    Rig rig;
    EXPECT_TRUE(rig.backend.issueQueueEmpty());
    rig.queue.push_back(load(1, 0x100000));
    rig.cycle(0);
    EXPECT_FALSE(rig.backend.issueQueueEmpty());
    for (std::uint64_t now = 1; now < 400; ++now)
        rig.cycle(now);
    EXPECT_TRUE(rig.backend.issueQueueEmpty());
}

TEST(Backend, StarvationAccountingWithPendingLine)
{
    Rig rig;
    // Empty queue + a named pending line: starvation accrues and is
    // reported to the hierarchy's MSHR (if one exists).
    rig.hierarchy.requestInstruction(0x40, 0,
                                     cache::RequestKind::Demand);
    for (std::uint64_t now = 0; now < 20; ++now)
        rig.cycle(now, 0x40);
    EXPECT_EQ(rig.backend.stats().starvationCycles, 20u);
    EXPECT_EQ(rig.backend.stats().starvationIqEmptyCycles, 20u);
}

TEST(Backend, StarvationNotCountedWithoutPendingLine)
{
    Rig rig;
    for (std::uint64_t now = 0; now < 20; ++now)
        rig.cycle(now, std::nullopt);
    EXPECT_EQ(rig.backend.stats().starvationCycles, 0u);
    EXPECT_EQ(rig.backend.stats().resteerEmptyCycles, 20u);
}

TEST(Backend, StarvationRequiresBackendAcceptance)
{
    // Fill the ROB with long-latency loads so dispatch stalls; decode
    // cannot starve while it is blocked (§3: "a stalled decode
    // cannot starve").
    Rig rig;
    Backend::Config small = Rig::config();
    small.robEntries = 8;
    Backend backend(small, rig.hierarchy);
    std::deque<core::DynInst> queue;
    for (std::uint64_t s = 1; s <= 8; ++s)
        queue.push_back(load(s, 0x100000 + 64 * 100 * s));
    backend.issueStage(0, queue, std::nullopt);
    ASSERT_FALSE(backend.canAccept());
    backend.issueStage(1, queue, std::optional<std::uint64_t>(0x40));
    EXPECT_EQ(backend.stats().starvationCycles, 0u);
}

TEST(Backend, MispredictResolutionCallback)
{
    Rig rig;
    std::uint64_t resolved_seq = 0;
    std::uint64_t resolved_cycle = 0;
    rig.backend.setResolveCallback(
        [&](std::uint64_t seq, std::uint64_t cycle) {
            resolved_seq = seq;
            resolved_cycle = cycle;
        });
    core::DynInst branch = alu(1);
    branch.rec.cls = trace::InstClass::CondBranch;
    branch.mispredicted = true;
    rig.queue.push_back(branch);
    for (std::uint64_t now = 0; now < 10; ++now)
        rig.cycle(now);
    EXPECT_EQ(resolved_seq, 1u);
    EXPECT_GT(resolved_cycle, 0u);
}

TEST(Backend, StoreQueueDrainsAtCommit)
{
    Rig rig;
    core::DynInst st = alu(1);
    st.rec.cls = trace::InstClass::Store;
    st.rec.memAddr = 0x2000;
    rig.queue.push_back(st);
    for (std::uint64_t now = 0; now < 10; ++now)
        rig.cycle(now);
    EXPECT_EQ(rig.backend.stats().committed, 1u);
    EXPECT_EQ(rig.backend.stats().stores, 1u);
}

TEST(Backend, DependenceChainsSlowConsumers)
{
    // With depFraction = 1 every instruction waits on a predecessor,
    // so a long-latency load delays the chain behind it.
    Backend::Config chained = Rig::config();
    chained.depFraction = 1.0;
    chained.depWindow = 1;
    cache::Hierarchy hierarchy(hierConfig());
    Backend backend(chained, hierarchy);
    std::deque<core::DynInst> queue;
    queue.push_back(load(1, 0x100000));
    for (std::uint64_t s = 2; s <= 6; ++s)
        queue.push_back(alu(s));
    std::uint64_t now = 0;
    for (; now < 1000 && backend.stats().committed < 6; ++now) {
        hierarchy.tick(now);
        backend.executeStage(now);
        backend.commitStage(now);
        backend.issueStage(now, queue, std::nullopt);
    }
    // The chain completes well after the bare load latency (~246).
    EXPECT_GT(now, 246u);
    EXPECT_EQ(backend.stats().committed, 6u);
}

/** Cold-miss load latency in hierConfig(): L1 + L2 + L3 + DRAM. */
constexpr std::uint64_t kDramLoad = 2 + 12 + 32 + 200;

TEST(BackendCalendar, CompletionsBeyondSpanStayExact)
{
    // Every load chases the previous one through a DRAM miss, so load
    // k completes at k * kDramLoad: most of the chain lands far
    // beyond the calendar's span when it dispatches at cycle 0.
    Rig rig;
    Backend::Config chained = Rig::config();
    chained.loadChainFraction = 1.0;
    Backend backend(chained, rig.hierarchy);
    constexpr std::uint64_t kLoads = 12;
    for (std::uint64_t s = 1; s <= kLoads; ++s)
        rig.queue.push_back(load(s, 0x100000 + 0x10000 * s));

    std::vector<std::pair<std::uint64_t, std::uint64_t>> commits;
    const std::uint64_t end = kLoads * kDramLoad + 10;
    for (std::uint64_t now = 0; now <= end; ++now) {
        rig.hierarchy.tick(now);
        backend.executeStage(now);
        const std::uint64_t before = backend.stats().committed;
        backend.commitStage(now);
        if (backend.stats().committed != before)
            commits.emplace_back(now, backend.stats().committed);
        backend.issueStage(now, rig.queue, std::nullopt);
        // In flight until the last load's completion is drained.
        EXPECT_EQ(backend.issueQueueEmpty(),
                  now >= kLoads * kDramLoad)
            << "cycle " << now;
    }
    ASSERT_EQ(commits.size(), kLoads);
    for (std::uint64_t k = 1; k <= kLoads; ++k) {
        EXPECT_EQ(commits[k - 1].first, k * kDramLoad);
        EXPECT_EQ(commits[k - 1].second, k);
    }
    EXPECT_EQ(backend.stats().issueActiveCycles, kLoads);
    EXPECT_EQ(backend.stats().loads, kLoads);
}

TEST(BackendCalendar, ResolutionIsNotHeldBehindFarCompletions)
{
    // A mispredicted branch dispatched after a far-off chain of loads
    // still resolves at its own completion cycle.
    Backend::Config chained = Rig::config();
    chained.loadChainFraction = 1.0;
    cache::Hierarchy hierarchy(hierConfig());
    Backend backend(chained, hierarchy);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> resolved;
    backend.setResolveCallback(
        [&](std::uint64_t seq, std::uint64_t cycle) {
            resolved.emplace_back(seq, cycle);
        });
    std::deque<core::DynInst> queue;
    for (std::uint64_t s = 1; s <= 6; ++s)
        queue.push_back(load(s, 0x100000 + 0x10000 * s));
    core::DynInst branch = alu(7);
    branch.rec.cls = trace::InstClass::CondBranch;
    branch.mispredicted = true;
    queue.push_back(branch);
    backend.issueStage(0, queue, std::nullopt);
    ASSERT_EQ(backend.stats().issued, 7u);

    for (std::uint64_t now = 0; now <= 6 * kDramLoad; ++now) {
        backend.executeStage(now);
        EXPECT_EQ(resolved.size(), now < 2 ? 0u : 1u) << "cycle " << now;
    }
    ASSERT_EQ(resolved.size(), 1u);
    EXPECT_EQ(resolved[0], std::make_pair(std::uint64_t{7},
                                          std::uint64_t{2}));
    EXPECT_TRUE(backend.issueQueueEmpty());
}

TEST(BackendCalendar, LoadQueueFreesOnFarCompletions)
{
    // A 4-entry load queue over the same chase: each dispatch waits
    // for the oldest load's completion, whichever path booked it.
    Rig rig;
    Backend::Config chained = Rig::config();
    chained.loadChainFraction = 1.0;
    chained.lqEntries = 4;
    Backend backend(chained, rig.hierarchy);
    constexpr std::uint64_t kLoads = 10;
    for (std::uint64_t s = 1; s <= kLoads; ++s)
        rig.queue.push_back(load(s, 0x100000 + 0x10000 * s));
    std::uint64_t now = 0;
    for (; now < 100'000 && backend.stats().committed < kLoads; ++now) {
        rig.hierarchy.tick(now);
        backend.executeStage(now);
        backend.commitStage(now);
        backend.issueStage(now, rig.queue, std::nullopt);
    }
    EXPECT_EQ(backend.stats().committed, kLoads);
    // The chain serialises regardless of the queue size.
    EXPECT_EQ(now - 1, kLoads * kDramLoad);
    EXPECT_TRUE(backend.issueQueueEmpty());
    EXPECT_TRUE(backend.canAccept());
}

TEST(BackendCalendar, CompletionsAndResolutionInOneCycle)
{
    Backend::Config config = Rig::config();
    config.branchLatency = config.intLatency;
    cache::Hierarchy hierarchy(hierConfig());
    Backend backend(config, hierarchy);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> resolved;
    backend.setResolveCallback(
        [&](std::uint64_t seq, std::uint64_t cycle) {
            resolved.emplace_back(seq, cycle);
        });

    std::deque<core::DynInst> queue;
    for (std::uint64_t s = 1; s <= 7; ++s)
        queue.push_back(alu(s));
    core::DynInst branch = alu(8);
    branch.rec.cls = trace::InstClass::CondBranch;
    branch.mispredicted = true;
    queue.push_back(branch);
    backend.issueStage(0, queue, std::nullopt);
    ASSERT_EQ(backend.stats().issued, 8u);

    backend.executeStage(0);
    EXPECT_FALSE(backend.issueQueueEmpty());
    EXPECT_TRUE(resolved.empty());

    // All eight complete in cycle 1: one active cycle, one resolution
    // carrying the branch's completion cycle.
    backend.executeStage(1);
    EXPECT_TRUE(backend.issueQueueEmpty());
    EXPECT_EQ(backend.stats().issueActiveCycles, 1u);
    EXPECT_EQ(backend.stats().branchesResolved, 1u);
    ASSERT_EQ(resolved.size(), 1u);
    EXPECT_EQ(resolved[0], std::make_pair(std::uint64_t{8},
                                          std::uint64_t{1}));
}

TEST(BackendCalendar, GapInNowDrainsEverySkippedCycle)
{
    Backend::Config config = Rig::config();
    config.mulLatency = 3;
    config.fpLatency = 5;
    cache::Hierarchy hierarchy(hierConfig());
    Backend backend(config, hierarchy);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> resolved;
    backend.setResolveCallback(
        [&](std::uint64_t seq, std::uint64_t cycle) {
            resolved.emplace_back(seq, cycle);
        });

    // Completions at cycles 1, 2 (the mispredict), 3, 5 and at the
    // load's DRAM return.
    std::deque<core::DynInst> queue;
    queue.push_back(alu(1));
    core::DynInst branch = alu(2);
    branch.rec.cls = trace::InstClass::CondBranch;
    branch.mispredicted = true;
    queue.push_back(branch);
    core::DynInst mul = alu(3);
    mul.rec.cls = trace::InstClass::IntMul;
    queue.push_back(mul);
    core::DynInst fp = alu(4);
    fp.rec.cls = trace::InstClass::FpAlu;
    queue.push_back(fp);
    queue.push_back(load(5, 0x100000));
    backend.issueStage(0, queue, std::nullopt);

    // One call covering cycles 0..9 drains the four short ones and
    // counts one active cycle; the resolution keeps its own cycle.
    backend.executeStage(9);
    EXPECT_EQ(backend.stats().issueActiveCycles, 1u);
    ASSERT_EQ(resolved.size(), 1u);
    EXPECT_EQ(resolved[0], std::make_pair(std::uint64_t{2},
                                          std::uint64_t{2}));
    EXPECT_FALSE(backend.issueQueueEmpty());

    // A gap longer than the calendar span still finds the load.
    backend.executeStage(5000);
    EXPECT_TRUE(backend.issueQueueEmpty());
    EXPECT_EQ(backend.stats().issueActiveCycles, 2u);

    // Dispatch after the gap books against the new cycle.
    queue.push_back(alu(6));
    backend.issueStage(5000, queue, std::nullopt);
    backend.executeStage(5000);
    EXPECT_FALSE(backend.issueQueueEmpty());
    backend.executeStage(5001);
    EXPECT_TRUE(backend.issueQueueEmpty());
    EXPECT_EQ(backend.stats().issueActiveCycles, 3u);
}

} // namespace
} // namespace emissary::backend
