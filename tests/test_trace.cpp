/**
 * @file
 * Tests for the synthetic workload substrate: program structure
 * invariants, executor control-flow consistency, determinism, and
 * per-benchmark calibration properties (parameterized across the
 * whole datacenter suite).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/program.hh"

namespace emissary::trace
{
namespace
{

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p;
    p.name = "tiny";
    p.codeFootprintBytes = 96 * 1024;
    p.transactionTypes = 8;
    p.functionsPerTransaction = 6;
    p.dataFootprintBytes = 1 << 20;
    p.hotDataBytes = 64 * 1024;
    p.seed = 1234;
    return p;
}

TEST(Program, DeterministicGeneration)
{
    const SyntheticProgram a(tinyProfile());
    const SyntheticProgram b(tinyProfile());
    ASSERT_EQ(a.blocks().size(), b.blocks().size());
    ASSERT_EQ(a.functions().size(), b.functions().size());
    for (std::size_t i = 0; i < a.blocks().size(); ++i) {
        EXPECT_EQ(a.blocks()[i].startPc, b.blocks()[i].startPc);
        EXPECT_EQ(a.blocks()[i].term, b.blocks()[i].term);
    }
}

TEST(Program, CodeSizeNearTarget)
{
    const auto profile = tinyProfile();
    const SyntheticProgram program(profile);
    const double ratio =
        static_cast<double>(program.staticCodeBytes()) /
        static_cast<double>(profile.codeFootprintBytes);
    EXPECT_GT(ratio, 0.85);
    EXPECT_LT(ratio, 1.25);
}

TEST(Program, BlockStructureInvariants)
{
    const SyntheticProgram program(tinyProfile());
    for (const Function &fn : program.functions()) {
        ASSERT_GE(fn.blockCount, 2u);
        std::uint32_t loop_floor = 0;
        for (std::uint32_t b = 0; b < fn.blockCount; ++b) {
            const BasicBlock &block =
                program.blocks()[fn.firstBlock + b];
            const bool last = (b + 1 == fn.blockCount);
            switch (block.term) {
              case TermKind::ReturnTerm:
                EXPECT_TRUE(last) << "return must end the function";
                break;
              case TermKind::CondLoop:
                EXPECT_LT(block.targetBlock, b);
                // Disjoint loop ranges: back edge never crosses an
                // earlier latch.
                EXPECT_GE(block.targetBlock, loop_floor);
                EXPECT_GE(block.tripCount, 2u);
                loop_floor = b + 1;
                break;
              case TermKind::CondForward:
                EXPECT_GT(block.targetBlock, b);
                EXPECT_LT(block.targetBlock, fn.blockCount);
                break;
              case TermKind::Jump:
                EXPECT_LT(block.targetBlock, fn.blockCount);
                break;
              case TermKind::CallLocal:
                EXPECT_FALSE(last) << "call needs a continuation";
                EXPECT_LT(block.calleeFunc,
                          program.functions().size());
                break;
              case TermKind::DispatchCall:
                EXPECT_FALSE(last);
                break;
              case TermKind::FallThrough:
                ADD_FAILURE() << "FallThrough must not be generated";
                break;
            }
            if (!last) {
                EXPECT_NE(block.term, TermKind::ReturnTerm);
            }
        }
    }
}

TEST(Program, LayoutIsContiguousWithinFunctions)
{
    const SyntheticProgram program(tinyProfile());
    std::set<std::uint64_t> starts;
    for (const Function &fn : program.functions()) {
        std::uint64_t pc = fn.entryPc;
        EXPECT_TRUE(starts.insert(fn.entryPc).second)
            << "duplicate entry pc";
        for (std::uint32_t b = 0; b < fn.blockCount; ++b) {
            const BasicBlock &block =
                program.blocks()[fn.firstBlock + b];
            EXPECT_EQ(block.startPc, pc);
            pc = block.endPc();
        }
    }
}

TEST(Program, BodyClassStablePerPc)
{
    const SyntheticProgram program(tinyProfile());
    for (std::uint64_t pc = SyntheticProgram::kCodeBase;
         pc < SyntheticProgram::kCodeBase + 4096; pc += 4) {
        EXPECT_EQ(program.bodyClassAt(pc), program.bodyClassAt(pc));
    }
}

TEST(Executor, ControlFlowChainsCorrectly)
{
    const SyntheticProgram program(tinyProfile());
    SyntheticExecutor executor(program);
    TraceRecord prev = executor.next();
    for (int i = 0; i < 200000; ++i) {
        const TraceRecord rec = executor.next();
        ASSERT_EQ(rec.pc, prev.nextPc)
            << "committed path must be contiguous at step " << i;
        prev = rec;
    }
}

TEST(Executor, DeterministicReplay)
{
    const SyntheticProgram program(tinyProfile());
    SyntheticExecutor a(program);
    SyntheticExecutor b(program);
    for (int i = 0; i < 50000; ++i) {
        const TraceRecord ra = a.next();
        const TraceRecord rb = b.next();
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.nextPc, rb.nextPc);
        ASSERT_EQ(ra.memAddr, rb.memAddr);
        ASSERT_EQ(static_cast<int>(ra.cls), static_cast<int>(rb.cls));
    }
}

TEST(Executor, MemoryOpsCarryAddresses)
{
    const SyntheticProgram program(tinyProfile());
    SyntheticExecutor executor(program);
    int mem_ops = 0;
    for (int i = 0; i < 100000; ++i) {
        const TraceRecord rec = executor.next();
        if (isMemory(rec.cls)) {
            ++mem_ops;
            EXPECT_NE(rec.memAddr, 0u);
        } else {
            EXPECT_EQ(rec.memAddr, 0u);
        }
    }
    // Loads + stores should be roughly loadFraction + storeFraction
    // of body instructions.
    EXPECT_GT(mem_ops, 15000);
    EXPECT_LT(mem_ops, 45000);
}

TEST(Executor, TransactionsProgress)
{
    const SyntheticProgram program(tinyProfile());
    SyntheticExecutor executor(program);
    for (int i = 0; i < 300000; ++i)
        executor.next();
    EXPECT_GT(executor.transactionCount(), 50u);
    EXPECT_EQ(executor.instructionCount(), 300000u);
}

TEST(Executor, LoopTripCountsAreDeterministic)
{
    // Find a loop latch and verify its dynamic taken-run lengths all
    // equal tripCount - 1.
    const SyntheticProgram program(tinyProfile());
    SyntheticExecutor executor(program);

    // Only "clean" loops qualify: no block inside the loop range can
    // branch past the latch, or a run may be abandoned mid-count.
    std::unordered_map<std::uint64_t, std::uint16_t> latch_trips;
    for (const Function &fn : program.functions()) {
        for (std::uint32_t b = 0; b < fn.blockCount; ++b) {
            const BasicBlock &block =
                program.blocks()[fn.firstBlock + b];
            if (block.term != TermKind::CondLoop)
                continue;
            bool clean = true;
            for (std::uint32_t inner = block.targetBlock; inner < b;
                 ++inner) {
                const BasicBlock &body =
                    program.blocks()[fn.firstBlock + inner];
                if ((body.term == TermKind::CondForward ||
                     body.term == TermKind::Jump) &&
                    body.targetBlock > b) {
                    clean = false;
                    break;
                }
            }
            if (clean)
                latch_trips[block.termPc()] = block.tripCount;
        }
    }
    ASSERT_FALSE(latch_trips.empty());

    std::unordered_map<std::uint64_t, int> run;
    int checked = 0;
    for (int i = 0; i < 400000; ++i) {
        const TraceRecord rec = executor.next();
        const auto it = latch_trips.find(rec.pc);
        if (it == latch_trips.end())
            continue;
        if (rec.taken) {
            ++run[rec.pc];
        } else {
            // Completed runs show exactly tripCount executions of the
            // latch: tripCount-1 taken, then one not-taken.
            EXPECT_EQ(run[rec.pc] + 1, it->second);
            run[rec.pc] = 0;
            ++checked;
        }
    }
    EXPECT_GT(checked, 100);
}

TEST(Suite, HasThirteenBenchmarks)
{
    const auto suite = datacenterSuite();
    EXPECT_EQ(suite.size(), 13u);
    EXPECT_EQ(suite.front().name, "specjbb");
    EXPECT_EQ(suite.back().name, "speedometer2.0");
}

TEST(Suite, LookupByName)
{
    EXPECT_EQ(profileByName("tomcat").name, "tomcat");
    EXPECT_THROW(profileByName("nope"), std::invalid_argument);
}

TEST(Suite, TomcatLargestXapianSmallest)
{
    // Fig. 4: tomcat 2.57 MB is the largest footprint, xapian 0.29 MB
    // the smallest.
    std::uint64_t max_fp = 0;
    std::uint64_t min_fp = ~std::uint64_t{0};
    std::string max_name;
    std::string min_name;
    for (const auto &p : datacenterSuite()) {
        if (p.codeFootprintBytes > max_fp) {
            max_fp = p.codeFootprintBytes;
            max_name = p.name;
        }
        if (p.codeFootprintBytes < min_fp) {
            min_fp = p.codeFootprintBytes;
            min_name = p.name;
        }
    }
    EXPECT_EQ(max_name, "tomcat");
    EXPECT_EQ(min_name, "xapian");
}

/** Parameterized sweep: structural invariants for every benchmark. */
class SuiteProgramTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteProgramTest, GeneratesAndExecutes)
{
    const WorkloadProfile profile = profileByName(GetParam());
    const SyntheticProgram program(profile);
    EXPECT_GT(program.functions().size(),
              profile.transactionTypes + 1);
    // Static code within 25% of the Fig. 4 target.
    const double ratio =
        static_cast<double>(program.staticCodeBytes()) /
        static_cast<double>(profile.codeFootprintBytes);
    EXPECT_GT(ratio, 0.75) << profile.name;
    EXPECT_LT(ratio, 1.3) << profile.name;

    SyntheticExecutor executor(program);
    TraceRecord prev = executor.next();
    for (int i = 0; i < 30000; ++i) {
        const TraceRecord rec = executor.next();
        ASSERT_EQ(rec.pc, prev.nextPc) << profile.name;
        prev = rec;
    }
    EXPECT_GT(executor.uniqueCodeLines(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteProgramTest,
    ::testing::ValuesIn(suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
} // namespace emissary::trace
