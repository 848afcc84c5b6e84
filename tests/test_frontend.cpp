/**
 * @file
 * Tests for the decoupled front-end: block formation, FTQ flow into
 * the decode queue, FDIP prefetching, BTB-miss pre-decode stalls,
 * mispredict halt/resume, starvation-line attribution, the reuse of
 * the FTQ's fixed entries, and the trace-only contract behind a
 * shared PredictionStream: block outcomes depend on the records and
 * the PredictorConfig alone, never on timing.
 */

#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>
#include <vector>

#include "cache/hierarchy.hh"
#include "frontend/frontend.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/program.hh"

namespace emissary::frontend
{
namespace
{

/** Scripted trace source: replays a fixed record sequence forever. */
class ScriptSource : public trace::TraceSource
{
  public:
    explicit ScriptSource(std::vector<trace::TraceRecord> script)
        : script_(std::move(script))
    {
    }

    trace::TraceRecord
    next() override
    {
        const trace::TraceRecord rec = script_[pos_];
        pos_ = (pos_ + 1) % script_.size();
        return rec;
    }

    const char *name() const override { return "script"; }

  private:
    std::vector<trace::TraceRecord> script_;
    std::size_t pos_ = 0;
};

/** A simple loop: 7 ALU ops then a taken branch back. */
std::vector<trace::TraceRecord>
loopScript(std::uint64_t base)
{
    std::vector<trace::TraceRecord> script;
    for (int i = 0; i < 7; ++i) {
        trace::TraceRecord r;
        r.pc = base + 4 * static_cast<std::uint64_t>(i);
        r.nextPc = r.pc + 4;
        r.cls = trace::InstClass::IntAlu;
        script.push_back(r);
    }
    trace::TraceRecord br;
    br.pc = base + 28;
    br.nextPc = base;
    br.cls = trace::InstClass::CondBranch;
    br.taken = true;
    script.push_back(br);
    return script;
}

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

struct Rig
{
    explicit Rig(std::vector<trace::TraceRecord> script,
                 FrontEnd::Config fe_config = FrontEnd::Config(),
                 cache::Hierarchy::Config hier_config = hierConfig(),
                 const PredictionStream *predictions = nullptr)
        : source(std::move(script)),
          hierarchy(hier_config),
          frontend(fe_config, source, hierarchy, predictions)
    {
    }

    void
    cycle(std::uint64_t now)
    {
        hierarchy.tick(now);
        frontend.fetch(now, decode_queue);
        frontend.prefetch(now);
        frontend.predict(now);
    }

    ScriptSource source;
    cache::Hierarchy hierarchy;
    FrontEnd frontend;
    std::deque<core::DynInst> decode_queue;
};

TEST(FrontEnd, DeliversInstructionsInProgramOrder)
{
    Rig rig(loopScript(0x10000));
    for (std::uint64_t now = 0; now < 2000; ++now)
        rig.cycle(now);
    ASSERT_GT(rig.decode_queue.size(), 8u);
    std::uint64_t prev_seq = 0;
    std::uint64_t expected_pc = rig.decode_queue.front().rec.pc;
    for (const auto &inst : rig.decode_queue) {
        EXPECT_GT(inst.seq, prev_seq);
        prev_seq = inst.seq;
        EXPECT_EQ(inst.rec.pc, expected_pc);
        expected_pc = inst.rec.nextPc;
    }
}

TEST(FrontEnd, FirstBlockWaitsForColdMiss)
{
    Rig rig(loopScript(0x10000));
    // Cycle a few times: the cold L1I miss (~246 cycles) gates
    // delivery.
    for (std::uint64_t now = 0; now < 20; ++now)
        rig.cycle(now);
    EXPECT_TRUE(rig.decode_queue.empty());
    EXPECT_TRUE(rig.frontend.pendingFetchLine(20).has_value());
    for (std::uint64_t now = 20; now < 400; ++now)
        rig.cycle(now);
    EXPECT_FALSE(rig.decode_queue.empty());
}

TEST(FrontEnd, HotLoopStreamsAtFullWidth)
{
    Rig rig(loopScript(0x10000));
    std::uint64_t now = 0;
    for (; now < 1000; ++now)
        rig.cycle(now);
    // Warm: drain and count deliveries over a window.
    rig.decode_queue.clear();
    std::uint64_t delivered = 0;
    for (; now < 1100; ++now) {
        rig.cycle(now);
        delivered += rig.decode_queue.size();
        rig.decode_queue.clear();
    }
    // 8-instruction blocks at one block per cycle, minus pipeline
    // hiccups: must be close to 8/cycle.
    EXPECT_GT(delivered, 600u);
}

TEST(FrontEnd, BtbMissStallsUntilBytesArrive)
{
    Rig rig(loopScript(0x10000));
    rig.cycle(0);
    // One block was formed against a cold BTB: the BPU must now be
    // stalled (no further blocks) until the line returns.
    const auto blocks_after_first = rig.frontend.stats().blocksFormed;
    EXPECT_EQ(blocks_after_first, 1u);
    for (std::uint64_t now = 1; now < 100; ++now)
        rig.cycle(now);
    EXPECT_EQ(rig.frontend.stats().blocksFormed, 1u)
        << "BPU must wait for pre-decode on a cold block";
    for (std::uint64_t now = 100; now < 400; ++now)
        rig.cycle(now);
    EXPECT_GT(rig.frontend.stats().blocksFormed, 1u);
    EXPECT_GE(rig.frontend.stats().btbMisses, 1u);
}

TEST(FrontEnd, MispredictHaltsUntilResolved)
{
    // Alternating branch at the same PC defeats the cold predictor at
    // least once.
    std::vector<trace::TraceRecord> script;
    for (int rep = 0; rep < 2; ++rep) {
        trace::TraceRecord r;
        r.pc = 0x20000;
        r.cls = trace::InstClass::CondBranch;
        r.taken = (rep == 0);
        r.nextPc = r.taken ? 0x30000 : 0x20004;
        script.push_back(r);
        trace::TraceRecord f;
        f.pc = r.nextPc;
        f.nextPc = 0x20000;
        f.cls = trace::InstClass::DirectJump;
        f.taken = true;
        script.push_back(f);
    }
    Rig rig(std::move(script));

    std::uint64_t now = 0;
    // Run (draining the decode queue so capacity never binds) until
    // the BPU halts on a mispredicted branch.
    for (; now < 30000 && !rig.frontend.haltedBranch(); ++now) {
        rig.cycle(now);
        rig.decode_queue.clear();
    }
    ASSERT_TRUE(rig.frontend.haltedBranch().has_value());
    const std::uint64_t mis_seq = *rig.frontend.haltedBranch();
    const auto blocks = rig.frontend.stats().blocksFormed;
    // Without resolution the BPU stays halted forever.
    for (std::uint64_t i = 0; i < 200; ++i) {
        rig.cycle(now + i);
        rig.decode_queue.clear();
    }
    EXPECT_EQ(rig.frontend.stats().blocksFormed, blocks);

    // Resolve it: the BPU resumes after resteerLatency.
    rig.frontend.onBranchResolved(mis_seq, now + 200);
    for (std::uint64_t i = 200; i < 600; ++i) {
        rig.cycle(now + i);
        rig.decode_queue.clear();
    }
    EXPECT_GT(rig.frontend.stats().blocksFormed, blocks);
}

TEST(FrontEnd, FdipOffDelaysRequestsUntilFetch)
{
    FrontEnd::Config fe;
    fe.fdip = false;
    Rig rig(loopScript(0x10000), fe);
    rig.cycle(0);
    // With FDIP off, the BPU formed a block but no FDIP stats accrue.
    EXPECT_EQ(rig.frontend.stats().fdipRequests, 0u);
}

/**
 * A loop of a straight-line run of @p straight ALU ops (several
 * lines long) followed by a few short blocks, back to the start.
 */
std::vector<trace::TraceRecord>
mixedBlockScript(std::uint64_t base, unsigned straight)
{
    std::vector<trace::TraceRecord> script;
    std::uint64_t pc = base;
    auto add = [&](trace::InstClass cls, std::uint64_t next) {
        trace::TraceRecord r;
        r.pc = pc;
        r.nextPc = next;
        r.cls = cls;
        r.taken = next != pc + 4;
        script.push_back(r);
        pc = next;
    };
    for (unsigned i = 0; i < straight; ++i)
        add(trace::InstClass::IntAlu, pc + 4);
    for (int block = 0; block < 3; ++block) {
        add(trace::InstClass::IntAlu, pc + 4);
        add(trace::InstClass::DirectJump, pc + 0x100);
    }
    add(trace::InstClass::DirectJump, base);
    return script;
}

TEST(FrontEnd, FtqEntriesAreReusedAcrossManyBlocks)
{
    // A small FTQ recycles its entries many times over, and a
    // 70-instruction straight run splits into a maxBlockInstrs block
    // plus a remainder. Every instruction must still reach decode
    // exactly once, in program order, with its own line state.
    FrontEnd::Config fe;
    fe.ftqEntries = 4;
    fe.maxBlockInstrs = 64;
    const auto script = mixedBlockScript(0x40000, 70);
    Rig rig(script, fe);

    std::uint64_t expected_seq = 1;
    std::size_t expected_index = 0;
    for (std::uint64_t now = 0; now < 20'000; ++now) {
        rig.cycle(now);
        for (const core::DynInst &inst : rig.decode_queue) {
            ASSERT_EQ(inst.seq, expected_seq);
            ASSERT_EQ(inst.rec.pc, script[expected_index].pc);
            ++expected_seq;
            expected_index = (expected_index + 1) % script.size();
        }
        rig.decode_queue.clear();
    }
    const FrontEndStats &stats = rig.frontend.stats();
    EXPECT_GT(stats.blocksFormed, 100u * fe.ftqEntries);
    EXPECT_EQ(stats.fetchedInstrs, expected_seq - 1);
    // One pass of the script is five blocks of 64, 8, 2, 2 and 1
    // instructions.
    const std::uint64_t passes = stats.fetchedInstrs / script.size();
    EXPECT_GE(stats.blocksFormed, 5 * passes);
    EXPECT_LE(stats.blocksFormed, 5 * (passes + 1) + fe.ftqEntries);
}

TEST(FrontEnd, PendingLineFollowsFetchAcrossBlockLines)
{
    // A 64-instruction block spans four lines, the first two already
    // in L1I. Fetch streams through them, then stalls on the third:
    // the pending line is always the line of the next instruction.
    FrontEnd::Config fe;
    fe.fdip = false;
    const auto script = mixedBlockScript(0x80000, 64);
    Rig rig(script, fe);
    const std::uint64_t first_line = script.front().pc >> 6;
    rig.hierarchy.requestInstruction(first_line, 0,
                                     cache::RequestKind::Demand);
    rig.hierarchy.requestInstruction(first_line + 1, 0,
                                     cache::RequestKind::Demand);
    std::uint64_t now = 0;
    for (; now < 300; ++now)
        rig.hierarchy.tick(now);

    std::uint64_t delivered = 0;
    bool stalled_on_third = false;
    for (; now < 3000 && delivered < 64; ++now) {
        rig.cycle(now);
        delivered += rig.decode_queue.size();
        rig.decode_queue.clear();
        if (delivered >= 64)
            break;
        const auto pending = rig.frontend.pendingFetchLine(now);
        if (!pending)
            continue;
        EXPECT_EQ(*pending, script[delivered].pc >> 6)
            << "cycle " << now;
        stalled_on_third =
            stalled_on_third ||
            (delivered == 32 && *pending == first_line + 2);
    }
    EXPECT_TRUE(stalled_on_third);
    EXPECT_EQ(delivered, 64u);
}

TEST(FrontEnd, NextEventStopsWhereTheBlamedLineChanges)
{
    // One cold block ending in an indirect jump: the BTB misses, so
    // the BPU stalls until the block's bytes are pre-decoded, and the
    // cold ITTAGE mispredicts the target, so the BPU is halted too.
    std::vector<trace::TraceRecord> script;
    for (int i = 0; i < 3; ++i) {
        trace::TraceRecord r;
        r.pc = 0x40000 + 4 * static_cast<std::uint64_t>(i);
        r.nextPc = r.pc + 4;
        r.cls = trace::InstClass::IntAlu;
        script.push_back(r);
    }
    trace::TraceRecord jump;
    jump.pc = 0x4000c;
    jump.nextPc = 0x80000;
    jump.cls = trace::InstClass::IndirectJump;
    script.push_back(jump);
    Rig rig(script);
    rig.frontend.predict(0);
    ASSERT_TRUE(rig.frontend.haltedBranch().has_value());

    // Fetch drains the block once its line arrives; nothing resolves
    // the jump, so the BPU stays halted.
    std::uint64_t now = 0;
    while (!rig.frontend.ftqEmpty())
        rig.cycle(++now);
    ASSERT_TRUE(rig.frontend.haltedBranch().has_value());

    // The drained FTQ blames the block's line until the pre-decode
    // stall ends. Only another stage can wake predict, but the blame
    // still changes there, so the front-end's next event must too.
    const std::uint64_t next = now + 1;
    ASSERT_TRUE(rig.frontend.pendingFetchLine(next).has_value());
    std::uint64_t blame_ends = next;
    while (rig.frontend.pendingFetchLine(blame_ends).has_value())
        ++blame_ends;
    EXPECT_EQ(rig.frontend.nextEvent(next, rig.decode_queue.size()),
              blame_ends);
}

/** The first @p records records of tomcat's committed path. */
std::vector<trace::TraceRecord>
tomcatRecords(std::size_t records)
{
    const trace::SyntheticProgram program(trace::profileByName("tomcat"));
    trace::SyntheticExecutor executor(program);
    std::vector<trace::TraceRecord> out(records);
    executor.fill(out.data(), out.size());
    return out;
}

/**
 * The outcome bits of the first @p blocks blocks a front-end forms
 * over @p records, driven cycle by cycle with decode always free and
 * each mispredict resolved @p resolve_delay cycles after it halts the
 * BPU.
 */
std::vector<std::uint8_t>
frontEndOutcomes(const std::vector<trace::TraceRecord> &records,
                 std::size_t blocks, const FrontEnd::Config &fe,
                 const cache::Hierarchy::Config &hier,
                 std::uint64_t resolve_delay,
                 const PredictionStream *predictions = nullptr)
{
    Rig rig(records, fe, hier, predictions);
    std::vector<std::uint8_t> outcomes;
    for (std::uint64_t now = 0; outcomes.size() < blocks; ++now) {
        const std::uint64_t formed = rig.frontend.stats().blocksFormed;
        rig.cycle(now);
        if (rig.frontend.stats().blocksFormed != formed)
            outcomes.push_back(rig.frontend.lastOutcome());
        rig.decode_queue.clear();
        if (const auto seq = rig.frontend.haltedBranch())
            rig.frontend.onBranchResolved(*seq, now + resolve_delay);
    }
    return outcomes;
}

/**
 * A PredictionStream fed @p records gives the per-block outcomes of
 * two inline front-ends under @p fe with different timing: the
 * default machine, and FDIP off over an ideal L2I with slower
 * re-steers.
 */
void
expectStreamMatchesInline(const std::vector<trace::TraceRecord> &records,
                          const FrontEnd::Config &fe)
{
    // Fed in uneven pieces, so blocks straddle the calls.
    PredictionStream stream(fe, records.size());
    std::size_t fed = 0;
    for (const std::size_t piece : {1u, 7u, 4096u, 333u}) {
        stream.append(records.data() + fed, piece);
        fed += piece;
    }
    stream.append(records.data() + fed, records.size() - fed);
    stream.finish();
    const std::size_t blocks = stream.published();
    // The script source wraps, so only blocks that end inside the
    // records are compared; the stream holds exactly those.
    ASSERT_GT(blocks, records.size() / 20);
    ASSERT_EQ(stream.await(blocks), blocks);

    FrontEnd::Config no_fdip = fe;
    no_fdip.fdip = false;
    cache::Hierarchy::Config ideal = hierConfig();
    ideal.idealL2Inst = true;
    const std::vector<std::uint8_t> timed =
        frontEndOutcomes(records, blocks, fe, hierConfig(), 5);
    const std::vector<std::uint8_t> other =
        frontEndOutcomes(records, blocks, no_fdip, ideal, 40);

    std::size_t hits = 0, mispredicts = 0, waits = 0;
    for (std::size_t i = 0; i < blocks; ++i) {
        ASSERT_EQ(timed[i], stream.outcome(i)) << "block " << i;
        ASSERT_EQ(other[i], stream.outcome(i)) << "block " << i;
        hits += (timed[i] & kBtbHit) != 0;
        mispredicts += (timed[i] & kMispredict) != 0;
        waits += (timed[i] & kPredecodeWait) != 0;
    }
    // Every kind of outcome occurs, so the comparison covers them.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(mispredicts, 0u);
    EXPECT_GT(waits, 0u);
    EXPECT_LT(hits, blocks);
}

TEST(PredictionStream, OutcomesDependOnTheRecordsAloneNotOnTiming)
{
    const std::vector<trace::TraceRecord> records = tomcatRecords(40'000);
    expectStreamMatchesInline(records, FrontEnd::Config());
    // A block cap below some of tomcat's blocks: the stream must cut
    // them where the front-end does.
    FrontEnd::Config capped;
    capped.maxBlockInstrs = 10;
    expectStreamMatchesInline(records, capped);
}

TEST(PredictionStream, ReaderPastTheEndContinuesFromTheFinalState)
{
    const std::vector<trace::TraceRecord> records = tomcatRecords(40'000);
    const FrontEnd::Config fe;
    PredictionStream full(fe, records.size());
    full.append(records.data(), records.size());
    full.finish();
    const std::size_t blocks = full.published();

    // A stream capped at a third of the blocks: a front-end reading
    // it forms the rest inline from the producer's final state, and
    // sees every outcome the uncapped stream holds.
    PredictionStream capped(fe, blocks / 3);
    capped.append(records.data(), records.size());
    capped.finish();
    ASSERT_EQ(capped.published(), blocks / 3);
    const std::vector<std::uint8_t> read =
        frontEndOutcomes(records, blocks, fe, hierConfig(), 5, &capped);
    for (std::size_t i = 0; i < blocks; ++i)
        ASSERT_EQ(read[i], full.outcome(i)) << "block " << i;
}

TEST(PredictionStream, FrontEndRejectsAnotherPredictorConfig)
{
    FrontEnd::Config fe;
    PredictionStream stream(fe, 16);
    stream.finish();
    fe.tage.seed ^= 1;
    EXPECT_THROW(Rig(loopScript(0x10000), fe, hierConfig(), &stream),
                 std::invalid_argument);
    // Timing knobs are not part of the key.
    FrontEnd::Config timing;
    timing.fdip = false;
    timing.ftqEntries = 4;
    EXPECT_NO_THROW(
        Rig(loopScript(0x10000), timing, hierConfig(), &stream));
}

} // namespace
} // namespace emissary::frontend
