/**
 * @file
 * The modelled out-of-order back-end (Table 4: 8-wide, ROB 512,
 * IQ 240, LQ 128 / SQ 72).
 *
 * The model is deliberately simple where EMISSARY is insensitive and
 * faithful where it matters: in-order decode/dispatch from the
 * decode queue, latency-based execution with a light pseudo-
 * dependence chain (so load latency propagates to consumers),
 * in-order commit, and precise generation of the three signals the
 * paper's mechanism consumes — decode starvation, the issue-queue-
 * empty condition, and mispredicted-branch resolution times.
 */

#ifndef EMISSARY_BACKEND_BACKEND_HH
#define EMISSARY_BACKEND_BACKEND_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/inst.hh"

namespace emissary::backend
{

/** Back-end statistics for one measurement window. */
struct BackendStats
{
    std::uint64_t committed = 0;
    std::uint64_t issued = 0;
    std::uint64_t cycles = 0;
    /** Cycles where nothing committed and the ROB was empty. */
    std::uint64_t feStallCycles = 0;
    /** Cycles where nothing committed with a non-empty ROB. */
    std::uint64_t beStallCycles = 0;
    /** Cycles where decode wanted instructions but the queue was
     *  empty while a line fill was outstanding (signal S scope). */
    std::uint64_t starvationCycles = 0;
    /** Subset of starvationCycles with an empty issue queue (S&E). */
    std::uint64_t starvationIqEmptyCycles = 0;
    /** Decode-empty cycles with no line to blame (re-steer shadow). */
    std::uint64_t resteerEmptyCycles = 0;
    /** Cycles decode moved at least one instruction. */
    std::uint64_t decodeActiveCycles = 0;
    /** Cycles at least one instruction completed execution. */
    std::uint64_t issueActiveCycles = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branchesResolved = 0;

    void reset() { *this = BackendStats{}; }

    /** Component-wise sum — the time-parallel chunk splice
     *  (core::run) adds window slices. */
    BackendStats &
    operator+=(const BackendStats &other)
    {
        committed += other.committed;
        issued += other.issued;
        cycles += other.cycles;
        feStallCycles += other.feStallCycles;
        beStallCycles += other.beStallCycles;
        starvationCycles += other.starvationCycles;
        starvationIqEmptyCycles += other.starvationIqEmptyCycles;
        resteerEmptyCycles += other.resteerEmptyCycles;
        decodeActiveCycles += other.decodeActiveCycles;
        issueActiveCycles += other.issueActiveCycles;
        loads += other.loads;
        stores += other.stores;
        branchesResolved += other.branchesResolved;
        return *this;
    }
};

/** The back-end pipeline model. */
class Backend
{
  public:
    struct Config
    {
        unsigned width = 8;        ///< Decode/issue/commit width.
        unsigned robEntries = 512;
        unsigned iqEntries = 240;
        unsigned lqEntries = 128;
        unsigned sqEntries = 72;
        unsigned intLatency = 1;
        unsigned mulLatency = 3;
        unsigned fpLatency = 3;
        unsigned branchLatency = 2;
        unsigned storeLatency = 1;
        /** Pseudo-dependence window: a dependent instruction waits on
         *  one of its last depWindow predecessors, so long-latency
         *  loads slow their consumers. */
        unsigned depWindow = 8;
        /** Fraction of instructions carrying such a dependence; the
         *  rest are independent (models the ILP the renamer finds). */
        double depFraction = 0.50;
        /** Fraction of loads that chase the previous load (linked
         *  structures), fully exposing data-miss latency. */
        double loadChainFraction = 0.20;
    };

    using ResolveCallback =
        std::function<void(std::uint64_t seq, std::uint64_t cycle)>;

    Backend(const Config &config, cache::Hierarchy &hierarchy);

    /** Register the front-end's mispredict-resolution callback. */
    void setResolveCallback(ResolveCallback cb)
    {
        resolve_ = std::move(cb);
    }

    /** Retire up to width completed instructions; classify stalls. */
    void commitStage(std::uint64_t now);

    /**
     * Drain every completion due at or before @p now that an earlier
     * call has not drained; fire branch resolutions. Calls may skip
     * cycles: a gap drains all the cycles it covers at once.
     */
    void executeStage(std::uint64_t now);

    /**
     * Dispatch up to width instructions from @p decode_queue into
     * the window, issuing memory requests for loads/stores. Also
     * evaluates the decode-starvation condition when the queue is
     * empty; @p pending_line names the line fetch is waiting on.
     */
    void issueStage(std::uint64_t now,
                    std::deque<core::DynInst> &decode_queue,
                    std::optional<std::uint64_t> pending_line);

    /**
     * Account @p cycles cycles from @p now in which no stage can act
     * (the simulator's idle-cycle fast-forward): add what
     * commitStage and issueStage count in each such cycle. The
     * decode queue is empty when @p decode_empty; @p pending_line is
     * then the line fetch waits on, as issueStage takes it.
     */
    void idleCycles(std::uint64_t now, std::uint64_t cycles,
                    bool decode_empty,
                    std::optional<std::uint64_t> pending_line);

    /**
     * The earliest cycle at which executeStage or commitStage can
     * act, the next completion or the ROB head's completion, when
     * that is before @p horizon; else @p horizon. A value before the
     * current cycle means commit still has completed work.
     */
    std::uint64_t nextEvent(std::uint64_t horizon) const;

    /** True when dispatch has window space this cycle. */
    bool canAccept() const;

    /** The paper's E signal: no incomplete instruction in flight. */
    bool issueQueueEmpty() const { return inFlightExec_ == 0; }

    bool robEmpty() const { return robCount_ == 0; }

    BackendStats &stats() { return stats_; }
    const BackendStats &stats() const { return stats_; }

  private:
    struct RobEntry
    {
        std::uint64_t completeCycle = 0;
        bool isStore = false;
    };

    /**
     * Span of the completion calendar in cycles (a power of two): a
     * completion due within this many cycles of the next undrained
     * one is counted in the bucket of its cycle. It covers a DRAM
     * miss (about 250 cycles) four times over; only chains of
     * dependent misses reach beyond it.
     */
    static constexpr unsigned kCalendarSpan = 1024;

    /** Completions due in one cycle. */
    struct Bucket
    {
        std::uint32_t completions = 0;
        std::uint32_t loads = 0;
    };

    /** A completion kept with its exact cycle and seq. */
    struct Pending
    {
        std::uint64_t cycle;
        std::uint64_t seq;
        bool isLoad;
        bool mispredicted;
    };

    /** Completion time of the pseudo-producer of @p seq. */
    std::uint64_t depReady(std::uint64_t seq,
                           std::uint64_t pc) const;

    /** Book the completion of an instruction just dispatched. */
    void schedule(std::uint64_t cycle, std::uint64_t seq, bool is_load,
                  bool mispredicted);

    /** First cycle in [nextDrain_, @p horizon] whose calendar bucket
     *  holds a completion, or ~0 when there is none. */
    std::uint64_t nextBooked(std::uint64_t horizon) const;

    /** Count @p cycles decode-empty cycles from @p now: starvation
     *  blamed on @p pending_line, or re-steer shadow without one. */
    void starveDecode(std::uint64_t now, std::uint64_t cycles,
                      std::optional<std::uint64_t> pending_line);

    Config config_;
    cache::Hierarchy &hierarchy_;
    ResolveCallback resolve_;

    /** In-order window: a ring of robEntries slots. */
    std::vector<RobEntry> rob_;
    unsigned robHead_ = 0;
    unsigned robCount_ = 0;
    unsigned lqOccupancy_ = 0;
    unsigned sqOccupancy_ = 0;
    unsigned inFlightExec_ = 0;

    /**
     * Completion calendar, indexed by cycle modulo kCalendarSpan.
     * Everything executeStage does for a plain completion commutes
     * (counter decrements), so a per-cycle count is exact. Every
     * live bucket covers a cycle in
     * [nextDrain_, nextDrain_ + kCalendarSpan).
     */
    std::vector<Bucket> calendar_;
    /** One bit per calendar bucket, set while it holds completions,
     *  so the next booked cycle is a bit scan away. */
    std::array<std::uint64_t, kCalendarSpan / 64> booked_{};
    /** First cycle executeStage has not drained yet. */
    std::uint64_t nextDrain_ = 0;
    /**
     * Completions that need their exact cycle, ascending by cycle:
     * mispredicted branches (the resolve callback takes seq and
     * cycle) and the rare completion outside the calendar's span,
     * such as the tail of a pointer-chasing chain of DRAM misses.
     */
    std::vector<Pending> exact_;

    /** Ring buffer of recent completion times for pseudo-deps. */
    static constexpr unsigned kRingSize = 128;
    std::array<std::uint64_t, kRingSize> completionRing_{};
    /** Completion time of the most recent load (pointer chasing). */
    std::uint64_t lastLoadComplete_ = 0;

    BackendStats stats_;
};

} // namespace emissary::backend

#endif // EMISSARY_BACKEND_BACKEND_HH
