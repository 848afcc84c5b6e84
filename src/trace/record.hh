/**
 * @file
 * The dynamic instruction record consumed by the pipeline model.
 *
 * The simulator is trace-driven in the ChampSim style: the workload
 * substrate produces a committed-path instruction stream with ground-
 * truth control flow, and the pipeline model replays it, charging
 * penalties whenever its own predictors disagree with the truth.
 */

#ifndef EMISSARY_TRACE_RECORD_HH
#define EMISSARY_TRACE_RECORD_HH

#include <cstddef>
#include <cstdint>

namespace emissary::trace
{

/** Fixed instruction width, bytes. We model an Aarch64-like ISA. */
constexpr std::uint64_t kInstBytes = 4;

/** Dynamic instruction classes the timing model distinguishes. */
enum class InstClass : std::uint8_t
{
    IntAlu,        ///< Single-cycle integer operation.
    IntMul,        ///< Multi-cycle integer operation.
    FpAlu,         ///< Floating-point operation.
    Load,          ///< Memory read.
    Store,         ///< Memory write.
    CondBranch,    ///< Conditional direct branch.
    DirectJump,    ///< Unconditional direct branch.
    IndirectJump,  ///< Unconditional indirect branch.
    Call,          ///< Direct call.
    IndirectCall,  ///< Indirect call (e.g. virtual dispatch).
    Return,        ///< Function return.
};

/** True for any control-transfer instruction class. */
constexpr bool
isControl(InstClass cls)
{
    switch (cls) {
      case InstClass::CondBranch:
      case InstClass::DirectJump:
      case InstClass::IndirectJump:
      case InstClass::Call:
      case InstClass::IndirectCall:
      case InstClass::Return:
        return true;
      default:
        return false;
    }
}

/** True for classes whose target cannot be computed from the PC. */
constexpr bool
isIndirect(InstClass cls)
{
    return cls == InstClass::IndirectJump ||
           cls == InstClass::IndirectCall ||
           cls == InstClass::Return;
}

/** True for loads and stores. */
constexpr bool
isMemory(InstClass cls)
{
    return cls == InstClass::Load || cls == InstClass::Store;
}

/** One committed-path dynamic instruction. */
struct TraceRecord
{
    std::uint64_t pc = 0;        ///< Instruction address.
    std::uint64_t nextPc = 0;    ///< Ground-truth successor address.
    std::uint64_t memAddr = 0;   ///< Effective address for load/store.
    InstClass cls = InstClass::IntAlu;
    bool taken = false;          ///< Ground truth for CondBranch.

    /** Branch/jump target when taken (== nextPc for taken control). */
    std::uint64_t
    takenTarget() const
    {
        return nextPc;
    }
};

/** Infinite committed-path instruction stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next committed instruction. */
    virtual TraceRecord next() = 0;

    /**
     * Produce the next @p n committed instructions into @p out.
     *
     * The front-end consumes the stream through this batched call so
     * the per-instruction virtual next() dispatch is amortized over a
     * whole batch; sources with a cheap bulk path (SyntheticExecutor,
     * ReplayCursor, workload::PackedTraceSource) override it with a
     * tight non-virtual loop. The stream is infinite, so all @p n
     * records are always produced.
     */
    virtual void
    fill(TraceRecord *out, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = next();
    }

    /** Human-readable workload name for reports. */
    virtual const char *name() const = 0;
};

} // namespace emissary::trace

#endif // EMISSARY_TRACE_RECORD_HH
