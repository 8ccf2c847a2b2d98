/**
 * @file
 * Architectural and speculative state of one Hydra CPU.
 */

#ifndef JRPM_CPU_CORE_HH
#define JRPM_CPU_CORE_HH

#include <array>
#include <cstdint>

#include "common/hostprof.hh"
#include "common/trace.hh"
#include "cpu/code_space.hh"
#include "cpu/config.hh"
#include "memory/cache.hh"
#include "memory/spec_state.hh"

namespace jrpm
{

/** High-level run mode of a CPU. */
enum class CpuMode : std::uint8_t
{
    Parked,      ///< idle; waiting to be woken for an STL
    Sequential,  ///< executing the (single) sequential thread
    Speculative, ///< executing a speculative thread inside an STL
    Halted,      ///< program finished
};

/** Why a CPU is currently stalled. */
enum class StallKind : std::uint8_t
{
    None,
    Memory,      ///< cache miss / forwarded load latency
    WaitHead,    ///< scop wait_head: waiting to hold the head iteration
    Overflow,    ///< speculative buffer overflow; waits for head
    Handler,     ///< TLS handler overhead cycles (Table 1)
    Trap,        ///< runtime trap cost
    Exception,   ///< speculative exception waiting to become head
};

/** One CPU of the CMP. */
struct Core
{
    explicit Core(std::uint32_t cpu_id, const SystemConfig &cfg)
        : id(cpu_id), buffer(cfg.specBuffers), tags(cfg.specBuffers),
          l1(cfg.l1Bytes, cfg.specBuffers.lineBytes, cfg.l1Assoc)
    {
        regs.fill(0);
        cp2.fill(0);
    }

    std::uint32_t id;
    CpuMode mode = CpuMode::Parked;
    Pc pc;
    std::array<Word, NUM_REGS> regs;
    std::array<Word, 16> cp2;

    // Stall machinery: the CPU executes nothing until stallCycles
    // reaches zero (Memory/Handler/Trap) or until the condition clears
    // (WaitHead/Overflow/Exception).
    StallKind stall = StallKind::None;
    std::uint64_t stallCycles = 0;

    // Speculative thread state.
    StoreBuffer buffer;
    SpecTags tags;
    std::uint64_t iteration = 0;   ///< STL iteration this CPU executes
    bool overflowed = false;       ///< buffers overflowed; must drain
    /** a trap's memory traffic exceeded the buffers: stall at the
     *  next instruction boundary until head, then write through */
    bool pendingOverflowStall = false;
    bool directMode = false;       ///< head after overflow: write through
    bool squashed = false;         ///< restart pending at next boundary
    bool exceptionPending = false; ///< speculative exception deferred
    std::int32_t exceptionKind = 0;
    Word exceptionValue = 0;       ///< $v0 for the eventual handler
    Pc exceptionPc;                ///< pc of the faulting instruction
    Cycle threadStart = 0;         ///< cycle this thread attempt began

    // Tentative Fig. 10 accounting for the current thread attempt;
    // moved to used/violated buckets on commit/squash.
    double tentativeRun = 0;
    double tentativeWait = 0;

    // Flight-recorder bookkeeping: the state last emitted for this
    // CPU's track, and where the current tentative window began (so a
    // squash can recolor exactly the cycles it threw away).
    TraceState traceState = TraceState::Idle;
    Cycle tentStart = 0;

    // Decoded-frame dispatch cache: raw view of pc.method's
    // instruction array, revalidated against the code-space
    // generation (install/replace can reallocate the storage).
    const Inst *frameBase = nullptr;
    std::uint32_t frameLen = 0;
    std::uint32_t frameMethod = ~0u;
    std::uint64_t frameGen = 0;

    // Timing-only L1 data cache model.
    CacheModel l1;

    /** Reset speculative bookkeeping for a fresh thread attempt. */
    void
    clearSpecState()
    {
        JRPM_HPROF(SpecStateClear);
        buffer.clear();
        tags.clear();
        overflowed = false;
        directMode = false;
        squashed = false;
        pendingOverflowStall = false;
        exceptionPending = false;
    }
};

} // namespace jrpm

#endif // JRPM_CPU_CORE_HH
