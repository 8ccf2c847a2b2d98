/**
 * @file
 * The Hydra CMP with thread-level speculation: four single-issue cores
 * stepped cycle by cycle, the TLS protocol (forwarding, RAW violation
 * detection, ordered commit, overflow stalls), the Table 1 handler
 * cost model, and the Fig. 10 execution-state accounting.
 *
 * This is the substrate everything else runs on: the JIT emits native
 * code into the machine's code space, the VM runtime answers its
 * traps, and the TEST profiler observes its annotated sequential
 * execution.
 */

#ifndef JRPM_TLS_MACHINE_HH
#define JRPM_TLS_MACHINE_HH

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "cpu/code_space.hh"
#include "cpu/config.hh"
#include "cpu/core.hh"
#include "cpu/hooks.hh"
#include "cpu/stats.hh"
#include "memory/cache.hh"
#include "memory/main_memory.hh"

namespace jrpm
{

/** Exception kinds raised by hardware or the Throw trap. */
enum class ExcKind : std::int32_t
{
    Null = 0,
    Bounds = 1,
    Arithmetic = 2,
    User = 3,
    /** Diagnostic: forward-progress watchdog fired (never catchable
     *  by application handlers). */
    Watchdog = 4,
};

/** Stable name for diagnostics ("null", "bounds", ...). */
const char *excKindName(ExcKind kind);

/** Return-address sentinel marking the bottom of the call stack. */
constexpr Word kReturnSentinel = 0xffffffff;

/**
 * Returned by RuntimeHooks::trap when the trap cannot execute
 * speculatively: the machine rewinds the TRAP and stalls the CPU
 * until it becomes the head thread, then retries.
 */
constexpr std::uint32_t kTrapRetry = 0xffffffff;

/** The simulated chip multiprocessor. */
class Machine
{
  public:
    explicit Machine(const SystemConfig &cfg = {});

    CodeSpace &codeSpace() { return code; }
    const CodeSpace &codeSpace() const { return code; }
    MainMemory &memory() { return mem; }
    const SystemConfig &config() const { return cfg; }

    /** Install the VM runtime that answers TRAP instructions. */
    void setRuntime(RuntimeHooks *hooks) { runtime = hooks; }

    /**
     * Install (or remove, with nullptr) the TEST profiler.  While a
     * profiler is attached, annotation instructions and heap accesses
     * of the sequential thread are reported to it.
     */
    void setProfiler(ProfileHook *hook) { profiler = hook; }

    /**
     * Install (or remove, with nullptr) a deterministic fault
     * injector.  The machine consults it at its TLS hook points
     * (violation detect, slave wakeup, commit, handler charge) and at
     * each cycle boundary for asynchronous events.
     */
    void setFaultInjector(FaultInjector *inj) { fault = inj; }

    /**
     * Begin sequential execution of a method on CPU 0.
     * @param method_id entry method
     * @param args      up to 4 arguments placed in $a0..$a3
     * @param stack_top initial $sp/$fp (grows down)
     */
    void start(std::uint32_t method_id, const std::vector<Word> &args,
               Addr stack_top);

    /**
     * Run until the program halts or @p max_cycles elapse.
     * @return true if the program halted.
     */
    bool run(std::uint64_t max_cycles = ~0ull);

    /** Advance the machine by one cycle. */
    void step();

    bool halted() const;
    Cycle now() const { return cycle; }

    /** Return value left in $v0 of the halting CPU. */
    Word exitValue() const { return exitVal; }
    bool uncaughtException() const { return uncaughtExc; }

    /** True if the forward-progress watchdog killed the run. */
    bool watchdogFired() const { return watchdogTripped; }

    /** Loops the governor blacklisted (degraded to solo mode). */
    const std::unordered_set<std::int32_t> &blacklistedLoops() const
    {
        return governorBlacklist;
    }

    /** True while any STL is active (head thread included); compare
     *  speculating(), which excludes the head. */
    bool speculationActive() const { return specActive; }
    /** CPU owning sequential execution (root-set scans). */
    std::uint32_t sequentialCpu() const { return seqCpu; }

    // ---- differential oracle -----------------------------------------
    /** Sparse copy of the memory pages written so far. */
    MemImage memorySnapshot() const { return mem.image(); }
    /** FNV-1a checksum of memory, skipping sorted @p skip regions. */
    std::uint64_t
    memoryChecksum(const std::vector<std::pair<Addr, std::uint32_t>>
                       &skip = {}) const
    {
        return mem.checksum(skip);
    }

    const ExecStats &stats() const { return execStats; }
    ExecStats &stats() { return execStats; }
    const StlStatsMap &stlStats() const { return stlRuntime; }

    // ---- interface for the VM runtime (trap handlers) -------------
    Word reg(std::uint32_t cpu, std::uint8_t r) const;
    void setReg(std::uint32_t cpu, std::uint8_t r, Word v);
    bool speculating(std::uint32_t cpu) const;
    bool isHead(std::uint32_t cpu) const;

    /**
     * Memory access on behalf of a trap handler: flows through the
     * full TLS path (buffers, forwarding, violation broadcast).
     * @return latency cycles the trap should charge.
     */
    std::uint32_t trapLoadWord(std::uint32_t cpu, Addr addr,
                               Word &value);
    std::uint32_t trapStoreWord(std::uint32_t cpu, Addr addr,
                                Word value);

    /** Raise an exception from a trap handler. */
    void raiseException(std::uint32_t cpu, ExcKind kind, Word value);

    /**
     * Force this CPU to stall until it becomes the head thread (used
     * by traps that cannot execute speculatively, e.g. I/O).
     * @return true if the CPU is already safe to proceed.
     */
    bool requireNonSpeculative(std::uint32_t cpu);

    /** Direct (uncached, untimed) memory write for host-side phases
     *  such as the garbage collector; bypasses speculation. */
    void hostWriteWord(Addr addr, Word v) { mem.writeWord(addr, v); }
    Word hostReadWord(Addr addr) const { return mem.readWord(addr); }

    /** Number of dynamically executed instructions (all CPUs). */
    std::uint64_t instCount() const { return nInsts; }
    /** Dynamic data-memory operation count (loads + stores). */
    std::uint64_t memOpCount() const { return nMemOps; }
    /** Cycles run through step(); the rest of now() was batched by
     *  the sequential event horizon.  Host-side only. */
    std::uint64_t stepCount() const { return nSteps; }

    /** Per-CPU view, for tests. */
    const Core &core(std::uint32_t cpu) const { return cores[cpu]; }

    // ---- cache-model counters (timing diagnostics) -----------------
    std::uint64_t l1Hits() const;
    std::uint64_t l1Misses() const;
    std::uint64_t l2Hits() const { return l2.hits(); }
    std::uint64_t l2Misses() const { return l2.misses(); }

    /** Register machine-level counters under "tls." / "cache.". */
    void publishMetrics(MetricsRegistry &reg) const;
    /** Per-STL-loop counters (dynamic names; always slow path). */
    void publishLoopMetrics(MetricsRegistry &reg) const;

    // ---- dependence telemetry (observatory) -------------------------
    /** One contiguous address range with a variable-class label. */
    struct AddrRegion
    {
        Addr base = 0;
        Addr limit = 0;   ///< exclusive
        AddrClass cls = AddrClass::Unknown;
    };

    /** Install the VM memory-layout regions used to bucket violated
     *  addresses by variable class (stack/heap/static/scratch). */
    void setAddrRegions(std::vector<AddrRegion> regions);

    /** Variable-class bucket for @p addr (Unknown if unmapped). */
    AddrClass classifyAddr(Addr addr) const;

  private:
    // ---- machine state ---------------------------------------------
    SystemConfig cfg;
    CodeSpace code;
    MainMemory mem;
    CacheModel l2;
    std::vector<Core> cores;
    RuntimeHooks *runtime = nullptr;
    ProfileHook *profiler = nullptr;
    FaultInjector *fault = nullptr;
    /** CP2 registers shared through the write bus (saved_fp etc.). */
    std::array<Word, 16> globalCp2{};

    Cycle cycle = 0;
    std::uint64_t nInsts = 0;
    std::uint64_t nMemOps = 0;
    std::uint64_t nSteps = 0;
    Word exitVal = 0;
    bool uncaughtExc = false;
    std::uint32_t seqCpu = 0;      ///< CPU owning sequential execution

    // ---- STL (speculation) state ------------------------------------
    struct StlContext
    {
        std::int32_t loopId = -1;
        Pc restartPc;
        std::uint64_t headIteration = 0;
        std::uint64_t nextToAssign = 0;
        std::uint32_t master = 0;
        std::uint32_t switchCpu = 0; ///< CPU that performed the switch
        Cycle entryCycle = 0;
        bool solo = false;           ///< outer STL was head-only
        /** saved per-CPU iterations for multilevel switches */
        std::vector<std::uint64_t> savedIterations;
    };

    bool specActive = false;
    std::int32_t stlLoopId = -1;
    Pc stlRestartPc;
    std::uint64_t headIteration = 0;
    std::uint64_t nextToAssign = 0;
    std::uint32_t stlMaster = 0;
    Cycle stlEntryCycle = 0;
    bool hoistedHandlers = false;  ///< §4.2.7 cost model active
    std::vector<StlContext> contextStack; ///< multilevel (§4.2.6)

    // ---- graceful degradation ---------------------------------------
    /** Cycle of the last head commit / STL boundary (watchdog). */
    Cycle lastHeadProgress = 0;
    bool watchdogTripped = false;
    /** Governor degraded the current STL: only the head runs; slave
     *  wakeups are suppressed and parked peers stay parked. */
    bool soloMode = false;
    std::unordered_set<std::int32_t> governorBlacklist;

    ExecStats execStats;
    StlStatsMap stlRuntime;

    /** Cached &stlRuntime[stlLoopId] so per-event telemetry avoids a
     *  map lookup; kept in sync wherever stlLoopId changes.  Map nodes
     *  are address-stable, so the pointer survives later insertions. */
    StlRuntimeStats *curLs = nullptr;

    /** VM layout regions for classifyAddr (few entries; linear scan). */
    std::vector<AddrRegion> addrRegions;

    /**
     * Pre-resolved handles for the fixed-name machine counters.
     * MetricsRegistry hands back lifetime-stable references, so the
     * per-run publish pays plain atomic adds instead of one dotted-
     * path map lookup per counter.  Resolved lazily against the
     * registry actually passed to publishMetrics (tests use private
     * registries); re-resolved if a different registry shows up.
     */
    struct MetricsHandles
    {
        MetricsRegistry *reg = nullptr;
        Counter *cycles = nullptr;
        Counter *insts = nullptr;
        Counter *memOps = nullptr;
        Counter *stlEntries = nullptr;
        Counter *commits = nullptr;
        Counter *violations = nullptr;
        Counter *overflowStalls = nullptr;
        Counter *watchdogFires = nullptr;
        Counter *governorAborts = nullptr;
        Counter *violationsSuppressed = nullptr;
        std::vector<std::pair<Counter *, Counter *>> l1HitMiss;
        Counter *l2Hits = nullptr;
        Counter *l2Misses = nullptr;
        // dependence telemetry
        Counter *sigHits = nullptr;
        Counter *sigFalsePositives = nullptr;
        Counter *forwardedLoads = nullptr;
        std::array<Counter *, kNumSquashCauses> squashCauses{};
        std::array<Counter *, kNumAddrClasses> violationsByClass{};
    };
    mutable MetricsHandles metricsHandles;

    // ---- event-horizon fast path ------------------------------------
    /** 1/numCpus, hoisted out of the per-cycle accounting. */
    double specShare = 0.25;
    /**
     * Advance by 1..@p budget cycles with accounting bit-identical to
     * that many step() calls: sequential spans take
     * advanceSequential(), everything else (see exactOnly()) a run of
     * step() calls.  Returns the cycles consumed.
     */
    std::uint64_t advance(std::uint64_t budget);
    /** True while every cycle must run step(): under speculation, with
     *  an armed fault injector (it polls per cycle) or under
     *  SystemConfig::referenceStep. */
    bool exactOnly() const;
    /** Batch stall spans and burst event-free instruction runs of the
     *  sequential CPU. */
    std::uint64_t advanceSequential(std::uint64_t budget);
    /** Retire up to @p max_insts sequential instructions, one cycle
     *  each; the caller verified the first is in range and not a
     *  burst stopper.  Returns instructions retired (>= 1). */
    std::uint64_t executeBurst(Core &c, std::uint64_t max_insts);
    /** Decode-and-execute one instruction (pc already advanced). */
    void execInst(Core &c, const Inst &inst);
    /** Revalidate @p c's decoded-frame cache; false if pc is outside
     *  the method (wild pc). */
    bool frameReady(Core &c);
    /** True if @p inst must take the per-cycle path outside
     *  speculation: speculation control reorders cross-core state. */
    bool burstStop(const Inst &inst) const;
    /** Emit this cycle's states for a sequential span: @p s for the
     *  sequential CPU, Idle for everyone else, in CPU order. */
    void noteSequentialStates(Core &c, TraceState s);

    // ---- stepping ---------------------------------------------------
    void stepCpu(Core &c);
    void execute(Core &c);
    void execMemOp(Core &c, const Inst &inst);
    void execScop(Core &c, const Inst &inst);
    void execSmem(Core &c, const Inst &inst);
    void execTrap(Core &c, const Inst &inst);

    // ---- TLS mechanics ----------------------------------------------
    /** Perform a data load with full TLS semantics.  In trap
     *  context the load may exceed the load-buffer capacity; the CPU
     *  then stalls until head at the next instruction boundary. */
    std::uint32_t doLoad(Core &c, Addr addr, std::uint32_t len,
                         bool sign_extend, bool non_violating,
                         Word &out, bool &faulted,
                         std::uint32_t site = 0,
                         bool trap_context = false);
    /** Perform a data store with full TLS semantics (see doLoad for
     *  trap context). */
    std::uint32_t doStore(Core &c, Addr addr, std::uint32_t len,
                          Word value, bool &faulted, bool &stalled,
                          std::uint32_t site = 0,
                          bool trap_context = false);

    /** Squash CPU @p victim and everything more speculative.
     *  @p addr/@p site/@p store_cpu attribute the violating store;
     *  @p cause feeds the squash-cause telemetry. */
    void violate(Core &victim, Addr addr, std::uint32_t site,
                 std::uint32_t store_cpu,
                 SquashCause cause = SquashCause::RawViolation);
    /** Reset one CPU to its STL restart point. */
    void squashToRestart(Core &c);
    /** Commit the thread of @p c (must be head). */
    void commitThread(Core &c);
    /** Move tentative cycle accounting into used buckets. */
    void retireTentative(Core &c, bool used);
    /** Emit a flight-recorder StateChange if the state changed. */
    void noteState(Core &c, TraceState s);

    void beginStl(Core &master, std::int32_t loop_id, Pc restart_pc);
    void endStl(Core &exiting);
    void wakeSlaves(Core &master, Pc entry);
    void parkOthers(std::uint32_t keep_cpu);
    void chargeHandler(Core &c, std::uint32_t cycles);

    void dispatchException(Core &c);
    void unwind(Core &c, ExcKind kind, Word value);

    // ---- robustness -------------------------------------------------
    /** Fire asynchronous fault events (spurious violation, buffer
     *  shrink) due this cycle. */
    void pollFaults();
    /** Count an overflow stall against stats and the current loop. */
    void noteOverflowStall(Core &c);
    /** No head commit for too long: dump diagnostics, squash, halt. */
    void watchdogFire();
    /** True if the current loop's misbehaviour warrants degrading. */
    bool governorShouldTrip() const;
    /** Abort speculation on the current loop: blacklist it, park the
     *  peers and continue head-only (called at a head commit). */
    void governorDegrade(Core &head);

    std::uint32_t cacheLatency(Core &c, Addr addr, bool is_store);
    HandlerCosts activeCosts() const;
};

} // namespace jrpm

#endif // JRPM_TLS_MACHINE_HH
