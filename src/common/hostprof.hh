/**
 * @file
 * Host-side self-profiler: where do *host* cycles go while the
 * simulator runs?
 *
 * A fixed hierarchy of slots (HostSlot) is timed with scoped RAII
 * timers reading the TSC.  Accumulation is thread-local — a timer
 * touches only this thread's table plus one relaxed atomic load for
 * the enable flag — and is merged into the global table by an explicit
 * flushThread() at natural drain points (end of Machine::run, end of
 * the pipeline).  When disabled, a timer costs one relaxed load and a
 * predictable branch; when compiled out (JRPM_HOSTPROF_ENABLED=0) it
 * costs nothing.
 *
 * Nesting is tracked per thread: a slot's "child" time is the time
 * spent in slots opened while it was the innermost one, so
 * self = total - child is an honest exclusive time even though a slot
 * (say CacheModel) can run under different parents (StepExact on the
 * per-cycle path, SeqDispatch during sequential bursts).
 */

#ifndef JRPM_COMMON_HOSTPROF_HH
#define JRPM_COMMON_HOSTPROF_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#ifndef JRPM_HOSTPROF_ENABLED
#define JRPM_HOSTPROF_ENABLED 1
#endif

namespace jrpm
{

class MetricsRegistry;

namespace hostprof
{

/** Fixed attribution slots.  Order is the export order. */
enum class HostSlot : std::uint8_t
{
    Pipeline,      ///< whole JrpmSystem::run body
    JitCompile,    ///< compiler passes (profile/analyze/select/emit)
    JitAnalyze,    ///< Jit constructor: verify, inlining, loop discovery
    MachineRun,    ///< Machine::run main loop
    SeqDispatch,   ///< advanceSequential (event-horizon, sequential)
    StepExact,     ///< per-cycle step() runs (speculation, reference)
    ForwardScan,   ///< doLoad store-buffer overlay / forwarding scan
    DepCheck,      ///< doStore RAW broadcast over spec tags
    Commit,        ///< commitThread (drain + retire)
    Squash,        ///< squashToRestart
    BufferDrain,   ///< StoreBuffer::drainTo
    SpecStateClear,///< Core::clearSpecState
    CacheModel,    ///< CacheModel::access tag/LRU updates
    TrapRuntime,   ///< VM trap handling
    OracleCheck,   ///< oracle comparison / divergence checks
    MetricsPublish,///< metrics/trace publication
    SigCheck,      ///< write/read-set signature membership probes
    ForcedSweep,   ///< forge's per-loop forced runTls sweep
};

inline constexpr std::size_t kNumSlots = 18;

/** Short stable name for a slot ("machine_run", "dep_check", ...). */
const char *slotName(std::size_t slot);

/**
 * Declared parent used for rendering (flamegraph grouping).  Dynamic
 * nesting can differ (self times are computed from actual nesting);
 * this is the canonical hierarchy for display.  Returns -1 for roots.
 */
int slotParent(std::size_t slot);

/** Master switch.  Relaxed; readable from any thread. */
extern std::atomic<bool> gEnabled;

inline bool
enabled()
{
#if JRPM_HOSTPROF_ENABLED
    return gEnabled.load(std::memory_order_relaxed);
#else
    return false;
#endif
}

/** Enable or disable timing globally (timers already open still close
 *  correctly: open/close decisions are captured at construction). */
void setEnabled(bool on);

/** Per-thread accumulator for one slot. */
struct ThreadSlot
{
    std::uint64_t tsc = 0;    ///< inclusive TSC ticks
    std::uint64_t child = 0;  ///< ticks spent in nested slots
    std::uint64_t count = 0;  ///< number of timed scopes
};

/** Thread-local table; index by HostSlot.  kNumSlots entries plus the
 *  current innermost slot (for child attribution). */
struct ThreadTable
{
    ThreadSlot slots[kNumSlots];
    int current = -1;  ///< innermost open slot, -1 when none
};

/** constinit: other translation units reach the table directly, not
 *  through a TLS init wrapper.  The wrapper's test of the absent init
 *  function left the flags UBSan's null check read once the linker
 *  relaxed the address `add` to `lea` (a false "null ThreadTable"). */
extern thread_local constinit ThreadTable tTable;

/** Read the timestamp counter (or a steady-clock fallback). */
inline std::uint64_t
now()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
    std::uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return 0; // timed via calibrate() fallback paths only
#endif
}

/** Merge this thread's table into the global totals and zero it.
 *  Call at thread drain points (end of Machine::run etc.). */
void flushThread();

/** Zero the global totals (and the calling thread's table). */
void reset();

/** TSC ticks per second, lazily calibrated against steady_clock. */
double tscHz();

/** Flushed global view of one slot. */
struct SlotSnapshot
{
    std::string name;
    int parent = -1;        ///< declared parent index, -1 for roots
    std::uint64_t tsc = 0;  ///< inclusive ticks
    std::uint64_t self = 0; ///< exclusive ticks (tsc - child)
    std::uint64_t count = 0;
    double totalSec = 0;    ///< inclusive seconds
    double selfSec = 0;     ///< exclusive seconds
};

/** Snapshot the flushed global totals (call flushThread() first on
 *  threads that did timed work). */
std::vector<SlotSnapshot> snapshot();

/** Publish flushed totals as hostprof.* counters/gauges. */
void publish(MetricsRegistry &reg);

/** JSON array of slot objects (name/parent/ticks/self/count/seconds). */
std::string reportJson();

/** RAII scope timer.  Cheap no-op when the profiler is disabled. */
class ScopedHostTimer
{
  public:
    explicit ScopedHostTimer(HostSlot slot)
    {
#if JRPM_HOSTPROF_ENABLED
        if (!gEnabled.load(std::memory_order_relaxed))
            return;
        armedSlot = static_cast<int>(slot);
        prev = tTable.current;
        tTable.current = armedSlot;
        start = now();
#else
        (void)slot;
#endif
    }

    ~ScopedHostTimer()
    {
#if JRPM_HOSTPROF_ENABLED
        if (armedSlot < 0)
            return;
        const std::uint64_t dt = now() - start;
        ThreadTable &t = tTable;
        ThreadSlot &s = t.slots[armedSlot];
        s.tsc += dt;
        ++s.count;
        if (prev >= 0)
            t.slots[prev].child += dt;
        t.current = prev;
#endif
    }

    ScopedHostTimer(const ScopedHostTimer &) = delete;
    ScopedHostTimer &operator=(const ScopedHostTimer &) = delete;

  private:
#if JRPM_HOSTPROF_ENABLED
    std::uint64_t start = 0;
    int armedSlot = -1;
    int prev = -1;
#endif
};

} // namespace hostprof
} // namespace jrpm

/** Convenience: time the rest of the enclosing scope against a slot. */
#if JRPM_HOSTPROF_ENABLED
#define JRPM_HPROF_CAT2(a, b) a##b
#define JRPM_HPROF_CAT(a, b) JRPM_HPROF_CAT2(a, b)
#define JRPM_HPROF(slot)                                               \
    ::jrpm::hostprof::ScopedHostTimer JRPM_HPROF_CAT(                  \
        jrpmHprof_, __COUNTER__)(::jrpm::hostprof::HostSlot::slot)
#else
#define JRPM_HPROF(slot) do { } while (false)
#endif

#endif // JRPM_COMMON_HOSTPROF_HH
