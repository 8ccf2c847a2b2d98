/**
 * @file
 * Execution statistics: the Fig. 10 state breakdown plus the per-STL
 * runtime numbers reported in Table 3.
 */

#ifndef JRPM_CPU_STATS_HH
#define JRPM_CPU_STATS_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"

namespace jrpm
{

/**
 * Why a speculative thread (attempt) was discarded.  One event is
 * counted per squash *event*, not per squashed core: a RAW violation
 * that kills three more-speculative threads counts once.
 */
enum class SquashCause : std::uint8_t
{
    RawViolation,  ///< true RAW dependence detected at a store
    SpuriousFault, ///< injected spurious violation (fault campaign)
    StlSwitch,     ///< STL switch discarded in-flight speculation
    Watchdog,      ///< forward-progress watchdog fired
    Governor,      ///< speedup governor degraded the loop to solo
};

inline constexpr std::size_t kNumSquashCauses = 5;

inline const char *
squashCauseName(std::size_t cause)
{
    static const char *const names[kNumSquashCauses] = {
        "raw_violation", "spurious_fault", "stl_switch", "watchdog",
        "governor",
    };
    return cause < kNumSquashCauses ? names[cause] : "?";
}

/**
 * Coarse variable-class bucket for a violated address, derived from
 * the VM memory layout.  Maps onto the analyzer's vocabulary: Stack
 * holds locals/privates/carried spills, Heap is the analyzer's Memory
 * class, Static covers invariants/static fields, Scratch is VM-internal
 * state (lock table, per-CPU scratch).
 */
enum class AddrClass : std::uint8_t
{
    Unknown,
    Stack,
    Heap,
    Static,
    Scratch,
};

inline constexpr std::size_t kNumAddrClasses = 5;

inline const char *
addrClassName(std::size_t cls)
{
    static const char *const names[kNumAddrClasses] = {
        "unknown", "stack", "heap", "static", "scratch",
    };
    return cls < kNumAddrClasses ? names[cls] : "?";
}

/**
 * Cheap always-on histogram for hot-path telemetry: count/sum/max plus
 * log2 buckets.  A sample is a handful of integer ops (no floating
 * point, no allocation), so it can run per speculative store without
 * perturbing simulation speed; SampleStat stays the tool for the
 * colder Table 3 statistics.
 */
struct SpanHist
{
    static constexpr std::size_t kBuckets = 32;

    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> log2Buckets{};

    void
    sample(std::uint64_t v)
    {
        ++count;
        sum += v;
        if (v > max)
            max = v;
        const unsigned b =
            v == 0 ? 0u
                   : static_cast<unsigned>(64 - __builtin_clzll(v));
        ++log2Buckets[b < kBuckets ? b : kBuckets - 1];
    }

    double
    mean() const
    {
        return count ? static_cast<double>(sum) / count : 0.0;
    }

    void
    merge(const SpanHist &o)
    {
        count += o.count;
        sum += o.sum;
        if (o.max > max)
            max = o.max;
        for (std::size_t i = 0; i < kBuckets; ++i)
            log2Buckets[i] += o.log2Buckets[i];
    }
};

/**
 * Breakdown of execution into the six Fig. 10 states.  Units are
 * CPU-normalized wall-clock cycles: a cycle of serial execution adds 1
 * to `serial`; a cycle inside an STL adds 1/numCpus to the bucket of
 * each CPU's current activity (so the six buckets sum to total
 * wall-clock cycles).
 */
struct ExecStats
{
    double serial = 0;
    double runUsed = 0;
    double waitUsed = 0;
    double overhead = 0;
    double runViolated = 0;
    double waitViolated = 0;

    std::uint64_t violations = 0;     ///< RAW squash events
    /** Addresses whose stores caused violations (diagnostics).
     *  Bounded: at most kMaxViolationAddrs distinct addresses are
     *  tracked; further new addresses bump violationAddrsDropped. */
    std::map<std::uint64_t, std::uint64_t> violationAddrs;
    std::uint64_t violationAddrsDropped = 0;
    std::uint64_t commits = 0;        ///< committed speculative threads
    std::uint64_t stlEntries = 0;
    std::uint64_t bufferOverflowStalls = 0;

    std::uint64_t watchdogFires = 0;  ///< forward-progress timeouts
    std::uint64_t governorAborts = 0; ///< STLs degraded to solo mode
    /** Violations whose detection was suppressed (fault injection). */
    std::uint64_t violationsSuppressed = 0;

    // --- dependence telemetry (observatory) ---
    /** Always empty: kept only because the pipeline ledger
     *  (perfbench/ledger.cc) still reads its sum. */
    SpanHist burstSpans;
    /** Write/read-set signature probes that hit and ran the exact
     *  forwarding or broadcast scan. */
    std::uint64_t sigHits = 0;
    /** Signature hits whose exact scan then found nothing (aliasing);
     *  pure fallback cost, never a correctness event. */
    std::uint64_t sigFalsePositives = 0;
    /** Speculative loads satisfied from a less-speculative buffer. */
    std::uint64_t forwardedLoads = 0;
    /** Iteration distance the forwarded value travelled. */
    SpanHist forwardDistance;
    /** Store-buffer line occupancy sampled at each speculative store. */
    SpanHist storeBufOccupancy;
    /** Squash events by cause (index = SquashCause). */
    std::array<std::uint64_t, kNumSquashCauses> squashCauses{};
    /** RAW-violated addresses by variable class (index = AddrClass). */
    std::array<std::uint64_t, kNumAddrClasses> violationsByClass{};

    static constexpr std::size_t kMaxViolationAddrs = 128;

    /** Count one violation against @p addr, respecting the cap. */
    void
    noteViolation(std::uint64_t addr)
    {
        ++violations;
        auto it = violationAddrs.find(addr);
        if (it != violationAddrs.end()) {
            ++it->second;
        } else if (violationAddrs.size() < kMaxViolationAddrs) {
            violationAddrs.emplace(addr, 1);
        } else {
            ++violationAddrsDropped;
        }
    }

    /** The @p n most violation-prone addresses, hottest first. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    topViolationAddrs(std::size_t n) const
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> v(
            violationAddrs.begin(), violationAddrs.end());
        std::sort(v.begin(), v.end(),
                  [](const auto &a, const auto &b) {
                      return a.second != b.second
                                 ? a.second > b.second
                                 : a.first < b.first;
                  });
        if (v.size() > n)
            v.resize(n);
        return v;
    }

    double
    total() const
    {
        return serial + runUsed + waitUsed + overhead + runViolated +
               waitViolated;
    }

    void
    reset()
    {
        *this = ExecStats();
    }
};

/** Runtime behaviour of one executed STL (Table 3 columns g-k). */
struct StlRuntimeStats
{
    std::uint64_t entries = 0;
    std::uint64_t commits = 0;
    std::uint64_t violations = 0;
    SampleStat threadCycles;     ///< committed thread sizes
    SampleStat loadLines;        ///< speculatively-read lines/thread
    SampleStat storeLines;       ///< store-buffer lines/thread
    std::uint64_t cyclesInside = 0; ///< wall cycles with this STL active

    std::uint64_t overflowStalls = 0; ///< buffer-overflow stalls here
    std::uint64_t soloEntries = 0;    ///< entries run head-only
    std::uint64_t governorAborts = 0; ///< governor trips on this loop

    // --- dependence telemetry (observatory), scoped to this loop ---
    std::uint64_t sigHits = 0;     ///< signature probes that hit
    std::uint64_t sigFalsePositives = 0; ///< hits with empty scans
    std::uint64_t forwardedLoads = 0;
    SpanHist forwardDistance;      ///< iteration distance of forwards
    SpanHist storeBufOccupancy;    ///< lines buffered at each store
    std::array<std::uint64_t, kNumSquashCauses> squashCauses{};
    std::array<std::uint64_t, kNumAddrClasses> violationsByClass{};

    /** Total squash events on this loop, all causes. */
    std::uint64_t
    totalSquashes() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t c : squashCauses)
            t += c;
        return t;
    }
};

/** Per-loop-id runtime stats for a whole program run. */
using StlStatsMap = std::map<std::int32_t, StlRuntimeStats>;

} // namespace jrpm

#endif // JRPM_CPU_STATS_HH
