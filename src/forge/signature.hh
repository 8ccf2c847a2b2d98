/**
 * @file
 * Behaviour signatures — the forge's coverage coordinate.
 *
 * A signature is a compact, deterministic digest of *what a scenario
 * made the TLS machine do*, derived purely from signals the campaign
 * already collects per case: the stress-axis mask, outcome bits,
 * squash-cause tallies, RAW address classes, governor events
 * (solo-mode entries, governor aborts), sync-lock / multilevel plan
 * outcomes, write/read-set signature probe hits (sigHits), and
 * crystal demotions.  Two scenarios with the same signature stressed
 * the machine the same way; a *novel* signature is the
 * coverage-guided campaign's reward signal.
 *
 * Counters enter the signature as coarse magnitude tiers
 * (none / some / many / lots — see sigBucket()), so the signature is
 * a behaviour class, not a fingerprint: "many RAW squashes on heap
 * addresses" rather than "exactly 1041".  Signature false positives,
 * cycles and wall time are deliberately EXCLUDED: they describe
 * probe aliasing and host cost, not what the simulated machine did.
 * tests/test_signature.cc pins both the inclusion and the exclusion
 * lists.
 *
 * signatureOf() is a pure function of the CaseResult wire fields, so
 * a fleet supervisor can recompute and cross-check the hash a worker
 * journaled, and the signature of a manifest record equals the
 * signature of the in-process run — determinism across `--jobs` and
 * worker counts falls out for free.
 */

#ifndef JRPM_FORGE_SIGNATURE_HH
#define JRPM_FORGE_SIGNATURE_HH

#include <array>
#include <cstdint>
#include <string>

#include "cpu/stats.hh"

namespace jrpm
{
namespace forge
{

struct CaseResult;

/** Behaviour class of one executed scenario (see file header). */
struct BehaviourSignature
{
    /** Stress axes the scenario's body exercises. */
    std::uint32_t axes = 0;
    /** Outcome bits: kOk | kDiverged | kSilent | kWatchdog |
     *  kForcedDiverged. */
    std::uint8_t outcome = 0;

    static constexpr std::uint8_t kOk = 1u << 0;
    static constexpr std::uint8_t kDiverged = 1u << 1;
    static constexpr std::uint8_t kSilent = 1u << 2;
    static constexpr std::uint8_t kWatchdog = 1u << 3;
    static constexpr std::uint8_t kForcedDiverged = 1u << 4;

    /** Magnitude tiers of squash events by cause. */
    std::array<std::uint8_t, kNumSquashCauses> squash{};
    /** Magnitude tiers of RAW violations by address class. */
    std::array<std::uint8_t, kNumAddrClasses> rawClass{};
    /** Governor events: aborts (blacklist) and solo-mode entries. */
    std::uint8_t governor = 0;
    std::uint8_t solo = 0;
    /** Sync-lock / multilevel plan outcomes (magnitude tiers). */
    std::uint8_t syncLockPlans = 0;
    std::uint8_t multilevelPlans = 0;
    /** Write/read-set signature probes that hit. */
    std::uint8_t sigHits = 0;
    /** The crystal entry was demoted after this run. */
    bool demoted = false;

    /** Canonical stable hash (FNV-1a over the fields in declaration
     *  order); THE identity used for novelty and distillation. */
    std::uint64_t hash() const;

    /** One-line human-readable rendering, for logs and tests. */
    std::string describe() const;

    bool
    operator==(const BehaviourSignature &o) const
    {
        return axes == o.axes && outcome == o.outcome &&
               squash == o.squash && rawClass == o.rawClass &&
               governor == o.governor && solo == o.solo &&
               syncLockPlans == o.syncLockPlans &&
               multilevelPlans == o.multilevelPlans &&
               sigHits == o.sigHits &&
               demoted == o.demoted;
    }
};

/** Magnitude tier of a counter: 0 → 0, 1..16 → 1, 17..256 → 2,
 *  >256 → 3; what turns raw tallies into behaviour classes. */
std::uint8_t sigBucket(std::uint64_t v);

/** Derive the signature of a completed (or failed) case.  Pure
 *  function of the CaseResult wire fields only. */
BehaviourSignature signatureOf(const CaseResult &cr);

} // namespace forge
} // namespace jrpm

#endif // JRPM_FORGE_SIGNATURE_HH
