#include "signature.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/logging.hh"
#include "forge/campaign.hh"

namespace jrpm
{
namespace forge
{

std::uint8_t
sigBucket(std::uint64_t v)
{
    // Four magnitude tiers: none / some / many / lots.  Finer
    // bucketing (e.g. log2) makes nearly every case a distinct
    // signature, which defeats both the guided campaign's novelty
    // reward and corpus distillation (a corpus as big as the
    // campaign covers nothing).
    if (v == 0)
        return 0;
    if (v <= 16)
        return 1;
    if (v <= 256)
        return 2;
    return 3;
}

BehaviourSignature
signatureOf(const CaseResult &cr)
{
    BehaviourSignature s;
    s.axes = cr.axes;
    if (cr.ok)
        s.outcome |= BehaviourSignature::kOk;
    if (cr.pipelineDiverged)
        s.outcome |= BehaviourSignature::kDiverged;
    if (cr.silent)
        s.outcome |= BehaviourSignature::kSilent;
    if (cr.watchdog)
        s.outcome |= BehaviourSignature::kWatchdog;
    if (cr.forcedDiverged > 0)
        s.outcome |= BehaviourSignature::kForcedDiverged;
    for (std::size_t c = 0; c < kNumSquashCauses; ++c)
        s.squash[c] = sigBucket(cr.squashCauses[c]);
    for (std::size_t c = 0; c < kNumAddrClasses; ++c)
        s.rawClass[c] = sigBucket(cr.violationsByClass[c]);
    s.governor = sigBucket(cr.governorAborts);
    s.solo = sigBucket(cr.soloEntries);
    s.syncLockPlans = sigBucket(cr.syncLockPlans);
    s.multilevelPlans = sigBucket(cr.multilevelPlans);
    s.sigHits = sigBucket(cr.sigHits);
    s.demoted = cr.demoted;
    return s;
}

std::uint64_t
BehaviourSignature::hash() const
{
    Fnv1a h;
    h.u32(axes).byte(outcome);
    for (std::uint8_t b : squash)
        h.byte(b);
    for (std::uint8_t b : rawClass)
        h.byte(b);
    h.byte(governor).byte(solo);
    h.byte(syncLockPlans).byte(multilevelPlans);
    h.byte(sigHits);
    h.byte(demoted ? 1 : 0);
    return h.value();
}

std::string
BehaviourSignature::describe() const
{
    std::string s = strfmt("axes=%s out=%02x", axesDescribe(axes).c_str(),
                           outcome);
    s += " squash=";
    for (std::size_t c = 0; c < kNumSquashCauses; ++c)
        s += strfmt(c ? ",%u" : "%u", squash[c]);
    s += " raw=";
    for (std::size_t c = 0; c < kNumAddrClasses; ++c)
        s += strfmt(c ? ",%u" : "%u", rawClass[c]);
    s += strfmt(" gov=%u solo=%u sync=%u multi=%u sig=%u%s", governor,
                solo, syncLockPlans, multilevelPlans, sigHits,
                demoted ? " demoted" : "");
    return s;
}

} // namespace forge
} // namespace jrpm
