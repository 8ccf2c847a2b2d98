#include "wire.hh"

#include <cinttypes>
#include <cstdlib>

#include "common/logging.hh"
#include "core/report_json.hh"
#include "forge/signature.hh"

namespace jrpm
{
namespace fleet
{

std::string
caseResultJson(const forge::CaseResult &cr)
{
    std::string j = "{";
    j += strfmt("\"seed\":\"%016llx\",\"axes\":%u,\"stmts\":%u,",
                static_cast<unsigned long long>(cr.seed), cr.axes,
                cr.stmts);
    j += strfmt("\"ok\":%s,\"error\":\"%s\",",
                cr.ok ? "true" : "false",
                jsonEscape(cr.error).c_str());
    j += strfmt("\"pipelineDiverged\":%s,\"forcedLoops\":%u,"
                "\"forcedDiverged\":%u,\"watchdog\":%s,"
                "\"silent\":%s,\"faultsInjected\":%u,"
                "\"detail\":\"%s\",",
                cr.pipelineDiverged ? "true" : "false",
                cr.forcedLoops, cr.forcedDiverged,
                cr.watchdog ? "true" : "false",
                cr.silent ? "true" : "false", cr.faultsInjected,
                jsonEscape(cr.detail).c_str());
    j += strfmt("\"speedup\":%.17g,\"seqCycles\":%" PRIu64
                ",\"tlsCycles\":%" PRIu64 ",\"violations\":%" PRIu64
                ",\"commits\":%" PRIu64 ",\"overflowStalls\":%" PRIu64
                ",\"sigHits\":%" PRIu64
                ",\"sigFalsePositives\":%" PRIu64
                ",\"forwardedLoads\":%" PRIu64
                ",\"wallMs\":%.17g,",
                cr.speedup, cr.seqCycles, cr.tlsCycles, cr.violations,
                cr.commits, cr.overflowStalls, cr.sigHits,
                cr.sigFalsePositives, cr.forwardedLoads, cr.wallMs);
    j += "\"squashCauses\":[";
    for (std::size_t c = 0; c < kNumSquashCauses; ++c)
        j += strfmt(c ? ",%" PRIu64 : "%" PRIu64, cr.squashCauses[c]);
    j += "],\"violationsByClass\":[";
    for (std::size_t c = 0; c < kNumAddrClasses; ++c)
        j += strfmt(c ? ",%" PRIu64 : "%" PRIu64,
                    cr.violationsByClass[c]);
    j += "],\"loopSquashes\":[";
    bool first = true;
    for (const auto &[loop_id, sq] : cr.loopSquashes) {
        if (!first)
            j += ',';
        first = false;
        j += strfmt("[%d,%" PRIu64 "]", loop_id, sq);
    }
    j += "],";
    j += strfmt("\"governorAborts\":%" PRIu64
                ",\"soloEntries\":%" PRIu64
                ",\"stlEntries\":%" PRIu64
                ",\"syncLockPlans\":%u,\"multilevelPlans\":%u,"
                "\"demoted\":%s,\"sigHash\":\"%016llx\"}",
                cr.governorAborts, cr.soloEntries, cr.stlEntries,
                cr.syncLockPlans, cr.multilevelPlans,
                cr.demoted ? "true" : "false",
                static_cast<unsigned long long>(cr.sigHash));
    return j;
}

namespace
{

std::uint64_t
u64Of(const JsonValue &v)
{
    return static_cast<std::uint64_t>(v.number());
}

} // namespace

bool
caseResultFromJson(const std::string &text, forge::CaseResult &out,
                   std::string *err)
{
    JsonValue v;
    if (!jsonParse(text, v, err))
        return false;
    auto fail = [&](const char *why) {
        if (err)
            *err = why;
        return false;
    };
    if (v.kind != JsonValue::Kind::Object)
        return fail("case record is not an object");
    if (v["seed"].kind != JsonValue::Kind::String)
        return fail("case record has no seed");

    forge::CaseResult cr;
    char *end = nullptr;
    cr.seed = std::strtoull(v["seed"].str.c_str(), &end, 16);
    if (end == v["seed"].str.c_str() || *end)
        return fail("unparseable seed");
    cr.axes = static_cast<std::uint32_t>(v["axes"].number());
    cr.stmts = static_cast<std::uint32_t>(v["stmts"].number());
    cr.ok = v["ok"].boolean();
    cr.error = v["error"].str;
    cr.pipelineDiverged = v["pipelineDiverged"].boolean();
    cr.forcedLoops =
        static_cast<std::uint32_t>(v["forcedLoops"].number());
    cr.forcedDiverged =
        static_cast<std::uint32_t>(v["forcedDiverged"].number());
    cr.watchdog = v["watchdog"].boolean();
    cr.silent = v["silent"].boolean();
    cr.faultsInjected =
        static_cast<std::uint32_t>(v["faultsInjected"].number());
    cr.detail = v["detail"].str;
    cr.speedup = v["speedup"].number();
    cr.seqCycles = u64Of(v["seqCycles"]);
    cr.tlsCycles = u64Of(v["tlsCycles"]);
    cr.violations = u64Of(v["violations"]);
    cr.commits = u64Of(v["commits"]);
    cr.overflowStalls = u64Of(v["overflowStalls"]);
    cr.sigHits = u64Of(v["sigHits"]);
    cr.sigFalsePositives = u64Of(v["sigFalsePositives"]);
    cr.forwardedLoads = u64Of(v["forwardedLoads"]);
    cr.wallMs = v["wallMs"].number();

    const JsonValue &sc = v["squashCauses"];
    if (sc.kind != JsonValue::Kind::Array ||
        sc.items.size() != kNumSquashCauses)
        return fail("bad squashCauses array");
    for (std::size_t c = 0; c < kNumSquashCauses; ++c)
        cr.squashCauses[c] = u64Of(sc.at(c));
    const JsonValue &vc = v["violationsByClass"];
    if (vc.kind != JsonValue::Kind::Array ||
        vc.items.size() != kNumAddrClasses)
        return fail("bad violationsByClass array");
    for (std::size_t c = 0; c < kNumAddrClasses; ++c)
        cr.violationsByClass[c] = u64Of(vc.at(c));
    const JsonValue &ls = v["loopSquashes"];
    if (ls.kind != JsonValue::Kind::Array)
        return fail("bad loopSquashes array");
    for (const JsonValue &pair : ls.items) {
        if (pair.kind != JsonValue::Kind::Array ||
            pair.items.size() != 2)
            return fail("bad loopSquashes pair");
        cr.loopSquashes.emplace_back(
            static_cast<std::int32_t>(pair.at(0).number()),
            u64Of(pair.at(1)));
    }

    cr.governorAborts = u64Of(v["governorAborts"]);
    cr.soloEntries = u64Of(v["soloEntries"]);
    cr.stlEntries = u64Of(v["stlEntries"]);
    cr.syncLockPlans =
        static_cast<std::uint32_t>(v["syncLockPlans"].number());
    cr.multilevelPlans =
        static_cast<std::uint32_t>(v["multilevelPlans"].number());
    cr.demoted = v["demoted"].boolean();
    if (v["sigHash"].kind == JsonValue::Kind::String) {
        end = nullptr;
        cr.sigHash =
            std::strtoull(v["sigHash"].str.c_str(), &end, 16);
        if (end == v["sigHash"].str.c_str() || *end)
            return fail("unparseable sigHash");
    } else {
        // Record from a pre-signature worker: the signature is a
        // pure function of the wire fields, so recompute it.
        cr.sigHash = forge::signatureOf(cr).hash();
    }

    out = std::move(cr);
    return true;
}

} // namespace fleet
} // namespace jrpm
