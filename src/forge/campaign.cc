#include "campaign.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>

#include <map>
#include <unordered_set>

#include "common/hostprof.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "core/oracle.hh"
#include "driver/driver.hh"
#include "forge/corpus.hh"
#include "forge/signature.hh"
#include "forge/weights.hh"
#include "vm/runtime.hh"

namespace jrpm
{
namespace forge
{

namespace
{

/** Forced-speculation sweep: every loop the JIT accepts, one at a
 *  time, against the pipeline's sequential golden run. */
void
forcedSweep(JrpmSystem &sys, const Workload &w, const JrpmConfig &base,
            const JrpmReport &rep, CaseResult &cr)
{
    JRPM_HPROF(ForcedSweep);
    const auto skip =
        VmRuntime::scratchRegions(base.vm, base.sys.numCpus);
    const RunDigest golden = rep.seqMain.digest();
    for (const auto &li : sys.jit().loopInfos()) {
        SelectedStl sel;
        sel.loopId = li.loopId;
        const RunOutcome tls = sys.runTls(w.mainArgs, {sel});
        ++cr.forcedLoops;
        OracleReport orep;
        {
            JRPM_HPROF(OracleCheck);
            orep = Oracle::compare(base.oracle, golden, tls.digest(),
                                   skip);
        }
        if (!orep.match()) {
            ++cr.forcedDiverged;
            if (cr.detail.empty())
                cr.detail = strfmt("forced loop %d: %s", li.loopId,
                                   orep.summary().c_str());
        }
    }
}

CaseResult
runCaseImpl(const ScenarioSpec &spec, const JrpmConfig &base,
            bool forced_sweep, JrpmReport *rep_out)
{
    CaseResult cr;
    cr.seed = spec.seed;
    cr.axes = spec.axes();
    cr.stmts = static_cast<std::uint32_t>(spec.body.size());

    const Workload w = scenarioWorkload(spec);
    JrpmSystem sys(w, base);
    JrpmReport rep = sys.run();

    cr.ok = true;
    cr.watchdog = rep.tls.watchdogFired;
    cr.faultsInjected = rep.tls.faultsInjected;
    cr.pipelineDiverged = rep.oracle.compared
                              ? !rep.oracle.match()
                              : !rep.outputsMatch;
    if (cr.pipelineDiverged)
        cr.detail = rep.oracle.compared ? rep.oracle.summary()
                                        : "outputs differ";

    // Telemetry capsule: what the TLS run did, for campaign-level
    // aggregation (percentiles, squash-cause tables, top loops).
    cr.speedup = rep.actualSpeedup;
    cr.seqCycles = rep.seqMain.cycles;
    cr.tlsCycles = rep.tls.cycles;
    const ExecStats &st = rep.tls.stats;
    cr.violations = st.violations;
    cr.commits = st.commits;
    cr.overflowStalls = st.bufferOverflowStalls;
    cr.sigHits = st.sigHits;
    cr.sigFalsePositives = st.sigFalsePositives;
    cr.forwardedLoads = st.forwardedLoads;
    cr.squashCauses = st.squashCauses;
    cr.violationsByClass = st.violationsByClass;
    cr.governorAborts = st.governorAborts;
    cr.stlEntries = st.stlEntries;
    for (const auto &[loop_id, ls] : rep.tls.stl) {
        if (const std::uint64_t sq = ls.totalSquashes())
            cr.loopSquashes.emplace_back(loop_id, sq);
        cr.soloEntries += ls.soloEntries;
    }
    for (const SelectedStl &sel : rep.selections) {
        if (sel.plan.syncLock)
            ++cr.syncLockPlans;
        if (sel.plan.multilevel)
            ++cr.multilevelPlans;
    }
    cr.demoted = rep.demoted;

    const bool resultDiffers =
        rep.tls.halted != rep.seqMain.halted ||
        rep.tls.uncaught != rep.seqMain.uncaught ||
        rep.tls.exitValue != rep.seqMain.exitValue ||
        rep.tls.vm.output != rep.seqMain.vm.output;
    cr.silent = resultDiffers && rep.oracle.compared &&
                rep.oracle.match() && !cr.watchdog;

    if (forced_sweep && base.oracle.mode != OracleMode::Off &&
        rep.seqMain.halted) {
        forcedSweep(sys, w, base, rep, cr);
        // The sweep's own scope closed after run() flushed and
        // published the profiler; flush it before this worker thread
        // can exit, and republish so --metrics-out counts it.
        if (hostprof::enabled()) {
            hostprof::flushThread();
            hostprof::publish(MetricsRegistry::global());
        }
    }

    // The behaviour signature digests the fields above (and only
    // them), so it must be stamped after the forced sweep settles
    // the outcome bits.
    cr.sigHash = signatureOf(cr).hash();

    if (rep_out)
        *rep_out = std::move(rep);
    return cr;
}

} // namespace

bool
CaseResult::failing(bool faults_active) const
{
    if (!ok)
        return true;
    if (faults_active)
        return silent;
    return pipelineDiverged || forcedDiverged > 0;
}

CaseResult
runCase(const ScenarioSpec &spec, const JrpmConfig &base,
        bool forced_sweep)
{
    return runCaseImpl(spec, base, forced_sweep, nullptr);
}

CaseResult
runCase(const ScenarioSpec &spec, const JrpmConfig &base,
        bool forced_sweep, JrpmReport *rep_out)
{
    return runCaseImpl(spec, base, forced_sweep, rep_out);
}

namespace
{

/**
 * First semantic difference between the default and the referenceStep
 * pipeline reports of one scenario ("" when equivalent).  Every run of
 * the pipeline -- the sequential golden, the sequential run on the
 * profile input, the TEST-profiled run and the TLS run -- must match
 * bit-for-bit in everything observable about the simulated machine:
 * results, cycle/instruction counts, every ExecStats field (Fig. 10
 * buckets with their double accounting, violations and their address
 * map, signature probes, forwarding and occupancy histograms, squash
 * causes), cache counters and the oracle's memory checksum.  Only
 * RunOutcome::steps, the dispatch shape, may differ.
 */
std::string
semanticDiff(const JrpmReport &fast, const JrpmReport &ref)
{
    std::string d;
    auto u64 = [&](const std::string &what, std::uint64_t a,
                   std::uint64_t b) {
        if (d.empty() && a != b)
            d = strfmt("%s: fast %" PRIu64 " ref %" PRIu64,
                       what.c_str(), a, b);
    };
    auto num = [&](const std::string &what, double a, double b) {
        if (d.empty() && a != b)
            d = strfmt("%s: fast %.17g ref %.17g", what.c_str(), a, b);
    };
    auto hist = [&](const std::string &what, const SpanHist &a,
                    const SpanHist &b) {
        u64(what + ".count", a.count, b.count);
        u64(what + ".sum", a.sum, b.sum);
        u64(what + ".max", a.max, b.max);
        if (d.empty() && a.log2Buckets != b.log2Buckets)
            d = what + ".log2Buckets differ";
    };
    auto run = [&](const std::string &p, const RunOutcome &a,
                   const RunOutcome &b) {
        u64(p + ".halted", a.halted, b.halted);
        u64(p + ".uncaught", a.uncaught, b.uncaught);
        u64(p + ".exitValue", a.exitValue, b.exitValue);
        u64(p + ".cycles", a.cycles, b.cycles);
        u64(p + ".insts", a.insts, b.insts);
        u64(p + ".memChecksum", a.memChecksum, b.memChecksum);
        if (d.empty() && a.vm.output != b.vm.output)
            d = p + ".vm.output differs";
        u64(p + ".l1Hits", a.l1Hits, b.l1Hits);
        u64(p + ".l1Misses", a.l1Misses, b.l1Misses);
        u64(p + ".l2Hits", a.l2Hits, b.l2Hits);
        u64(p + ".l2Misses", a.l2Misses, b.l2Misses);

        const ExecStats &sa = a.stats;
        const ExecStats &sb = b.stats;
        const std::string s = p + ".stats.";
        num(s + "serial", sa.serial, sb.serial);
        num(s + "runUsed", sa.runUsed, sb.runUsed);
        num(s + "waitUsed", sa.waitUsed, sb.waitUsed);
        num(s + "overhead", sa.overhead, sb.overhead);
        num(s + "runViolated", sa.runViolated, sb.runViolated);
        num(s + "waitViolated", sa.waitViolated, sb.waitViolated);
        u64(s + "violations", sa.violations, sb.violations);
        if (d.empty() && sa.violationAddrs != sb.violationAddrs)
            d = s + "violationAddrs differ";
        u64(s + "violationAddrsDropped", sa.violationAddrsDropped,
            sb.violationAddrsDropped);
        u64(s + "commits", sa.commits, sb.commits);
        u64(s + "stlEntries", sa.stlEntries, sb.stlEntries);
        u64(s + "bufferOverflowStalls", sa.bufferOverflowStalls,
            sb.bufferOverflowStalls);
        u64(s + "watchdogFires", sa.watchdogFires, sb.watchdogFires);
        u64(s + "governorAborts", sa.governorAborts,
            sb.governorAborts);
        u64(s + "violationsSuppressed", sa.violationsSuppressed,
            sb.violationsSuppressed);
        u64(s + "sigHits", sa.sigHits, sb.sigHits);
        u64(s + "sigFalsePositives", sa.sigFalsePositives,
            sb.sigFalsePositives);
        u64(s + "forwardedLoads", sa.forwardedLoads, sb.forwardedLoads);
        hist(s + "forwardDistance", sa.forwardDistance,
             sb.forwardDistance);
        hist(s + "storeBufOccupancy", sa.storeBufOccupancy,
             sb.storeBufOccupancy);
        for (std::size_t c = 0; c < kNumSquashCauses; ++c)
            u64(s + "squashCauses[" + squashCauseName(c) + "]",
                sa.squashCauses[c], sb.squashCauses[c]);
        for (std::size_t c = 0; c < kNumAddrClasses; ++c)
            u64(s + "violationsByClass[" + addrClassName(c) + "]",
                sa.violationsByClass[c], sb.violationsByClass[c]);
    };
    run("seqMain", fast.seqMain, ref.seqMain);
    run("seqProfileIn", fast.seqProfileIn, ref.seqProfileIn);
    run("profiled", fast.profiled, ref.profiled);
    run("tls", fast.tls, ref.tls);
    return d;
}

/** Cycles of @p rep's runs that skipped step() (batched). */
std::uint64_t
batchedCycles(const JrpmReport &rep)
{
    std::uint64_t n = 0;
    for (const RunOutcome *o :
         {&rep.seqMain, &rep.seqProfileIn, &rep.profiled, &rep.tls})
        n += o->cycles - o->steps;
    return n;
}

} // namespace

DifferentialResult
runFastPathDifferential(const CampaignConfig &cfg)
{
    DifferentialResult res;
    res.cases = cfg.cases;

    JrpmConfig fastCfg = cfg.base;
    fastCfg.sys.referenceStep = false;
    JrpmConfig refCfg = cfg.base;
    refCfg.sys.referenceStep = true;

    for (std::uint32_t i = 0; i < cfg.cases; ++i) {
        const ScenarioSpec spec = generate(cfg.seed + i, cfg.axes);
        JrpmReport rfast, rref;
        const CaseResult cfast =
            runCaseImpl(spec, fastCfg, cfg.forcedSweep, &rfast);
        const CaseResult cref =
            runCaseImpl(spec, refCfg, cfg.forcedSweep, &rref);

        res.fastBatched += batchedCycles(rfast);
        res.refBatched += batchedCycles(rref);

        std::string d;
        if (!cfast.ok || !cref.ok)
            d = strfmt("pipeline error (fast: %s; ref: %s)",
                       cfast.ok ? "ok" : cfast.error.c_str(),
                       cref.ok ? "ok" : cref.error.c_str());
        else if (cfast.pipelineDiverged != cref.pipelineDiverged)
            d = strfmt("pipelineDiverged: fast %d ref %d",
                       cfast.pipelineDiverged, cref.pipelineDiverged);
        else if (cfast.forcedLoops != cref.forcedLoops ||
                 cfast.forcedDiverged != cref.forcedDiverged)
            d = strfmt("forced sweep: fast %u/%u diverged, "
                       "ref %u/%u diverged",
                       cfast.forcedDiverged, cfast.forcedLoops,
                       cref.forcedDiverged, cref.forcedLoops);
        else
            d = semanticDiff(rfast, rref);
        if (!d.empty())
            res.mismatches.push_back({spec.seed, d});
    }

    auto &reg = MetricsRegistry::global();
    reg.counter("forge.diff_cases").inc(res.cases);
    reg.counter("forge.diff_mismatches").inc(res.mismatches.size());
    return res;
}

std::string
DifferentialResult::summary() const
{
    std::string s = strfmt(
        "fast-path differential: %u cases, %zu mismatching\n"
        "batched cycles: fast %" PRIu64 ", reference %" PRIu64 "\n",
        cases, mismatches.size(), fastBatched, refBatched);
    for (const DifferentialMismatch &m : mismatches)
        s += strfmt("  MISMATCH seed 0x%016llx: %s\n",
                    static_cast<unsigned long long>(m.seed),
                    m.detail.c_str());
    return s;
}

void
tallyCase(CampaignResult &res, const CaseResult &cr,
          bool faults_active)
{
    for (std::uint32_t a = 0; a < kNumAxes; ++a)
        if (cr.axes & (1u << a))
            ++res.axisScenarios[a];
    if (!cr.ok)
        ++res.pipelineErrors;
    if (cr.pipelineDiverged || cr.forcedDiverged)
        ++res.divergences;
    if (faults_active && (cr.pipelineDiverged || cr.forcedDiverged))
        ++res.oracleDetected;
    if (cr.watchdog)
        ++res.watchdogs;
    res.forcedRuns += cr.forcedLoops;
}

CampaignFailure
processFailure(const CampaignConfig &cfg, const ScenarioSpec &spec,
               const CaseResult &cr, bool faults_active)
{
    CampaignFailure f;
    f.result = cr;
    f.original = spec;
    f.shrunk = spec;
    if (cfg.shrinkFailures && cr.ok) {
        ShrinkOptions so;
        so.maxProbes = cfg.shrinkProbes;
        const ShrinkResult sr = shrinkScenario(
            spec,
            [&](const ScenarioSpec &cand) {
                return runCase(cand, cfg.base, cfg.forcedSweep)
                    .failing(faults_active);
            },
            so);
        f.shrunk = sr.spec;
        f.shrinkProbes = sr.probes;
    }
    if (!cfg.corpusOut.empty()) {
        CorpusEntry e = makeCorpusEntry(f.shrunk);
        f.corpusPath = writeCorpusEntry(cfg.corpusOut, e);
    }
    return f;
}

namespace
{

/**
 * Fan `count` scenarios (slots [first, first+count)) out over the
 * batch driver, filling the matching result slots.  Each job's
 * custom runner fills its own slot; results (and therefore the
 * whole campaign verdict) are independent of the worker count.
 * Shared by the flat campaign and the guided batch loop.
 */
void
runBatch(const CampaignConfig &cfg,
         const std::vector<ScenarioSpec> &specs, std::size_t first,
         std::size_t count, std::vector<CaseResult> &out)
{
    std::vector<DriverJob> jobs(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t slot = first + i;
        jobs[i].workload.name = strfmt(
            "forge-seed-%016llx",
            static_cast<unsigned long long>(specs[slot].seed));
        jobs[i].custom = [&cfg, &specs, &out, slot]() {
            JrpmReport rep;
            out[slot] = runCaseImpl(specs[slot], cfg.base,
                                    cfg.forcedSweep, &rep);
            return rep;
        };
    }
    DriverConfig dc;
    dc.jobs = cfg.jobs;
    BatchDriver driver(dc);
    const std::vector<DriverResult> dres =
        driver.run(std::move(jobs));

    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t slot = first + i;
        CaseResult &cr = out[slot];
        cr.wallMs = dres[i].wallMs;
        if (!dres[i].ok) {
            // The pipeline (or sweep) threw: record it as a failed
            // case even though the slot was never filled.
            cr.seed = specs[slot].seed;
            cr.axes = specs[slot].axes();
            cr.stmts =
                static_cast<std::uint32_t>(specs[slot].body.size());
            cr.ok = false;
            cr.error = dres[i].error;
            cr.sigHash = signatureOf(cr).hash();
        }
    }
}

} // namespace

CampaignResult
runCampaign(const CampaignConfig &cfg)
{
    const bool faultsActive = !cfg.base.faultPlan.empty();

    CampaignResult res;
    res.cases = cfg.cases;
    res.results.resize(cfg.cases);
    res.specs.reserve(cfg.cases);

    if (!cfg.guided) {
        for (std::uint32_t i = 0; i < cfg.cases; ++i)
            res.specs.push_back(generate(cfg.seed + i, cfg.axes));
        runBatch(cfg, res.specs, 0, cfg.cases, res.results);
    } else {
        // Coverage-guided: batch-synchronous loop.  Every scenario
        // in a batch derives under the bank state entering the
        // batch; the bank updates exactly once per batch, in seed
        // order, from signature novelty.  The barrier makes the
        // weight trajectory — and hence every scenario — identical
        // for any `jobs` value.
        WeightBank bank;
        std::unordered_set<std::uint64_t> seen;
        const std::uint32_t batch = std::max(cfg.guidedBatch, 1u);
        for (std::uint32_t done = 0; done < cfg.cases;) {
            const std::uint32_t n =
                std::min(batch, cfg.cases - done);
            for (std::uint32_t i = 0; i < n; ++i)
                res.specs.push_back(generateWeighted(
                    cfg.seed + done + i, cfg.axes, bank));
            runBatch(cfg, res.specs, done, n, res.results);
            std::vector<std::pair<std::uint32_t, std::uint64_t>> obs;
            obs.reserve(n);
            for (std::uint32_t i = 0; i < n; ++i)
                obs.emplace_back(kindsOf(res.specs[done + i]),
                                 res.results[done + i].sigHash);
            applyBatch(bank, seen, obs);
            done += n;
        }
        res.weightBank = bank.serialize();
    }

    std::unordered_set<std::uint64_t> sigs;
    for (const CaseResult &cr : res.results)
        sigs.insert(cr.sigHash);
    res.distinctSignatures = static_cast<std::uint32_t>(sigs.size());

    for (std::uint32_t i = 0; i < cfg.cases; ++i) {
        CaseResult &cr = res.results[i];
        tallyCase(res, cr, faultsActive);

        if (!cr.failing(faultsActive))
            continue;
        ++res.failures;
        res.failing.push_back(
            processFailure(cfg, res.specs[i], cr, faultsActive));
    }

    auto &reg = MetricsRegistry::global();
    reg.counter("forge.cases").inc(res.cases);
    reg.counter("forge.failures").inc(res.failures);
    reg.counter("forge.divergences").inc(res.divergences);
    reg.counter("forge.forced_runs").inc(res.forcedRuns);
    reg.counter("forge.signatures").inc(res.distinctSignatures);
    return res;
}

DistillResult
distillCampaign(const CampaignConfig &cfg, const CampaignResult &res,
                const DistillConfig &dcfg)
{
    const bool faultsActive = !cfg.base.faultPlan.empty();
    DistillResult out;

    // Greedy set cover over the observed signatures.  Each case
    // covers exactly its own signature, so the minimal cover is one
    // representative per distinct signature; pick the cheapest —
    // fewest statements, then lowest seed.  Only clean cases are
    // eligible: failing ones already land in the failure corpus,
    // and a regression corpus must replay green.
    std::map<std::uint64_t, std::size_t> rep;
    for (std::size_t i = 0; i < res.results.size(); ++i) {
        const CaseResult &cr = res.results[i];
        if (!cr.ok || cr.failing(faultsActive))
            continue;
        auto [it, fresh] = rep.emplace(cr.sigHash, i);
        if (fresh)
            continue;
        const ScenarioSpec &cur = res.specs[it->second];
        const ScenarioSpec &cand = res.specs[i];
        if (cand.body.size() < cur.body.size() ||
            (cand.body.size() == cur.body.size() &&
             cand.seed < cur.seed))
            it->second = i;
    }
    out.observedSignatures = static_cast<std::uint32_t>(rep.size());

    // ddmin each representative as far as it keeps producing its
    // signature (iterating the std::map keeps signature order — and
    // therefore the whole distilled corpus — deterministic).
    for (const auto &[sig, idx] : rep) {
        ShrinkOptions so;
        so.maxProbes = dcfg.shrinkProbes;
        const ShrinkResult sr = shrinkScenario(
            res.specs[idx],
            [&](const ScenarioSpec &cand) {
                return runCase(cand, cfg.base, cfg.forcedSweep)
                           .sigHash == sig;
            },
            so);
        out.shrinkProbes += sr.probes;
        out.corpus.push_back(sr.spec);
        if (!dcfg.outDir.empty())
            out.paths.push_back(writeCorpusEntry(
                dcfg.outDir, makeCorpusEntry(sr.spec)));
    }
    out.entries = static_cast<std::uint32_t>(out.corpus.size());

    auto &reg = MetricsRegistry::global();
    reg.counter("forge.distilled_entries").inc(out.entries);
    reg.counter("forge.distill_probes").inc(out.shrinkProbes);
    return out;
}

namespace
{

std::string
pctJson(const PercentileSummary &s)
{
    return strfmt("{\"n\":%" PRIu64 ",\"min\":%.17g,\"p50\":%.17g,"
                  "\"p90\":%.17g,\"p99\":%.17g,\"p999\":%.17g,"
                  "\"max\":%.17g,\"mean\":%.17g}",
                  s.n, s.min, s.p50, s.p90, s.p99, s.p999, s.max,
                  s.mean);
}

/** Percentiles of @p pick over the completed cases in @p results
 *  (optionally only those touching axis bit @p axis_bit). */
std::string
casePctJson(const std::vector<CaseResult> &results,
            const std::function<double(const CaseResult &)> &pick,
            std::uint32_t axis_bit = 0)
{
    std::vector<double> xs;
    xs.reserve(results.size());
    for (const CaseResult &cr : results)
        if (cr.ok && (!axis_bit || (cr.axes & axis_bit)))
            xs.push_back(pick(cr));
    return pctJson(summarizePercentiles(std::move(xs)));
}

} // namespace

std::string
campaignAnalyticsJson(const CampaignConfig &cfg,
                      const CampaignResult &res)
{
    std::string j = "{";
    j += "\"schema\":\"jrpm-campaign-analytics-v1\",";
    j += strfmt("\"seed\":\"%016llx\",\"axes\":%u,",
                static_cast<unsigned long long>(cfg.seed),
                cfg.axes);
    j += strfmt("\"cases\":%u,\"failures\":%u,\"pipelineErrors\":%u,"
                "\"divergences\":%u,\"oracleDetected\":%u,"
                "\"watchdogs\":%u,\"forcedRuns\":%" PRIu64
                ",\"distinctSignatures\":%u,",
                res.cases, res.failures, res.pipelineErrors,
                res.divergences, res.oracleDetected, res.watchdogs,
                res.forcedRuns, res.distinctSignatures);

    // Per-metric percentiles over every completed case.
    struct Metric
    {
        const char *name;
        double (*pick)(const CaseResult &);
    };
    static const Metric kMetrics[] = {
        {"speedup", [](const CaseResult &c) { return c.speedup; }},
        {"seqCycles",
         [](const CaseResult &c) {
             return static_cast<double>(c.seqCycles);
         }},
        {"tlsCycles",
         [](const CaseResult &c) {
             return static_cast<double>(c.tlsCycles);
         }},
        {"violations",
         [](const CaseResult &c) {
             return static_cast<double>(c.violations);
         }},
        {"commits",
         [](const CaseResult &c) {
             return static_cast<double>(c.commits);
         }},
        {"overflowStalls",
         [](const CaseResult &c) {
             return static_cast<double>(c.overflowStalls);
         }},
        {"sigHits",
         [](const CaseResult &c) {
             return static_cast<double>(c.sigHits);
         }},
        {"sigFalsePositives",
         [](const CaseResult &c) {
             return static_cast<double>(c.sigFalsePositives);
         }},
        {"forwardedLoads",
         [](const CaseResult &c) {
             return static_cast<double>(c.forwardedLoads);
         }},
        {"wallMs", [](const CaseResult &c) { return c.wallMs; }},
    };
    j += "\"metrics\":{";
    bool first = true;
    for (const Metric &m : kMetrics) {
        if (!first)
            j += ',';
        first = false;
        j += strfmt("\"%s\":%s", m.name,
                    casePctJson(res.results, m.pick).c_str());
    }
    j += "},";

    // Per-axis breakdown: how scenarios touching each stress axis
    // behave (axis sets overlap; a scenario counts on every axis it
    // exercises).
    j += "\"perAxis\":{";
    first = true;
    for (std::uint32_t a = 0; a < kNumAxes; ++a) {
        const std::uint32_t bit = 1u << a;
        if (!first)
            j += ',';
        first = false;
        j += strfmt(
            "\"%s\":{\"cases\":%u,\"speedup\":%s,\"violations\":%s}",
            axisName(static_cast<StressAxis>(bit)),
            res.axisScenarios[a],
            casePctJson(
                res.results,
                [](const CaseResult &c) { return c.speedup; }, bit)
                .c_str(),
            casePctJson(
                res.results,
                [](const CaseResult &c) {
                    return static_cast<double>(c.violations);
                },
                bit)
                .c_str());
    }
    j += "},";

    // Aggregate squash-cause and variable-class tallies.
    std::array<std::uint64_t, kNumSquashCauses> causes{};
    std::array<std::uint64_t, kNumAddrClasses> classes{};
    for (const CaseResult &cr : res.results) {
        for (std::size_t c = 0; c < kNumSquashCauses; ++c)
            causes[c] += cr.squashCauses[c];
        for (std::size_t c = 0; c < kNumAddrClasses; ++c)
            classes[c] += cr.violationsByClass[c];
    }
    j += "\"squashCauses\":{";
    first = true;
    for (std::size_t c = 0; c < kNumSquashCauses; ++c) {
        if (!first)
            j += ',';
        first = false;
        j += strfmt("\"%s\":%" PRIu64, squashCauseName(c),
                    causes[c]);
    }
    j += "},\"violationsByClass\":{";
    first = true;
    for (std::size_t c = 0; c < kNumAddrClasses; ++c) {
        if (!first)
            j += ',';
        first = false;
        j += strfmt("\"%s\":%" PRIu64, addrClassName(c), classes[c]);
    }
    j += "},";

    // Top squash-cause loops across the whole campaign: which
    // (scenario, loop) pairs burned the most speculative work.
    struct LoopSquash
    {
        std::uint64_t seed;
        std::int32_t loopId;
        std::uint64_t squashes;
    };
    std::vector<LoopSquash> top;
    for (const CaseResult &cr : res.results)
        for (const auto &[loop_id, sq] : cr.loopSquashes)
            top.push_back({cr.seed, loop_id, sq});
    std::sort(top.begin(), top.end(),
              [](const LoopSquash &a, const LoopSquash &b) {
                  if (a.squashes != b.squashes)
                      return a.squashes > b.squashes;
                  if (a.seed != b.seed)
                      return a.seed < b.seed;
                  return a.loopId < b.loopId;
              });
    if (top.size() > 20)
        top.resize(20);
    j += "\"topSquashLoops\":[";
    first = true;
    for (const LoopSquash &ls : top) {
        if (!first)
            j += ',';
        first = false;
        j += strfmt("{\"seed\":\"%016llx\",\"loopId\":%d,"
                    "\"squashes\":%" PRIu64 "}",
                    static_cast<unsigned long long>(ls.seed),
                    ls.loopId, ls.squashes);
    }
    j += "],";

    // Crash-isolation tallies from the fleet orchestrator (absent
    // for in-process campaigns, so old readers see no change).
    if (res.fleet.active) {
        const FleetTallies &ft = res.fleet;
        j += strfmt("\"fleet\":{\"resumed\":%s,\"workerDeaths\":%u,"
                    "\"crashes\":%u,\"timeouts\":%u,\"retries\":%u,"
                    "\"quarantined\":%u,\"reshards\":%u,"
                    "\"tornRecords\":%u},",
                    ft.resumed ? "true" : "false", ft.workerDeaths,
                    ft.crashes, ft.timeouts, ft.retries,
                    ft.quarantined, ft.reshards, ft.tornRecords);
    }

    // Host-cycle attribution of the campaign process (empty array
    // when the profiler is off or compiled out).
    if (hostprof::enabled())
        hostprof::flushThread();
    j += strfmt("\"hostprof\":%s}", hostprof::reportJson().c_str());
    return j;
}

bool
writeCampaignAnalytics(const std::string &path,
                       const CampaignConfig &cfg,
                       const CampaignResult &res)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot open analytics output '%s'", path.c_str());
        return false;
    }
    const std::string j = campaignAnalyticsJson(cfg, res);
    const bool ok =
        std::fwrite(j.data(), 1, j.size(), f) == j.size() &&
        std::fwrite("\n", 1, 1, f) == 1;
    std::fclose(f);
    return ok;
}

std::string
CampaignResult::summary() const
{
    std::string s = strfmt(
        "%u cases: %u failing, %u pipeline errors, %u divergent "
        "(%u oracle-detected), %u watchdog, %" PRIu64
        " forced decompositions\n",
        cases, failures, pipelineErrors, divergences, oracleDetected,
        watchdogs, forcedRuns);
    s += "axis coverage:";
    for (std::uint32_t a = 0; a < kNumAxes; ++a)
        s += strfmt(" %s=%u",
                    axisName(static_cast<StressAxis>(1u << a)),
                    axisScenarios[a]);
    s += strfmt("\nsignatures: %u distinct%s\n", distinctSignatures,
                weightBank.empty() ? "" : " (guided)");
    if (fleet.active)
        s += strfmt("fleet: %u worker deaths (%u crash, %u timeout), "
                    "%u retries, %u quarantined, %u reshards%s\n",
                    fleet.workerDeaths, fleet.crashes, fleet.timeouts,
                    fleet.retries, fleet.quarantined, fleet.reshards,
                    fleet.resumed ? ", resumed from manifest" : "");
    for (const CampaignFailure &f : failing) {
        s += strfmt("  FAIL seed 0x%016llx (%s): %s\n",
                    static_cast<unsigned long long>(f.result.seed),
                    axesDescribe(f.result.axes).c_str(),
                    f.result.ok ? f.result.detail.c_str()
                                : f.result.error.c_str());
        if (!f.corpusPath.empty())
            s += strfmt("       repro (%zu stmts): %s\n",
                        f.shrunk.body.size(), f.corpusPath.c_str());
    }
    return s;
}

} // namespace forge
} // namespace jrpm
