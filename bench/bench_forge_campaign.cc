/**
 * @file
 * Forge campaign harness (ISSUE 5 acceptance experiment) — four
 * modes, all deterministic:
 *
 *  default       run a --cases campaign of generated scenarios
 *                through sequential/profiled/TLS plus a forced
 *                per-loop speculation sweep under --oracle (strict
 *                by default), optionally composed with --fault-plan;
 *                failing cases are shrunk and written to
 *                --corpus-out.  Exit 1 on any failing case.
 *                --guided turns on coverage-guided generation
 *                (behaviour-signature novelty feedback, weights.hh);
 *                --distill=<dir> reduces the observed campaign to a
 *                minimal corpus covering every behaviour signature.
 *
 *  --replay=<dir>      replay every corpus entry: reject version /
 *                      checksum mismatches, verify the rendered
 *                      program hash and the stored sequential exit
 *                      checksum, then force-speculate every loop
 *                      under the strict oracle.
 *
 *  --shrink-demo       end-to-end shrinker validation: inject a
 *                      CorruptCommit fault into the TLS run of a
 *                      generated scenario (a deliberate divergence
 *                      the strict oracle must flag), shrink the
 *                      scenario to <= 8 loop-body statements, write
 *                      the repro corpus file, and re-verify the
 *                      divergence by replaying from that file.
 *
 *  --emit-starter=<dir>  write the hand-minimized starter corpus
 *                        (one scenario per stress axis + one mixed).
 *
 *  --diff-fastpath     fast-path equivalence campaign: run every
 *                      scenario through the pipeline twice (default
 *                      dispatch and sys.referenceStep, every cycle
 *                      through Machine::step()) and require
 *                      semantically identical outcomes for all four
 *                      runs of the pipeline — cycles, every ExecStats
 *                      field, VM output, and the oracle's memory
 *                      checksum.  Exit 1 on any mismatch.
 *
 *  --fleet             run the campaign as a crash-isolated fleet:
 *                      shard the seed range over --jobs worker
 *                      subprocesses supervised with per-case
 *                      --case-timeout-ms deadlines, journal progress
 *                      into --manifest (resumable after SIGKILL),
 *                      quarantine cases that kill a worker twice and
 *                      shrink them out of process.  --chaos-kill-ms
 *                      turns on the self-test worker killer.
 *
 *  Internal modes the fleet supervisor uses (not for humans):
 *  --worker-range=<lo>:<hi>:<attempt>   run seeds [lo,hi) (hex) and
 *                      stream results over stdout (fleet/wire.hh)
 *  --worker-replay=<file>   replay one corpus entry; exit 0 clean,
 *                      2 failing, 3 unreadable — crashing is the
 *                      expected outcome for poison candidates
 *
 *  The JRPM_FLEET_ABORT_SEED env var (hex seed) makes worker modes
 *  abort() on that scenario — the poison-case test hook.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include <unistd.h>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/obs.hh"
#include "fleet/fleet.hh"
#include "fleet/wire.hh"
#include "forge/campaign.hh"
#include "forge/corpus.hh"
#include "forge/forge.hh"
#include "forge/shrink.hh"
#include "forge/signature.hh"
#include "forge/weights.hh"

namespace jrpm
{
namespace bench
{
namespace
{

using forge::CorpusEntry;
using forge::ScenarioSpec;

/** The common bench flags plus this harness's own. */
struct CampaignOptions : Options
{
    std::string axes;        ///< --axes=<list|all>
    std::string corpusOut;   ///< --corpus-out=<dir>
    std::string replayDir;   ///< --replay=<dir>
    std::string emitStarter; ///< --emit-starter=<dir>
    bool shrinkDemo = false; ///< --shrink-demo
    std::string analyticsOut;    ///< --analytics-out=<path>
    // Fleet orchestrator flags.
    bool fleet = false;          ///< --fleet: multi-process campaign
    std::string manifest;        ///< --manifest=<path>
    std::uint32_t caseTimeoutMs = 120000; ///< --case-timeout-ms=<n>
    std::uint32_t chaosKillMs = 0;        ///< --chaos-kill-ms=<n>
    std::string workerRange;     ///< --worker-range=<lo>:<hi>:<att>
    std::string workerReplay;    ///< --worker-replay=<file>
    std::string forensics;       ///< --forensics=<dir>
    bool noForcedSweep = false;  ///< --no-forced-sweep
    /** --diff-fastpath: default vs SystemConfig::referenceStep
     *  equivalence campaign. */
    bool diffFastPath = false;
    // Coverage-guided forge flags.
    bool guided = false;            ///< --guided
    std::uint32_t guidedBatch = 32; ///< --guided-batch=<n>
    std::string distillDir;         ///< --distill=<dir>
    std::string weights;            ///< --weights=<bank> (worker)
};

/** Consume one of this harness's own flags into @p o. */
bool
parseCampaignFlag(const char *arg, CampaignOptions &o)
{
    const std::string a = arg;
    auto val = [&](const char *prefix) -> const char * {
        const std::size_t n = std::strlen(prefix);
        return a.compare(0, n, prefix) == 0 ? arg + n : nullptr;
    };
    auto u32 = [](const char *v) {
        return static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    };
    if (const char *v = val("--axes=")) {
        o.axes = v;
    } else if (const char *v = val("--corpus-out=")) {
        o.corpusOut = v;
    } else if (const char *v = val("--replay=")) {
        o.replayDir = v;
    } else if (const char *v = val("--emit-starter=")) {
        o.emitStarter = v;
    } else if (a == "--shrink-demo") {
        o.shrinkDemo = true;
    } else if (const char *v = val("--analytics-out=")) {
        o.analyticsOut = v;
    } else if (a == "--fleet") {
        o.fleet = true;
    } else if (const char *v = val("--manifest=")) {
        o.manifest = v;
    } else if (const char *v = val("--case-timeout-ms=")) {
        o.caseTimeoutMs = std::max<std::uint32_t>(1, u32(v));
    } else if (const char *v = val("--chaos-kill-ms=")) {
        o.chaosKillMs = u32(v);
    } else if (const char *v = val("--worker-range=")) {
        o.workerRange = v;
    } else if (const char *v = val("--worker-replay=")) {
        o.workerReplay = v;
    } else if (const char *v = val("--forensics=")) {
        o.forensics = v;
    } else if (a == "--no-forced-sweep") {
        o.noForcedSweep = true;
    } else if (a == "--diff-fastpath") {
        o.diffFastPath = true;
    } else if (a == "--guided") {
        o.guided = true;
    } else if (const char *v = val("--guided-batch=")) {
        o.guidedBatch = std::max<std::uint32_t>(1, u32(v));
    } else if (const char *v = val("--distill=")) {
        o.distillDir = v;
    } else if (const char *v = val("--weights=")) {
        o.weights = v;
    } else {
        return false;
    }
    return true;
}

constexpr const char *kCampaignUsage =
    "[--axes=<list|all>] [--corpus-out=<dir>] [--replay=<dir>] "
    "[--emit-starter=<dir>] [--shrink-demo] "
    "[--analytics-out=<path>] [--fleet] [--manifest=<path>] "
    "[--case-timeout-ms=<n>] [--chaos-kill-ms=<n>] "
    "[--forensics=<dir>] [--no-forced-sweep] [--diff-fastpath] "
    "[--guided] [--guided-batch=<n>] [--distill=<dir>] "
    "[--weights=<bank>]";

/** Campaign-sized pipeline config: strict oracle unless overridden,
 *  a 4 MB heap. */
JrpmConfig
forgeConfig(const Options &opt)
{
    JrpmConfig cfg = benchConfig(opt);
    if (opt.oracle.empty())
        cfg.oracle.mode = OracleMode::Strict;
    cfg.vm.heapBytes = 4u << 20;
    // Bound deadlock diagnosis per case (PR 2 watchdog).
    cfg.sys.watchdog.noProgressCycles = 500'000;
    return cfg;
}

int
emitStarter(const CampaignOptions &opt)
{
    int rc = 0;
    for (const ScenarioSpec &spec : forge::starterScenarios()) {
        const CorpusEntry e = forge::makeCorpusEntry(spec);
        const std::string path =
            forge::writeCorpusEntry(opt.emitStarter, e);
        if (path.empty()) {
            rc = 1;
            continue;
        }
        std::printf("wrote %-58s %zu stmts  axes %s\n", path.c_str(),
                    spec.body.size(),
                    forge::axesDescribe(spec.axes()).c_str());
    }
    return rc;
}

/** Replay one corpus entry; returns an empty string when clean. */
std::string
replayEntry(const std::string &path, const JrpmConfig &cfg)
{
    CorpusEntry e;
    std::string err;
    forge::CorpusError kind = forge::CorpusError::None;
    if (!forge::readCorpusEntry(path, e, &err, &kind)) {
        const char *k =
            kind == forge::CorpusError::Version      ? "version"
            : kind == forge::CorpusError::FutureAxes ? "future-axes"
                                                     : "format";
        return strfmt("load(%s): %s", k, err.c_str());
    }
    const std::uint64_t have = hashProgram(forge::render(e.spec));
    if (have != e.programHash)
        return strfmt("program hash drift (file 0x%016" PRIx64
                      ", rendered 0x%016" PRIx64 ")",
                      e.programHash, have);

    const Workload w = forge::scenarioWorkload(e.spec);
    JrpmSystem sys(w, cfg);
    const RunOutcome seq = sys.runSequential(w.mainArgs, false,
                                             nullptr);
    if (!seq.halted)
        return "sequential run did not halt";
    if (e.haveExit && seq.exitValue != e.expectedExit)
        return strfmt("exit checksum drift (file 0x%08x, run 0x%08x)",
                      e.expectedExit, seq.exitValue);

    const forge::CaseResult cr =
        forge::runCase(e.spec, cfg, /*forced_sweep=*/true);
    if (cr.failing(/*faults_active=*/false))
        return "diverged: " + cr.detail;
    return "";
}

int
replayCorpus(const CampaignOptions &opt)
{
    const JrpmConfig cfg = forgeConfig(opt);
    const std::vector<std::string> files =
        forge::listCorpus(opt.replayDir);
    if (files.empty())
        fatal("no *.scenario files under '%s'",
              opt.replayDir.c_str());
    std::uint32_t bad = 0;
    for (const std::string &f : files) {
        const std::string verdict = replayEntry(f, cfg);
        std::printf("%-62s %s\n", f.c_str(),
                    verdict.empty() ? "clean" : verdict.c_str());
        if (!verdict.empty())
            ++bad;
    }
    std::printf("replay: %zu entries, %u failing\n", files.size(),
                bad);
    return bad ? 1 : 0;
}

int
shrinkDemo(const CampaignOptions &opt)
{
    JrpmConfig cfg = forgeConfig(opt);
    // The deliberate divergence: flip one buffered bit right before
    // a speculative commit.  The sequential golden run is untouched
    // (faults arm only in runTls), so the strict oracle must flag
    // the TLS image.
    cfg.faultPlan = FaultPlan::parse("corrupt@0");

    // Any divergence counts — for the demo the oracle *detecting*
    // the corruption is the failure signal we minimize against.
    auto diverges = [&](const ScenarioSpec &s) {
        const forge::CaseResult cr =
            forge::runCase(s, cfg, /*forced_sweep=*/true);
        return cr.ok && (cr.pipelineDiverged || cr.forcedDiverged);
    };

    // Deterministically find a diverging scenario with a body big
    // enough to make shrinking meaningful.
    ScenarioSpec victim;
    bool found = false;
    for (std::uint64_t s = opt.seed; s < opt.seed + 64; ++s) {
        ScenarioSpec cand = forge::generate(s);
        if (cand.body.size() >= 5 && diverges(cand)) {
            victim = cand;
            found = true;
            break;
        }
    }
    if (!found)
        fatal("shrink-demo: no diverging scenario within 64 seeds "
              "of 0x%" PRIx64, opt.seed);
    std::printf("victim: seed 0x%016" PRIx64 ", %zu stmts, n=%d\n",
                victim.seed, victim.body.size(), victim.n);

    forge::ShrinkOptions so;
    so.maxProbes = 300;
    const forge::ShrinkResult sr =
        forge::shrinkScenario(victim, diverges, so);
    std::printf("shrunk: %zu stmts, n=%d (%u probes, %u accepted)\n",
                sr.spec.body.size(), sr.spec.n, sr.probes,
                sr.accepted);
    if (!sr.failing || sr.spec.body.size() > 8) {
        std::printf("FAIL: shrinker did not reach <= 8 statements\n");
        return 1;
    }

    // The repro must replay from its corpus file: write, read back,
    // and re-verify the divergence twice from the deserialized spec.
    const std::string dir =
        opt.corpusOut.empty() ? "forge-repros" : opt.corpusOut;
    const CorpusEntry e = forge::makeCorpusEntry(sr.spec);
    const std::string path = forge::writeCorpusEntry(dir, e);
    if (path.empty())
        return 1;
    CorpusEntry back;
    std::string err;
    if (!forge::readCorpusEntry(path, back, &err))
        fatal("repro does not load back: %s", err.c_str());
    if (!(back.spec == sr.spec))
        fatal("repro spec did not round-trip");
    for (int i = 0; i < 2; ++i)
        if (!diverges(back.spec)) {
            std::printf("FAIL: repro replay %d did not diverge\n",
                        i);
            return 1;
        }
    std::printf("repro %s replays deterministically (diverges under "
                "corrupt@0, strict oracle)\n", path.c_str());
    return 0;
}

/** The JRPM_FLEET_ABORT_SEED poison-case hook shared by the worker
 *  modes; true when the env var is set and names @p seed. */
bool
abortSeedHit(std::uint64_t seed)
{
    const char *env = std::getenv("JRPM_FLEET_ABORT_SEED");
    return env && std::strtoull(env, nullptr, 16) == seed;
}

/** Fleet worker: run seeds [lo,hi) from --worker-range, streaming
 *  `S <seed>` / `D <seed> <json>` lines to the supervisor.  Crashes
 *  and deadlocks need no handling here — dying *is* the protocol
 *  (the supervisor reaps us and harvests --forensics). */
int
workerMain(const CampaignOptions &opt)
{
    std::uint64_t lo = 0, hi = 0;
    unsigned attempt = 0;
    if (std::sscanf(opt.workerRange.c_str(),
                    "%" SCNx64 ":%" SCNx64 ":%u", &lo, &hi,
                    &attempt) != 3)
        fatal("bad --worker-range '%s'", opt.workerRange.c_str());

    JrpmConfig cfg = forgeConfig(opt);
    if (!opt.forensics.empty()) {
        const int pid = static_cast<int>(getpid());
        // Crash record (signal + pid) for the supervisor's harvest.
        obs::armCrashSignals(
            opt.forensics + strfmt("/worker-%d.crash", pid));
        // Partial telemetry: JrpmSystem::run() re-arms the obs
        // failsafe from cfg.obs around every case, so the metrics
        // path must ride in the config — a one-shot
        // setFailsafeOutputs() call here would be overridden by the
        // first case.
        cfg.obs.metricsOut =
            opt.forensics + strfmt("/worker-%d-metrics.json", pid);
    }

    const std::uint32_t axes = forge::parseAxes(opt.axes);
    // Guided fleet batches: the supervisor hands us the weight bank
    // its batch entered with, so generateWeighted() here derives the
    // exact specs the in-process guided campaign would.
    forge::WeightBank bank;
    const bool weighted = !opt.weights.empty();
    if (weighted &&
        !forge::WeightBank::deserialize(opt.weights, bank))
        fatal("bad --weights '%s'", opt.weights.c_str());
    for (std::uint64_t s = lo; s < hi; ++s) {
        // "Starting" marks the suspect seed if we die mid-case.
        std::printf("S %016" PRIx64 "\n", s);
        std::fflush(stdout);
        const ScenarioSpec spec =
            weighted ? forge::generateWeighted(s, axes, bank)
                     : forge::generate(s, axes);
        if (abortSeedHit(spec.seed))
            std::abort();

        forge::CaseResult cr;
        const auto t0 = std::chrono::steady_clock::now();
        try {
            ScopedFatalCapture guard;
            cr = forge::runCase(spec, cfg, !opt.noForcedSweep);
        } catch (const std::exception &e) {
            cr = forge::CaseResult{};
            cr.seed = spec.seed;
            cr.axes = spec.axes();
            cr.stmts =
                static_cast<std::uint32_t>(spec.body.size());
            cr.error = e.what();
            cr.sigHash = forge::signatureOf(cr).hash();
        }
        cr.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        std::printf("D %016" PRIx64 " %s\n", s,
                    fleet::caseResultJson(cr).c_str());
        std::fflush(stdout);
    }
    return 0;
}

/** Sacrificial replay subprocess for the out-of-process shrinker:
 *  exit 0 = candidate clean, 2 = failing, 3 = unreadable file; a
 *  crash (the usual poison-case outcome) is classified by the
 *  supervisor from our wait status. */
int
workerReplayMain(const CampaignOptions &opt)
{
    CorpusEntry e;
    std::string err;
    if (!forge::readCorpusEntry(opt.workerReplay, e, &err)) {
        std::fprintf(stderr, "worker-replay: %s\n", err.c_str());
        return 3;
    }
    const JrpmConfig cfg = forgeConfig(opt);
    if (abortSeedHit(e.spec.seed))
        std::abort();
    forge::CaseResult cr;
    try {
        ScopedFatalCapture guard;
        cr = forge::runCase(e.spec, cfg, !opt.noForcedSweep);
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "worker-replay: %s\n", ex.what());
        return 2;
    }
    return cr.failing(!cfg.faultPlan.empty()) ? 2 : 0;
}

/** Write the final metrics dump (shared by fleet and in-process
 *  campaign exits; see the comment at the campaignMain call site). */
void
dumpFinalMetrics(const Options &opt)
{
    if (opt.metricsOut.empty())
        return;
    const std::string &p = opt.metricsOut;
    const bool json =
        p.size() >= 5 && p.compare(p.size() - 5, 5, ".json") == 0;
    MetricsRegistry::global().writeFile(p, json);
}

/** --distill: reduce a finished campaign to the minimal corpus that
 *  covers every observed behaviour signature. */
void
maybeDistill(const CampaignOptions &opt, const forge::CampaignConfig &cc,
             const forge::CampaignResult &res)
{
    if (opt.distillDir.empty())
        return;
    forge::DistillConfig dc;
    dc.outDir = opt.distillDir;
    const forge::DistillResult dr =
        forge::distillCampaign(cc, res, dc);
    std::printf("distilled: %u signatures -> %u entries "
                "(%u shrink probes) under %s\n",
                dr.observedSignatures, dr.entries, dr.shrinkProbes,
                opt.distillDir.c_str());
}

int
diffFastPathMain(const CampaignOptions &opt)
{
    forge::CampaignConfig cc;
    cc.cases = opt.cases;
    cc.seed = opt.seed;
    cc.axes = forge::parseAxes(opt.axes);
    cc.forcedSweep = !opt.noForcedSweep;
    cc.base = forgeConfig(opt);

    std::printf("fast-path differential campaign: %u cases, seed "
                "0x%" PRIx64 ", axes %s, oracle %s%s\n",
                cc.cases, cc.seed,
                forge::axesDescribe(cc.axes).c_str(),
                oracleModeName(cc.base.oracle.mode),
                cc.forcedSweep ? "" : ", no forced sweep");
    const forge::DifferentialResult res =
        forge::runFastPathDifferential(cc);
    std::printf("%s", res.summary().c_str());
    logReportSuppressed();
    dumpFinalMetrics(opt);
    return res.clean() ? 0 : 1;
}

int
fleetMain(const CampaignOptions &opt, const char *argv0)
{
    if (opt.manifest.empty())
        fatal("--fleet needs --manifest=<path> (the journal that "
              "makes the campaign resumable)");

    fleet::FleetConfig fc;
    fc.campaign.cases = opt.cases;
    fc.campaign.seed = opt.seed;
    fc.campaign.axes = forge::parseAxes(opt.axes);
    fc.campaign.corpusOut = opt.corpusOut;
    fc.campaign.forcedSweep = !opt.noForcedSweep;
    fc.campaign.guided = opt.guided;
    fc.campaign.guidedBatch = opt.guidedBatch;
    fc.campaign.base = forgeConfig(opt);
    fc.workers = opt.jobs;
    fc.caseTimeoutMs = opt.caseTimeoutMs;
    fc.chaosKillMs = opt.chaosKillMs;
    fc.manifestPath = opt.manifest;
    fc.forensicsDir = opt.forensics;

    // Workers re-exec this binary; forward exactly the flags that
    // shape a case's behavior (anything else would change the
    // manifest's config identity between runs).
    char exe[4096];
    const ssize_t n =
        readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    fc.workerCmd.push_back(n > 0 ? std::string(exe, n)
                                 : std::string(argv0));
    if (!opt.axes.empty())
        fc.workerCmd.push_back("--axes=" + opt.axes);
    if (!opt.oracle.empty())
        fc.workerCmd.push_back("--oracle=" + opt.oracle);
    if (!opt.faultPlan.empty())
        fc.workerCmd.push_back("--fault-plan=" + opt.faultPlan);
    if (opt.noForcedSweep)
        fc.workerCmd.push_back("--no-forced-sweep");

    std::printf("fleet campaign: %u cases over %u workers, seed "
                "0x%" PRIx64 ", axes %s, oracle %s, %u ms/case, "
                "manifest %s%s\n",
                fc.campaign.cases, fc.workers, fc.campaign.seed,
                forge::axesDescribe(fc.campaign.axes).c_str(),
                oracleModeName(fc.campaign.base.oracle.mode),
                fc.caseTimeoutMs, fc.manifestPath.c_str(),
                fc.chaosKillMs ? " [chaos]" : "");
    const forge::CampaignResult res = fleet::runFleet(fc);
    std::printf("%s", res.summary().c_str());
    maybeDistill(opt, fc.campaign, res);
    if (!opt.analyticsOut.empty() &&
        forge::writeCampaignAnalytics(opt.analyticsOut, fc.campaign,
                                      res))
        std::printf("analytics: %s\n", opt.analyticsOut.c_str());
    logReportSuppressed();
    dumpFinalMetrics(opt);
    return res.clean() ? 0 : 1;
}

int
campaignMain(int argc, char **argv)
{
    CampaignOptions opt;
    static_cast<Options &>(opt) = parseArgs(
        argc, argv,
        {[&opt](const char *a) { return parseCampaignFlag(a, opt); },
         kCampaignUsage});
    if (!opt.emitStarter.empty())
        return emitStarter(opt);
    if (!opt.replayDir.empty())
        return replayCorpus(opt);
    if (opt.shrinkDemo)
        return shrinkDemo(opt);
    if (opt.diffFastPath)
        return diffFastPathMain(opt);
    if (!opt.workerRange.empty())
        return workerMain(opt);
    if (!opt.workerReplay.empty())
        return workerReplayMain(opt);
    if (opt.fleet)
        return fleetMain(opt, argv[0]);

    forge::CampaignConfig cc;
    cc.cases = opt.cases;
    cc.seed = opt.seed;
    cc.jobs = opt.jobs;
    cc.axes = forge::parseAxes(opt.axes);
    cc.corpusOut = opt.corpusOut;
    cc.forcedSweep = !opt.noForcedSweep;
    cc.guided = opt.guided;
    cc.guidedBatch = opt.guidedBatch;
    cc.base = forgeConfig(opt);

    std::printf("forge campaign: %u cases, seed 0x%" PRIx64
                ", axes %s, oracle %s%s%s, %u jobs%s\n",
                cc.cases, cc.seed,
                forge::axesDescribe(cc.axes).c_str(),
                oracleModeName(cc.base.oracle.mode),
                cc.base.faultPlan.empty() ? "" : ", faults ",
                cc.base.faultPlan.empty()
                    ? ""
                    : cc.base.faultPlan.describe().c_str(),
                cc.jobs,
                cc.guided ? ", guided" : "");
    const forge::CampaignResult res = forge::runCampaign(cc);
    std::printf("%s", res.summary().c_str());
    maybeDistill(opt, cc, res);
    if (!opt.analyticsOut.empty() &&
        forge::writeCampaignAnalytics(opt.analyticsOut, cc, res))
        std::printf("analytics: %s\n", opt.analyticsOut.c_str());
    logReportSuppressed();
    // The per-case pipelines each rewrote --metrics-out before the
    // suppression counts above were published; dump once more so the
    // final file carries the whole campaign, log.suppressed.*
    // included.
    dumpFinalMetrics(opt);
    return res.clean() ? 0 : 1;
}

} // namespace
} // namespace bench
} // namespace jrpm

int
main(int argc, char **argv)
{
    return jrpm::bench::campaignMain(argc, argv);
}
