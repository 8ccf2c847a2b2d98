/**
 * @file
 * Parallel differential fuzz campaigns over forge scenarios.
 *
 * A campaign derives `cases` scenarios from consecutive seeds, runs
 * each through the full Fig. 1 pipeline (sequential, profiled, TLS)
 * under the differential oracle on the batch driver's worker pool,
 * and — for maximum decomposition coverage — additionally
 * force-speculates every loop the JIT accepts, one at a time,
 * comparing each forced run's memory image against the sequential
 * golden (the analyzer's selection policy must never be what hides a
 * correctness bug).
 *
 * With a fault plan composed in (PR 2), detected divergences are the
 * *expected* outcome and only silent ones — result differs, oracle
 * clean, watchdog quiet — fail the campaign.  Every failing case is
 * shrunk to a minimal replayable repro and written into the corpus
 * directory.
 *
 * Results are deterministic in the worker count: scenarios derive
 * from seeds alone, and the driver reports in input order.
 */

#ifndef JRPM_FORGE_CAMPAIGN_HH
#define JRPM_FORGE_CAMPAIGN_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cpu/stats.hh"
#include "forge/forge.hh"
#include "forge/shrink.hh"

namespace jrpm
{
namespace forge
{

struct CampaignConfig
{
    std::uint32_t cases = 200;
    std::uint64_t seed = 0xf063u; ///< scenario i uses seed + i
    std::uint32_t jobs = 1;       ///< driver worker pool size
    std::uint32_t axes = kAllAxes;
    /** Also force-speculate every JIT-accepted loop per scenario. */
    bool forcedSweep = true;
    /** Shrink failing cases to minimal repros. */
    bool shrinkFailures = true;
    std::uint32_t shrinkProbes = 300;
    /** Write shrunk repros here ("" = don't persist). */
    std::string corpusOut;
    /** Coverage-guided generation: derive scenarios with
     *  generateWeighted() and update the WeightBank from behaviour-
     *  signature novelty at batch boundaries (see weights.hh). */
    bool guided = false;
    /** Cases per guided batch (the weight-update granularity). */
    std::uint32_t guidedBatch = 32;
    /** Base pipeline config: oracle mode, fault plan, memory. */
    JrpmConfig base;
};

/** What one scenario did. */
struct CaseResult
{
    std::uint64_t seed = 0;
    std::uint32_t axes = 0;
    std::uint32_t stmts = 0;
    bool ok = false;             ///< pipeline ran to completion
    std::string error;           ///< exception text when !ok
    bool pipelineDiverged = false;
    std::uint32_t forcedLoops = 0;
    std::uint32_t forcedDiverged = 0;
    bool watchdog = false;
    bool silent = false;         ///< diverged with oracle clean
    std::uint32_t faultsInjected = 0;
    std::string detail;          ///< first divergence summary

    // --- telemetry capsule (observatory): the pipeline's TLS run ---
    double speedup = 0;          ///< seq / TLS cycles
    std::uint64_t seqCycles = 0;
    std::uint64_t tlsCycles = 0;
    std::uint64_t violations = 0;
    std::uint64_t commits = 0;
    std::uint64_t overflowStalls = 0;
    std::uint64_t sigHits = 0;         ///< signature probes that hit
    std::uint64_t sigFalsePositives = 0; ///< hits with empty scans
    std::uint64_t forwardedLoads = 0;
    std::array<std::uint64_t, kNumSquashCauses> squashCauses{};
    std::array<std::uint64_t, kNumAddrClasses> violationsByClass{};
    /** (loopId, squash events) for every squashing loop. */
    std::vector<std::pair<std::int32_t, std::uint64_t>> loopSquashes;
    std::uint64_t governorAborts = 0;  ///< governor blacklist events
    std::uint64_t soloEntries = 0;     ///< solo-mode STL entries
    std::uint64_t stlEntries = 0;      ///< speculative region entries
    std::uint32_t syncLockPlans = 0;   ///< selections with syncLock
    std::uint32_t multilevelPlans = 0; ///< selections with multilevel
    bool demoted = false;              ///< crystal entry demoted
    double wallMs = 0;                 ///< host wall-clock, whole case
    /** BehaviourSignature::hash() of this case (signature.hh); the
     *  coverage coordinate for guided campaigns and distillation. */
    std::uint64_t sigHash = 0;

    /** Does this case fail the campaign?  With faults composed in,
     *  detected divergences are expected and only silent ones fail;
     *  without faults any divergence fails. */
    bool failing(bool faults_active) const;
};

/** One failing case's repro artifacts. */
struct CampaignFailure
{
    CaseResult result;
    ScenarioSpec original;
    ScenarioSpec shrunk;       ///< == original when shrinking is off
    std::uint32_t shrinkProbes = 0;
    std::string corpusPath;    ///< "" unless persisted
};

/** Crash-isolation tallies from a fleet (multi-process) campaign;
 *  all zero for an in-process one. */
struct FleetTallies
{
    bool active = false;        ///< ran under the fleet orchestrator
    bool resumed = false;       ///< picked up an existing manifest
    std::uint32_t workerDeaths = 0; ///< workers lost to signals
    std::uint32_t crashes = 0;      ///< cases that killed a worker
    std::uint32_t timeouts = 0;     ///< cases over the deadline
    std::uint32_t retries = 0;      ///< crash/timeout retry launches
    std::uint32_t quarantined = 0;  ///< poison cases (died twice)
    std::uint32_t reshards = 0;     ///< ranges re-queued after death
    std::uint32_t tornRecords = 0;  ///< manifest lines skipped
};

struct CampaignResult
{
    std::uint32_t cases = 0;
    std::uint32_t failures = 0;
    std::uint32_t pipelineErrors = 0;
    std::uint32_t divergences = 0;     ///< cases with any divergence
    std::uint32_t oracleDetected = 0;  ///< expected under faults
    std::uint32_t watchdogs = 0;
    std::uint64_t forcedRuns = 0;
    /** Scenarios touching each axis, kAxisTable order. */
    std::array<std::uint32_t, kNumAxes> axisScenarios{};
    std::vector<CaseResult> results;   ///< input (seed) order
    /** The scenario each result ran (same order as `results`).
     *  Under guided generation these are NOT generate(seed)'s output
     *  — distillation and replay must use this list. */
    std::vector<ScenarioSpec> specs;
    std::vector<CampaignFailure> failing;
    /** Distinct behaviour-signature hashes over all cases. */
    std::uint32_t distinctSignatures = 0;
    /** Final serialized WeightBank ("" unless guided). */
    std::string weightBank;
    FleetTallies fleet;

    bool clean() const { return failures == 0; }
    /** Multi-line human-readable summary. */
    std::string summary() const;
};

/** Run one scenario through the pipeline (+ forced sweep) and
 *  classify it.  Exposed for the shrinker predicate and tests. */
CaseResult runCase(const ScenarioSpec &spec, const JrpmConfig &base,
                   bool forced_sweep);

/** As above, but also hand back the full pipeline report (the
 *  fast-path differential harness compares two of them). */
CaseResult runCase(const ScenarioSpec &spec, const JrpmConfig &base,
                   bool forced_sweep, JrpmReport *rep_out);

/** One scenario whose default and referenceStep runs differed. */
struct DifferentialMismatch
{
    std::uint64_t seed = 0;
    std::string detail;        ///< first differing field, both values
};

/** Outcome of a fast-path differential campaign. */
struct DifferentialResult
{
    std::uint32_t cases = 0;
    /** Cycles that skipped step(), summed over every run of every
     *  case: positive on the default side and zero on the reference
     *  side prove the two sides took different dispatchers. */
    std::uint64_t fastBatched = 0;
    std::uint64_t refBatched = 0;

    std::vector<DifferentialMismatch> mismatches;
    bool clean() const { return mismatches.empty(); }
    std::string summary() const;
};

/**
 * The fast-path equivalence campaign: run every scenario through the
 * full pipeline twice -- with the default dispatch and with
 * `sys.referenceStep`, which sends every cycle through the per-cycle
 * Machine::step() -- and require semantically identical outcomes for
 * all four runs of the pipeline (see semanticDiff in campaign.cc) and
 * for the forced-sweep verdicts.  Only RunOutcome::steps may differ.
 *
 * Honors `cases`, `seed`, `axes`, `forcedSweep` and `base`; runs
 * in-process and sequentially (each case is its own pair, so there is
 * no cross-case state to isolate).
 */
DifferentialResult runFastPathDifferential(const CampaignConfig &cfg);

/** Fold one case into the campaign counters (everything except
 *  `failures`/`failing`, which shrink separately).  Shared between
 *  the in-process campaign and the fleet supervisor. */
void tallyCase(CampaignResult &res, const CaseResult &cr,
               bool faults_active);

/**
 * Turn one failing case into repro artifacts: ddmin-shrink it (when
 * @p cfg.shrinkFailures and the case completed) and persist the
 * shrunk scenario into @p cfg.corpusOut.  The in-process shrink
 * re-runs candidates in this process — callers with crash-prone
 * cases (the fleet's quarantined ones) must shrink out of process
 * instead.
 */
CampaignFailure processFailure(const CampaignConfig &cfg,
                               const ScenarioSpec &spec,
                               const CaseResult &cr,
                               bool faults_active);

/** Run a full campaign (see file header). */
CampaignResult runCampaign(const CampaignConfig &cfg);

/**
 * Campaign analytics: one queryable JSON document aggregating the
 * per-case telemetry capsules — campaign verdict, per-metric
 * percentiles (speedup, cycles, violations, signature probes, wall
 * time), per-axis percentile breakdowns, aggregate squash-cause and
 * variable-class tallies, the top squash-cause loops, and the host
 * profiler's attribution snapshot.  scripts/obs_report.py renders it.
 */
std::string campaignAnalyticsJson(const CampaignConfig &cfg,
                                  const CampaignResult &res);

/** campaignAnalyticsJson() to a file.  @return false on I/O error. */
bool writeCampaignAnalytics(const std::string &path,
                            const CampaignConfig &cfg,
                            const CampaignResult &res);

// ---- corpus distillation ----------------------------------------------

struct DistillConfig
{
    /** Write the distilled corpus entries here. */
    std::string outDir;
    /** ddmin probe budget per representative. */
    std::uint32_t shrinkProbes = 80;
};

struct DistillResult
{
    std::uint32_t observedSignatures = 0; ///< distinct over the run
    std::uint32_t entries = 0;            ///< distilled corpus size
    std::uint32_t shrinkProbes = 0;       ///< total ddmin probes
    std::vector<ScenarioSpec> corpus;     ///< one per signature
    std::vector<std::string> paths;       ///< written files
};

/**
 * Distill a completed campaign to a minimal regression corpus: a
 * greedy set-cover over the observed behaviour signatures (each case
 * covers exactly its own signature, so this picks one representative
 * per signature — fewest statements, then lowest seed), with each
 * representative ddmin-shrunk as far as it keeps producing its
 * signature.  Deterministic given the campaign result; covers 100%
 * of observed signatures by construction.
 */
DistillResult distillCampaign(const CampaignConfig &cfg,
                              const CampaignResult &res,
                              const DistillConfig &dcfg);

} // namespace forge
} // namespace jrpm

#endif // JRPM_FORGE_CAMPAIGN_HH
