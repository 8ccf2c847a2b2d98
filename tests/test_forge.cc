/**
 * @file
 * Scenario-forge unit tests: generator determinism (with a golden
 * fingerprint pinning the PRNG + grammar + render chain), grammar
 * coverage of every stress axis, shrinker convergence on injected
 * failures, corpus round-trip with version/corruption rejection, and
 * replay of the checked-in starter corpus through the strict oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "common/hash.hh"
#include "common/logging.hh"
#include "core/jrpm.hh"
#include "crystal/crystal.hh"
#include "forge/campaign.hh"
#include "forge/corpus.hh"
#include "forge/forge.hh"
#include "forge/shrink.hh"
#include "forge/weights.hh"

namespace jrpm
{
namespace
{

using forge::CorpusEntry;
using forge::ForgeStmt;
using forge::ScenarioSpec;
using forge::StmtKind;
using forge::StressAxis;

JrpmConfig
strictConfig()
{
    JrpmConfig cfg;
    cfg.oracle.mode = OracleMode::Strict;
    cfg.vm.heapBytes = 4u << 20;
    return cfg;
}

// ---- determinism ------------------------------------------------------

TEST(ForgeGenerate, DeterministicAcrossCalls)
{
    for (std::uint64_t seed : {0ull, 1ull, 0x5eedull, 0xffffffffull}) {
        const ScenarioSpec a = forge::generate(seed);
        const ScenarioSpec b = forge::generate(seed);
        EXPECT_TRUE(a == b) << "seed " << seed;
        EXPECT_EQ(a.fingerprint(), b.fingerprint());
        EXPECT_EQ(hashProgram(forge::render(a)),
                  hashProgram(forge::render(b)));
    }
    EXPECT_FALSE(forge::generate(1) == forge::generate(2));
}

TEST(ForgeGenerate, GoldenFingerprintPinsTheStream)
{
    // The full seed → Rng stream → grammar → spec chain for seed
    // 0x5eed, frozen.  A mismatch means the PRNG stream contract
    // (common/random.hh) or the grammar changed: that is a corpus
    // format break — bump forge::kForgeVersion and regenerate
    // tests/corpus/ rather than editing this constant casually.
    const ScenarioSpec s = forge::generate(0x5eed);
    EXPECT_EQ(s.fingerprint(), UINT64_C(0x6d7995978dca71c9));
    // And the spec → bytecode render stays stable too.
    EXPECT_EQ(hashProgram(forge::render(s)),
              UINT64_C(0x1b8785b58efd9307));
}

TEST(ForgeGenerate, EveryProgramVerifies)
{
    for (std::uint64_t seed = 0; seed < 150; ++seed) {
        const ScenarioSpec s = forge::generate(seed);
        EXPECT_FALSE(s.body.empty());
        EXPECT_EQ(verify(forge::render(s)), "") << "seed " << seed;
    }
}

TEST(ForgeRender, ClampsArbitraryParameters)
{
    // render() guarantees verifiable output for ANY integers in a
    // spec — shrunk and hand-edited corpus entries depend on it.
    ScenarioSpec s;
    s.n = -7;
    s.init = {INT32_MIN, INT32_MAX, -1, 0, 1, 99999, -99999};
    for (std::uint32_t k = 0; k < forge::kNumStmtKinds; ++k) {
        ForgeStmt st;
        st.kind = static_cast<StmtKind>(k);
        st.p = {INT32_MIN, INT32_MAX, -123456, 777777};
        s.body.push_back(st);
    }
    EXPECT_EQ(verify(forge::render(s)), "");
    const Workload w = forge::scenarioWorkload(s);
    JrpmSystem sys(w, strictConfig());
    const RunOutcome seq = sys.runSequential(w.mainArgs, false,
                                             nullptr);
    EXPECT_TRUE(seq.halted);
}

// ---- grammar coverage -------------------------------------------------

TEST(ForgeGenerate, EveryAxisReachableWithinSeedBudget)
{
    std::uint32_t seen = 0;
    for (std::uint64_t seed = 0; seed < 600 &&
                                 seen != forge::kAllAxes; ++seed)
        seen |= forge::generate(seed).axes();
    EXPECT_EQ(seen, forge::kAllAxes)
        << "missing axes: "
        << forge::axesDescribe(forge::kAllAxes & ~seen);
}

TEST(ForgeGenerate, AxisMaskRestrictsProductions)
{
    // Only Baseline and the requested axis may appear in the body.
    const std::uint32_t mask =
        static_cast<std::uint32_t>(StressAxis::SyncBlocks);
    const std::uint32_t allowed =
        mask | static_cast<std::uint32_t>(StressAxis::Baseline);
    bool sawSync = false;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        const ScenarioSpec s = forge::generate(seed, mask);
        EXPECT_EQ(s.axes() & ~allowed, 0u) << "seed " << seed;
        sawSync |= (s.axes() & mask) != 0;
    }
    EXPECT_TRUE(sawSync);
}

TEST(ForgeAxes, NamesRoundTrip)
{
    EXPECT_EQ(forge::parseAxes("all"), forge::kAllAxes);
    EXPECT_EQ(forge::parseAxes(""), forge::kAllAxes);
    for (std::uint32_t i = 0; i < forge::kNumAxes; ++i) {
        const auto axis = static_cast<StressAxis>(1u << i);
        EXPECT_EQ(forge::parseAxes(forge::axisName(axis)),
                  1u << i);
    }
    EXPECT_EQ(forge::parseAxes("sync,alloc"),
              static_cast<std::uint32_t>(StressAxis::SyncBlocks) |
                  static_cast<std::uint32_t>(StressAxis::AllocGc));
    for (std::uint32_t k = 0; k < forge::kNumStmtKinds; ++k) {
        const auto kind = static_cast<StmtKind>(k);
        StmtKind back;
        ASSERT_TRUE(forge::stmtKindByName(forge::stmtKindName(kind),
                                          back));
        EXPECT_EQ(back, kind);
    }
}

// ---- shrinker ---------------------------------------------------------

TEST(ForgeShrink, ConvergesOnSyntheticPredicate)
{
    // "Fails" while any CrossDep statement survives and n >= 5: the
    // shrinker must strip everything else and pull n down to 5.
    const ScenarioSpec start = forge::generate(0x511e1d);
    ScenarioSpec seeded = start;
    ForgeStmt dep;
    dep.kind = StmtKind::CrossDep;
    dep.p = {3, 0, 0, 0};
    seeded.body.push_back(dep);

    auto fails = [](const ScenarioSpec &s) {
        if (s.n < 5)
            return false;
        for (const ForgeStmt &st : s.body)
            if (st.kind == StmtKind::CrossDep)
                return true;
        return false;
    };
    const forge::ShrinkResult r = forge::shrinkScenario(seeded, fails);
    ASSERT_TRUE(r.failing);
    EXPECT_TRUE(fails(r.spec));
    EXPECT_EQ(r.spec.body.size(), 1u);
    EXPECT_EQ(r.spec.body[0].kind, StmtKind::CrossDep);
    EXPECT_EQ(r.spec.n, 5);
    EXPECT_EQ(r.spec.seed, 0u) << "shrunk specs lose provenance";
    EXPECT_GT(r.accepted, 0u);
}

TEST(ForgeShrink, NonFailingInputReturnsUnchanged)
{
    const ScenarioSpec start = forge::generate(7);
    const forge::ShrinkResult r = forge::shrinkScenario(
        start, [](const ScenarioSpec &) { return false; });
    EXPECT_FALSE(r.failing);
    EXPECT_TRUE(r.spec == start);
    EXPECT_EQ(r.probes, 1u);
}

TEST(ForgeShrink, RespectsProbeBudget)
{
    forge::ShrinkOptions opt;
    opt.maxProbes = 10;
    const forge::ShrinkResult r = forge::shrinkScenario(
        forge::generate(11),
        [](const ScenarioSpec &) { return true; }, opt);
    EXPECT_TRUE(r.failing);
    EXPECT_LE(r.probes, 10u);
}

TEST(ForgeShrink, MinimizesInjectedTlsDivergence)
{
    // The acceptance-criterion path end to end: a CorruptCommit
    // fault makes TLS genuinely diverge from sequential (the golden
    // run is unperturbed — faults arm only in runTls), the strict
    // oracle flags it, and the shrinker reduces the scenario to a
    // <= 8 statement repro that still diverges after a corpus
    // round-trip.
    JrpmConfig cfg = strictConfig();
    cfg.faultPlan = FaultPlan::parse("corrupt@0");
    auto diverges = [&](const ScenarioSpec &s) {
        const forge::CaseResult cr = forge::runCase(s, cfg, true);
        return cr.ok && (cr.pipelineDiverged || cr.forcedDiverged);
    };

    ScenarioSpec victim;
    bool found = false;
    for (std::uint64_t seed = 0x5eed; seed < 0x5eed + 32; ++seed) {
        const ScenarioSpec cand = forge::generate(seed);
        if (cand.body.size() >= 5 && diverges(cand)) {
            victim = cand;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no divergence within 32 seeds";

    forge::ShrinkOptions opt;
    opt.maxProbes = 120;
    const forge::ShrinkResult r =
        forge::shrinkScenario(victim, diverges, opt);
    ASSERT_TRUE(r.failing);
    EXPECT_LE(r.spec.body.size(), 8u);
    EXPECT_LT(r.spec.body.size(), victim.body.size());

    CorpusEntry back;
    std::string err;
    ASSERT_TRUE(deserializeCorpusEntry(
        serializeCorpusEntry(forge::makeCorpusEntry(r.spec)), back,
        &err))
        << err;
    EXPECT_TRUE(diverges(back.spec)) << "repro must replay";
}

// ---- corpus format ----------------------------------------------------

TEST(ForgeCorpus, RoundTripPreservesEverything)
{
    const ScenarioSpec spec = forge::generate(0xc0de);
    const CorpusEntry e = forge::makeCorpusEntry(spec);
    EXPECT_TRUE(e.haveExit);
    EXPECT_EQ(e.programHash, hashProgram(forge::render(spec)));

    CorpusEntry back;
    std::string err;
    ASSERT_TRUE(deserializeCorpusEntry(serializeCorpusEntry(e), back,
                                       &err))
        << err;
    EXPECT_TRUE(back.spec == e.spec);
    EXPECT_EQ(back.spec.seed, e.spec.seed);
    EXPECT_EQ(back.programHash, e.programHash);
    EXPECT_EQ(back.expectedExit, e.expectedExit);
    EXPECT_EQ(back.haveExit, e.haveExit);
}

TEST(ForgeCorpus, RejectsVersionMismatch)
{
    std::string text =
        serializeCorpusEntry(forge::makeCorpusEntry(
            forge::generate(3), /*with_exit=*/false));
    // Patch the version and re-seal the content checksum, so the
    // rejection tested is the version check, not the checksum.
    const std::size_t v = text.find(" v1\n");
    ASSERT_NE(v, std::string::npos);
    text.replace(v, 4, " v9\n");
    const std::size_t chk = text.rfind("check ");
    ASSERT_NE(chk, std::string::npos);
    text = text.substr(0, chk) +
           strfmt("check 0x%016llx\n",
                  static_cast<unsigned long long>(
                      fnv1a(text.data(), chk)));

    CorpusEntry out;
    std::string err;
    EXPECT_FALSE(deserializeCorpusEntry(text, out, &err));
    EXPECT_NE(err.find("version mismatch"), std::string::npos)
        << err;
}

TEST(ForgeCorpus, RejectsUnknownFutureAxisBits)
{
    // A corpus entry written by a FUTURE build can carry axis bits
    // this build does not define.  Silently masking them off would
    // replay a *different* scenario class than the one recorded —
    // the loader must reject with the typed FutureAxes error.
    std::string text = serializeCorpusEntry(forge::makeCorpusEntry(
        forge::generate(6), /*with_exit=*/false));
    const std::size_t at = text.find("\naxes 0x");
    ASSERT_NE(at, std::string::npos);
    // Splice a high bit no current axis occupies into the mask and
    // re-seal the checksum, so the rejection tested is the axes
    // check, not the checksum.
    text.insert(at + 8, "200000");
    const std::size_t chk = text.rfind("check ");
    ASSERT_NE(chk, std::string::npos);
    text = text.substr(0, chk) +
           strfmt("check 0x%016llx\n",
                  static_cast<unsigned long long>(
                      fnv1a(text.data(), chk)));

    CorpusEntry out;
    std::string err;
    forge::CorpusError kind = forge::CorpusError::None;
    EXPECT_FALSE(deserializeCorpusEntry(text, out, &err, &kind));
    EXPECT_EQ(kind, forge::CorpusError::FutureAxes)
        << "error was: " << err;
    EXPECT_NE(err.find("unknown axis bits"), std::string::npos)
        << err;

    // The known-bits portion of the same mask parses fine, so the
    // rejection really is about the unknown bits.
    CorpusEntry good;
    ASSERT_TRUE(deserializeCorpusEntry(
        serializeCorpusEntry(forge::makeCorpusEntry(
            forge::generate(6), /*with_exit=*/false)),
        good, &err, &kind))
        << err;
    EXPECT_EQ(kind, forge::CorpusError::None);
}

TEST(ForgeCorpus, RejectsCorruptionAndTruncation)
{
    const std::string good = serializeCorpusEntry(
        forge::makeCorpusEntry(forge::generate(4),
                               /*with_exit=*/false));
    CorpusEntry out;
    std::string err;

    std::string flipped = good;
    flipped[good.size() / 2] ^= 1;
    EXPECT_FALSE(deserializeCorpusEntry(flipped, out, &err));

    EXPECT_FALSE(deserializeCorpusEntry(
        good.substr(0, good.size() / 2), out, &err));
    EXPECT_FALSE(deserializeCorpusEntry("", out, &err));
    EXPECT_FALSE(deserializeCorpusEntry("not a corpus file", out,
                                        &err));
}

TEST(ForgeCorpus, FileRoundTripAndListing)
{
    const std::string dir =
        ::testing::TempDir() + "/forge-corpus-test";
    const CorpusEntry e =
        forge::makeCorpusEntry(forge::generate(0xd15c));
    const std::string path = forge::writeCorpusEntry(dir, e);
    ASSERT_FALSE(path.empty());

    const auto files = forge::listCorpus(dir);
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files[0], path);

    CorpusEntry back;
    std::string err;
    ASSERT_TRUE(forge::readCorpusEntry(path, back, &err)) << err;
    EXPECT_TRUE(back.spec == e.spec);
    EXPECT_FALSE(forge::readCorpusEntry(dir + "/missing.scenario",
                                        back, &err));
}

TEST(ForgeCorpus, TornWritesAreInvisibleOrRejectedNotFatal)
{
    const std::string dir =
        ::testing::TempDir() + "/forge-corpus-torn";
    std::filesystem::create_directories(dir);
    const CorpusEntry good =
        forge::makeCorpusEntry(forge::generate(0x7042),
                               /*with_exit=*/false);
    const std::string goodPath = forge::writeCorpusEntry(dir, good);
    ASSERT_FALSE(goodPath.empty());

    // A writer killed before the atomic rename leaves only the
    // "*.scenario.tmp" file — listCorpus() must not surface it.
    const std::string text = serializeCorpusEntry(good);
    std::ofstream(dir + "/forge-ffffffffffffffff.scenario.tmp")
        << text.substr(0, text.size() / 3);

    // A file truncated *after* rename (bit rot, torn copy) is listed
    // but must fail its checksum on load — an error, never a crash.
    const std::string torn = dir + "/forge-eeeeeeeeeeeeeeee.scenario";
    std::ofstream(torn) << text.substr(0, text.size() / 2);

    auto files = forge::listCorpus(dir);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_NE(std::find(files.begin(), files.end(), torn),
              files.end());
    EXPECT_NE(std::find(files.begin(), files.end(), goodPath),
              files.end());

    CorpusEntry back;
    std::string err;
    EXPECT_FALSE(forge::readCorpusEntry(torn, back, &err));
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;
    EXPECT_TRUE(forge::readCorpusEntry(goodPath, back, &err)) << err;
    EXPECT_TRUE(back.spec == good.spec);
}

// ---- starter corpus replay -------------------------------------------

TEST(ForgeStarter, CoversEveryAxisAndVerifies)
{
    const auto specs = forge::starterScenarios();
    EXPECT_GE(specs.size(), 10u);
    std::uint32_t axes = 0;
    for (const ScenarioSpec &s : specs) {
        EXPECT_EQ(verify(forge::render(s)), "");
        axes |= s.axes();
    }
    EXPECT_EQ(axes, forge::kAllAxes);
}

TEST(ForgeStarter, CheckedInCorpusReplaysCleanly)
{
    // tests/corpus/ holds the starter scenarios as corpus files
    // (regenerate with bench_forge_campaign --emit-starter=...).
    // Each must load, render to the recorded program hash, reproduce
    // the recorded sequential exit checksum, and survive a forced
    // speculation sweep under the strict oracle.
    const auto files = forge::listCorpus(JRPM_FORGE_CORPUS_DIR);
    ASSERT_GE(files.size(), 10u)
        << "checked-in corpus missing at " JRPM_FORGE_CORPUS_DIR;
    const JrpmConfig cfg = strictConfig();
    for (const std::string &path : files) {
        CorpusEntry e;
        std::string err;
        ASSERT_TRUE(forge::readCorpusEntry(path, e, &err))
            << path << ": " << err;
        EXPECT_EQ(hashProgram(forge::render(e.spec)), e.programHash)
            << path << ": grammar drift against checked-in corpus";
        ASSERT_TRUE(e.haveExit) << path;

        const Workload w = forge::scenarioWorkload(e.spec);
        JrpmSystem sys(w, cfg);
        const RunOutcome seq =
            sys.runSequential(w.mainArgs, false, nullptr);
        ASSERT_TRUE(seq.halted) << path;
        EXPECT_EQ(seq.exitValue, e.expectedExit) << path;

        const forge::CaseResult cr = forge::runCase(e.spec, cfg,
                                                    true);
        EXPECT_TRUE(cr.ok) << path << ": " << cr.error;
        EXPECT_FALSE(cr.failing(false)) << path << ": " << cr.detail;
    }
}

// ---- campaign runner --------------------------------------------------

TEST(ForgeCampaign, SmallCleanCampaignOnWorkerPool)
{
    forge::CampaignConfig cc;
    cc.cases = 8;
    cc.seed = 0xca3e;
    cc.jobs = 2;
    cc.base = strictConfig();
    const forge::CampaignResult res = forge::runCampaign(cc);
    EXPECT_TRUE(res.clean()) << res.summary();
    EXPECT_EQ(res.cases, 8u);
    ASSERT_EQ(res.results.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(res.results[i].seed, cc.seed + i) << "input order";
    EXPECT_GT(res.forcedRuns, 0u);
    EXPECT_FALSE(res.summary().empty());
}

TEST(ForgeCampaign, WorkerCountDoesNotChangeResults)
{
    forge::CampaignConfig cc;
    cc.cases = 6;
    cc.seed = 0xd00d;
    cc.base = strictConfig();
    cc.jobs = 1;
    const forge::CampaignResult a = forge::runCampaign(cc);
    cc.jobs = 4;
    const forge::CampaignResult b = forge::runCampaign(cc);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].seed, b.results[i].seed);
        EXPECT_EQ(a.results[i].pipelineDiverged,
                  b.results[i].pipelineDiverged);
        EXPECT_EQ(a.results[i].forcedDiverged,
                  b.results[i].forcedDiverged);
    }
}

// ---- coverage-guided campaign ----------------------------------------

TEST(ForgeGuided, GuidedCampaignConvergesOnMoreSignatures)
{
    // The acceptance experiment at tier-1 scale: with a fixed seed,
    // the signature-novelty feedback loop must discover at least as
    // many distinct behaviour signatures as uniform generation over
    // the same case budget (empirically it finds strictly more on
    // this configuration; >= is the contract).
    forge::CampaignConfig cc;
    cc.cases = 300;
    cc.seed = 0x5eed;
    cc.jobs = 4;
    cc.axes = forge::parseAxes("baseline,nested,sync,exception");
    cc.forcedSweep = false;
    cc.base = strictConfig();
    const forge::CampaignResult unguided = forge::runCampaign(cc);
    cc.guided = true;
    const forge::CampaignResult guided = forge::runCampaign(cc);

    EXPECT_TRUE(unguided.clean()) << unguided.summary();
    EXPECT_TRUE(guided.clean()) << guided.summary();
    EXPECT_GT(unguided.distinctSignatures, 1u);
    EXPECT_GE(guided.distinctSignatures, unguided.distinctSignatures)
        << "guided: " << guided.summary()
        << "unguided: " << unguided.summary();

    // The guided run reports its final bank; it parses back
    // byte-identically (the fleet journals exactly this string).
    EXPECT_TRUE(unguided.weightBank.empty());
    ASSERT_FALSE(guided.weightBank.empty());
    forge::WeightBank bank;
    ASSERT_TRUE(
        forge::WeightBank::deserialize(guided.weightBank, bank));
    EXPECT_EQ(bank.serialize(), guided.weightBank);
    EXPECT_FALSE(bank == forge::WeightBank())
        << "300 cases must have moved at least one weight";
    // Guided scenarios differ from generate(seed): replay uses specs.
    ASSERT_EQ(guided.specs.size(), guided.results.size());
}

// ---- corpus distillation ---------------------------------------------

TEST(ForgeDistill, MinimalCorpusCoversEveryObservedSignature)
{
    forge::CampaignConfig cc;
    cc.cases = 24;
    cc.seed = 0x5eed;
    cc.jobs = 4;
    cc.axes = forge::parseAxes("baseline,nested,sync");
    cc.forcedSweep = false;
    cc.base = strictConfig();
    const forge::CampaignResult res = forge::runCampaign(cc);
    ASSERT_TRUE(res.clean()) << res.summary();

    const std::string dir = ::testing::TempDir() + "/forge-distill";
    std::filesystem::remove_all(dir);
    forge::DistillConfig dc;
    dc.outDir = dir;
    dc.shrinkProbes = 16;
    const forge::DistillResult dr =
        forge::distillCampaign(cc, res, dc);

    std::unordered_set<std::uint64_t> observed;
    for (const forge::CaseResult &cr : res.results)
        observed.insert(cr.sigHash);
    EXPECT_EQ(dr.observedSignatures, observed.size());
    ASSERT_EQ(dr.corpus.size(), dr.entries);
    EXPECT_EQ(dr.entries, dr.observedSignatures)
        << "one representative per signature";
    EXPECT_LE(dr.entries, res.cases);

    // 100% coverage: replaying every distilled entry reproduces
    // exactly the observed signature set (ddmin only ever accepted
    // shrinks that preserved the representative's signature).
    std::unordered_set<std::uint64_t> covered;
    for (const ScenarioSpec &spec : dr.corpus)
        covered.insert(
            forge::runCase(spec, cc.base, cc.forcedSweep).sigHash);
    EXPECT_EQ(covered, observed);

    // Entries persist in the standard checksummed corpus format.
    ASSERT_EQ(dr.paths.size(), dr.entries);
    EXPECT_EQ(forge::listCorpus(dir).size(), dr.entries);
    CorpusEntry e;
    std::string err;
    ASSERT_TRUE(forge::readCorpusEntry(dr.paths[0], e, &err)) << err;

    // Distillation is deterministic given the campaign result.
    const forge::DistillResult again =
        forge::distillCampaign(cc, res, dc);
    ASSERT_EQ(again.entries, dr.entries);
    for (std::size_t i = 0; i < dr.corpus.size(); ++i)
        EXPECT_TRUE(again.corpus[i] == dr.corpus[i]) << i;
}

// ---- speculative fast-path differential ------------------------------

TEST(ForgeDifferential, FastPathOnOffSemanticallyIdentical)
{
    // Tier-1 slice of the release equivalence campaign (the bench
    // runs >= 200 cases via --diff-fastpath): each scenario runs the
    // full pipeline with the signature fast path forced on and forced
    // off, and everything the simulated machine can observe — cycles,
    // Fig. 10 buckets, violations, forwarding, cache counters, VM
    // output, the strict oracle's memory checksum — must match
    // bit-for-bit, for the pipeline run and every forced
    // decomposition.
    forge::CampaignConfig cc;
    cc.cases = 12;
    cc.seed = 0xd1ff;
    cc.base = strictConfig();
    const forge::DifferentialResult res =
        forge::runFastPathDifferential(cc);
    EXPECT_TRUE(res.clean()) << res.summary();
    EXPECT_EQ(res.cases, 12u);
    // The differential is vacuous unless the on-runs actually took
    // the fast path.
    EXPECT_GT(res.fastMemRetired, 0u) << res.summary();
}

// ---- regressions for bugs the forge found ----------------------------

TEST(ForgeRegression, InlinedCallWithCatchTableInSameMethod)
{
    // The JIT inliner used to splice callee bodies without remapping
    // the caller's exception table, so any scenario combining a Call
    // (inlined) with a later Throw (catch region) produced invalid
    // bytecode ("stack underflow") after the inline pass.
    ScenarioSpec s;
    s.n = 24;
    ForgeStmt call;
    call.kind = StmtKind::Call;
    call.p = {3, 1, 5, 0};  // small helper: inlinable
    ForgeStmt thr;
    thr.kind = StmtKind::Throw;
    thr.p = {3, 7, 2, 0};
    s.body = {call, thr};

    const forge::CaseResult cr =
        forge::runCase(s, strictConfig(), true);
    EXPECT_TRUE(cr.ok) << cr.error;
    EXPECT_FALSE(cr.failing(false)) << cr.detail;
}

TEST(ForgeRegression, SyncLockPlanRejectsConditionalRegions)
{
    // The analyzer may plan a §4.2.4 thread-synchronizing lock for a
    // carried local whose accesses are conditional (a reset-inductor
    // or an if-guarded update).  The acquire/release protocol
    // requires the protected region to run exactly once per
    // iteration; the JIT must fall back to plain forwarding
    // otherwise.  Both shapes below made the pipeline diverge before
    // the guard existed.
    ScenarioSpec guarded;   // if (i%2==0) c ^= k  +  a[i] store
    guarded.n = 8;
    ForgeStmt cond;
    cond.kind = StmtKind::CondCarried;
    cond.p = {2, 3, 1, 0};
    ForgeStmt arr;
    arr.kind = StmtKind::ArrayStore;
    arr.p = {0, 3, 0, 0};
    guarded.body = {cond, arr};

    ScenarioSpec reset;     // if (i%2==0) r=0; r+=1; c+=r  +  alloc
    reset.n = 16;
    ForgeStmt ri;
    ri.kind = StmtKind::ResetInductor;
    ri.p = {2, 1, 0, 0};
    ForgeStmt al;
    al.kind = StmtKind::Alloc;
    al.p = {0, 1, 0, 0};
    reset.body = {ri, al};

    for (const ScenarioSpec *s : {&guarded, &reset}) {
        const forge::CaseResult cr =
            forge::runCase(*s, strictConfig(), true);
        EXPECT_TRUE(cr.ok) << cr.error;
        EXPECT_FALSE(cr.failing(false)) << cr.detail;
    }
}

} // namespace
} // namespace jrpm
