/**
 * @file
 * Fleet orchestrator tests: the wire format, the crash-consistent
 * campaign manifest (torn journals, corrupt checkpoints, config
 * conflicts, idempotent double-loads), the obs crash-signal
 * failsafe, and — through the real bench binary (JRPM_FLEET_EXE) —
 * the end-to-end guarantees: multi-process campaigns complete, and a
 * poison case is quarantined with a shrunk repro while the rest of
 * the campaign finishes.
 */

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "common/obs.hh"
#include "fleet/fleet.hh"
#include "fleet/manifest.hh"
#include "fleet/wire.hh"
#include "forge/campaign.hh"
#include "forge/signature.hh"
#include "forge/weights.hh"

namespace jrpm
{
namespace
{

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/jrpm-fleet-test-XXXXXX";
    const char *d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    return d ? d : "";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
append(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::app);
    out << text;
}

/** A CaseResult with every wire field populated distinctly. */
forge::CaseResult
sampleCase(std::uint64_t seed)
{
    forge::CaseResult cr;
    cr.seed = seed;
    cr.axes = 0x1a5;
    cr.stmts = 17;
    cr.ok = true;
    cr.error = "quote\" and \\slash";
    cr.pipelineDiverged = true;
    cr.forcedLoops = 4;
    cr.forcedDiverged = 1;
    cr.watchdog = true;
    cr.silent = true;
    cr.faultsInjected = 3;
    cr.detail = "loop 2: mem[0x10] differs";
    cr.speedup = 1.75;
    cr.seqCycles = 123456789;
    cr.tlsCycles = 987654321;
    cr.violations = 42;
    cr.commits = 17;
    cr.overflowStalls = 5;
    cr.specWindows = 9;
    cr.specWindowInsts = 9000;
    cr.specSlowSteps = 11;
    cr.specFastMem = 4400;
    cr.sigHits = 77;
    cr.sigFalsePositives = 13;
    cr.forwardedLoads = 23;
    cr.meanBurst = 812.5;
    for (std::size_t i = 0; i < cr.squashCauses.size(); ++i)
        cr.squashCauses[i] = 100 + i;
    for (std::size_t i = 0; i < cr.violationsByClass.size(); ++i)
        cr.violationsByClass[i] = 200 + i;
    cr.loopSquashes = {{0, 7}, {3, 1}};
    cr.governorAborts = 6;
    cr.soloEntries = 2;
    cr.stlEntries = 8;
    cr.syncLockPlans = 1;
    cr.multilevelPlans = 2;
    cr.demoted = true;
    cr.wallMs = 333.25;
    cr.sigHash = 0xabcdef0123456789ull;
    return cr;
}

void
expectSameCase(const forge::CaseResult &a, const forge::CaseResult &b)
{
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.axes, b.axes);
    EXPECT_EQ(a.stmts, b.stmts);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.pipelineDiverged, b.pipelineDiverged);
    EXPECT_EQ(a.forcedLoops, b.forcedLoops);
    EXPECT_EQ(a.forcedDiverged, b.forcedDiverged);
    EXPECT_EQ(a.watchdog, b.watchdog);
    EXPECT_EQ(a.silent, b.silent);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_DOUBLE_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.seqCycles, b.seqCycles);
    EXPECT_EQ(a.tlsCycles, b.tlsCycles);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.overflowStalls, b.overflowStalls);
    EXPECT_EQ(a.specWindows, b.specWindows);
    EXPECT_EQ(a.specWindowInsts, b.specWindowInsts);
    EXPECT_EQ(a.specSlowSteps, b.specSlowSteps);
    EXPECT_EQ(a.specFastMem, b.specFastMem);
    EXPECT_EQ(a.sigHits, b.sigHits);
    EXPECT_EQ(a.sigFalsePositives, b.sigFalsePositives);
    EXPECT_EQ(a.forwardedLoads, b.forwardedLoads);
    EXPECT_DOUBLE_EQ(a.meanBurst, b.meanBurst);
    EXPECT_EQ(a.squashCauses, b.squashCauses);
    EXPECT_EQ(a.violationsByClass, b.violationsByClass);
    EXPECT_EQ(a.loopSquashes, b.loopSquashes);
    EXPECT_EQ(a.governorAborts, b.governorAborts);
    EXPECT_EQ(a.soloEntries, b.soloEntries);
    EXPECT_EQ(a.stlEntries, b.stlEntries);
    EXPECT_EQ(a.syncLockPlans, b.syncLockPlans);
    EXPECT_EQ(a.multilevelPlans, b.multilevelPlans);
    EXPECT_EQ(a.demoted, b.demoted);
    EXPECT_DOUBLE_EQ(a.wallMs, b.wallMs);
    EXPECT_EQ(a.sigHash, b.sigHash);
}

TEST(FleetWire, CaseResultRoundTripsEveryField)
{
    const forge::CaseResult in = sampleCase(0xdeadbeefcafe1234ull);
    const std::string json = fleet::caseResultJson(in);
    EXPECT_EQ(json.find('\n'), std::string::npos)
        << "wire records must be single lines";

    forge::CaseResult out;
    std::string err;
    ASSERT_TRUE(fleet::caseResultFromJson(json, out, &err)) << err;
    expectSameCase(in, out);
}

TEST(FleetWire, MissingSigHashIsRecomputedNotRejected)
{
    // Manifests journaled before the signature field existed carry no
    // sigHash — the parser must self-heal by recomputing it from the
    // wire fields (signatureOf is a pure function of them) rather
    // than reject the record or leave the hash zero.
    forge::CaseResult in = sampleCase(0x51);
    in.sigHash = 0;
    std::string json = fleet::caseResultJson(in);
    const std::size_t at = json.find(",\"sigHash\"");
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = json.find('}', at);
    ASSERT_NE(end, std::string::npos);
    json.erase(at, end - at);

    forge::CaseResult out;
    std::string err;
    ASSERT_TRUE(fleet::caseResultFromJson(json, out, &err)) << err;
    EXPECT_EQ(out.sigHash, forge::signatureOf(out).hash());
    EXPECT_NE(out.sigHash, 0u);
}

TEST(FleetWire, RejectsGarbageAndStructuralMismatch)
{
    forge::CaseResult out;
    std::string err;
    EXPECT_FALSE(fleet::caseResultFromJson("not json", out, &err));
    EXPECT_FALSE(fleet::caseResultFromJson("[1,2,3]", out, &err));
    // A syntactically valid object missing the required fields.
    EXPECT_FALSE(fleet::caseResultFromJson("{\"seed\":5}", out,
                                           &err));
}

TEST(FleetManifest, SealedRecordsDetectTearing)
{
    const std::string sealed = fleet::sealRecord("case {\"x\":1}");
    std::string body;
    ASSERT_TRUE(fleet::unsealRecord(sealed, body));
    EXPECT_EQ(body, "case {\"x\":1}");

    // Any truncation (the only tear a crashed append can produce)
    // must be detected.
    for (std::size_t n = 1; n < sealed.size(); ++n)
        EXPECT_FALSE(
            fleet::unsealRecord(sealed.substr(0, n), body))
            << "accepted a record torn at byte " << n;
    EXPECT_FALSE(fleet::unsealRecord("no checksum here", body));
}

TEST(FleetManifest, PersistsAndResumesAcrossReopen)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/manifest";
    const std::string config = "seed 5eed cases 4";

    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        EXPECT_FALSE(m.resumed());
        m.recordCase(sampleCase(1));
        m.recordCase(sampleCase(2));
        fleet::PoisonRecord p;
        p.seed = 3;
        p.attempts = 2;
        p.cause = "signal 11";
        m.recordPoison(p);
        m.recordRepro(3, dir + "/repro.scenario");
        // No checkpoint(): everything must survive via the journal.
    }
    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        EXPECT_TRUE(m.resumed());
        EXPECT_EQ(m.tornRecords(), 0u);
        ASSERT_EQ(m.completed().size(), 2u);
        expectSameCase(m.completed().at(1), sampleCase(1));
        ASSERT_EQ(m.poisoned().size(), 1u);
        EXPECT_EQ(m.poisoned().at(3).attempts, 2u);
        EXPECT_EQ(m.poisoned().at(3).cause, "signal 11");
        EXPECT_EQ(m.poisoned().at(3).reproPath,
                  dir + "/repro.scenario");

        // Checkpoint moves the state into the snapshot and empties
        // the journal.
        m.checkpoint();
    }
    const std::string journal = slurp(path + ".journal");
    EXPECT_EQ(journal.find("case "), std::string::npos)
        << "checkpoint() must truncate journaled records";
    {
        // Double-load after the checkpoint: same state, no torn
        // records, still exactly one record per seed.
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        EXPECT_TRUE(m.resumed());
        EXPECT_EQ(m.tornRecords(), 0u);
        EXPECT_EQ(m.completed().size(), 2u);
        EXPECT_EQ(m.poisoned().size(), 1u);
    }
}

TEST(FleetManifest, WeightRecordsSurviveJournalAndCheckpoint)
{
    // The guided fleet journals the weight bank each batch entered
    // with; the serialized bank must round-trip byte-identically
    // through both the journal and a checkpoint snapshot (resume
    // recomputes the bank and fatals on any divergence).
    const std::string dir = makeTempDir();
    const std::string path = dir + "/manifest";
    const std::string config = "seed 5eed cases 64 guided 1";

    forge::WeightBank bank;
    bank.update(/*novel=*/0x13, /*appeared=*/0x1f);
    const std::string b0 = forge::WeightBank().serialize();
    const std::string b1 = bank.serialize();
    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        m.recordWeights(0, b0);
        m.recordWeights(1, b1);
    }
    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        EXPECT_EQ(m.tornRecords(), 0u);
        ASSERT_EQ(m.weights().size(), 2u);
        EXPECT_EQ(m.weights().at(0), b0);
        EXPECT_EQ(m.weights().at(1), b1);
        forge::WeightBank back;
        ASSERT_TRUE(
            forge::WeightBank::deserialize(m.weights().at(1), back));
        EXPECT_EQ(back, bank);
        m.checkpoint();
    }
    // After the checkpoint the records live in the snapshot.
    fleet::CampaignManifest m(path);
    std::string err;
    ASSERT_TRUE(m.load(config, &err)) << err;
    EXPECT_EQ(m.tornRecords(), 0u);
    ASSERT_EQ(m.weights().size(), 2u);
    EXPECT_EQ(m.weights().at(0), b0);
    EXPECT_EQ(m.weights().at(1), b1);
}

TEST(FleetManifest, TornJournalLinesAreSkippedNotFatal)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/manifest";
    const std::string config = "seed 1 cases 8";

    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        m.recordCase(sampleCase(0x10));
        m.recordCase(sampleCase(0x11));
    }
    // Simulate a crash mid-append: a record cut off before its
    // checksum, plus outright garbage.
    const std::string sealed =
        fleet::sealRecord("case " +
                          fleet::caseResultJson(sampleCase(0x12)));
    append(path + ".journal", sealed.substr(0, sealed.size() / 2));
    append(path + ".journal", "\n@@#garbage line#@@\n");

    fleet::CampaignManifest m(path);
    std::string err;
    ASSERT_TRUE(m.load(config, &err)) << err;
    EXPECT_EQ(m.completed().size(), 2u)
        << "torn record must not surface as a completed case";
    EXPECT_GE(m.tornRecords(), 2u);
    EXPECT_EQ(m.completed().count(0x12), 0u);
}

TEST(FleetManifest, TruncatedCheckpointDegradesToJournal)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/manifest";
    const std::string config = "seed 2 cases 8";

    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        m.recordCase(sampleCase(0x20));
        m.checkpoint();
        m.recordCase(sampleCase(0x21)); // journal only
    }
    // Tear the checkpoint mid-file (torn snapshot lines are skipped
    // like torn journal lines; the journaled record must survive).
    const std::string snap = slurp(path);
    std::ofstream(path, std::ios::trunc)
        << snap.substr(0, snap.size() - 8);

    fleet::CampaignManifest m(path);
    std::string err;
    ASSERT_TRUE(m.load(config, &err)) << err;
    EXPECT_GE(m.tornRecords(), 1u);
    EXPECT_EQ(m.completed().count(0x21), 1u)
        << "journal must restore what the torn checkpoint lost";
}

TEST(FleetManifest, RefusesConfigConflict)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/manifest";
    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load("seed aa cases 16", &err)) << err;
        m.recordCase(sampleCase(7));
    }
    fleet::CampaignManifest m(path);
    std::string err;
    EXPECT_FALSE(m.load("seed bb cases 16", &err))
        << "a different campaign must not absorb this manifest";
    EXPECT_NE(err.find("seed aa"), std::string::npos)
        << "conflict error should name the stored config: " << err;
}

TEST(FleetConfigIdentity, CoversTheCaseShapingKnobs)
{
    forge::CampaignConfig a;
    const std::string base = fleet::fleetConfigIdentity(a);

    forge::CampaignConfig b = a;
    b.seed ^= 1;
    EXPECT_NE(fleet::fleetConfigIdentity(b), base);
    b = a;
    b.cases += 1;
    EXPECT_NE(fleet::fleetConfigIdentity(b), base);
    b = a;
    b.base.faultPlan = FaultPlan::parse("corrupt@0");
    EXPECT_NE(fleet::fleetConfigIdentity(b), base);
    // Guided generation derives different scenarios from the same
    // seeds, so it shapes cases and must split the identity.
    b = a;
    b.guided = true;
    EXPECT_NE(fleet::fleetConfigIdentity(b), base);
    b.guidedBatch = 16;
    EXPECT_NE(fleet::fleetConfigIdentity(b),
              [&] {
                  forge::CampaignConfig c = a;
                  c.guided = true;
                  return fleet::fleetConfigIdentity(c);
              }());
    // Supervisor-only knobs must NOT change identity, or resuming
    // with a different worker count would refuse its own manifest.
    b = a;
    b.jobs += 3;
    EXPECT_EQ(fleet::fleetConfigIdentity(b), base);
}

TEST(ObsCrashFailsafe, WritesSignalRecordFromDyingChild)
{
    const std::string dir = makeTempDir();
    const std::string crash = dir + "/child.crash";

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        obs::armCrashSignals(crash);
        std::raise(SIGSEGV);
        _exit(0); // not reached
    }
    int st = 0;
    ASSERT_EQ(waitpid(pid, &st, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(st))
        << "handler must re-raise, not swallow";
    EXPECT_EQ(WTERMSIG(st), SIGSEGV);

    const std::string rec = slurp(crash);
    EXPECT_EQ(rec.find("signal 11 pid "), 0u)
        << "crash record was: '" << rec << "'";
}

#ifdef JRPM_FLEET_EXE

int
runCmd(const std::string &cmd)
{
    const int st = std::system(cmd.c_str());
    return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

/** End to end through the real bench binary: a small fleet campaign
 *  completes cleanly and covers every seed exactly once. */
TEST(FleetEndToEnd, SmallCampaignCoversEverySeedOnce)
{
    const std::string dir = makeTempDir();
    const std::string manifest = dir + "/m";
    const int rc = runCmd(std::string(JRPM_FLEET_EXE) +
                          " --fleet --manifest=" + manifest +
                          " --cases=4 --jobs=2 --seed=0x5eed"
                          " >" + dir + "/log 2>&1");
    EXPECT_EQ(rc, 0) << slurp(dir + "/log");

    fleet::CampaignManifest m(manifest);
    forge::CampaignConfig cc;
    cc.cases = 4;
    cc.seed = 0x5eed;
    cc.base.oracle.mode = OracleMode::Strict; // the bench default
    std::string err;
    ASSERT_TRUE(m.load(fleet::fleetConfigIdentity(cc), &err)) << err;
    EXPECT_EQ(m.tornRecords(), 0u);
    ASSERT_EQ(m.completed().size(), 4u);
    for (std::uint64_t s = 0x5eed; s < 0x5eed + 4; ++s)
        EXPECT_EQ(m.completed().count(s), 1u) << "seed " << s;
}

/** The acceptance experiment: one scenario patched to abort() ends
 *  quarantined with a minimized repro while the rest of the campaign
 *  completes. */
TEST(FleetEndToEnd, AbortingCaseIsQuarantinedWithShrunkRepro)
{
    const std::string dir = makeTempDir();
    const std::string manifest = dir + "/m";
    const std::uint64_t poison = 0x5eed + 2;
    const int rc =
        runCmd("JRPM_FLEET_ABORT_SEED=5eef " +
               std::string(JRPM_FLEET_EXE) +
               " --fleet --manifest=" + manifest +
               " --cases=4 --jobs=2 --seed=0x5eed"
               " --corpus-out=" + dir + "/repros"
               " >" + dir + "/log 2>&1");
    EXPECT_EQ(rc, 1) << "a quarantined case must fail the campaign: "
                     << slurp(dir + "/log");

    fleet::CampaignManifest m(manifest);
    forge::CampaignConfig cc;
    cc.cases = 4;
    cc.seed = 0x5eed;
    cc.base.oracle.mode = OracleMode::Strict; // the bench default
    cc.corpusOut = dir + "/repros";
    std::string err;
    ASSERT_TRUE(m.load(fleet::fleetConfigIdentity(cc), &err)) << err;

    // Every healthy seed completed; the poison seed did not.
    EXPECT_EQ(m.completed().size(), 3u);
    EXPECT_EQ(m.completed().count(poison), 0u);
    ASSERT_EQ(m.poisoned().count(poison), 1u);
    const fleet::PoisonRecord &p = m.poisoned().at(poison);
    EXPECT_EQ(p.attempts, 2u) << "must retry once before poisoning";
    EXPECT_NE(p.cause.find("signal 6"), std::string::npos)
        << p.cause;
    ASSERT_FALSE(p.reproPath.empty()) << "no shrunk repro recorded";
    EXPECT_FALSE(slurp(p.reproPath).empty())
        << "repro file missing: " << p.reproPath;
}

/** Guided determinism across the process boundary: a guided fleet
 *  campaign must journal the same per-case behaviour signatures as
 *  the in-process guided campaign with the same config, and the
 *  weight bank entering each batch must be byte-identical to the
 *  in-process bank at the same barrier. */
TEST(FleetEndToEnd, GuidedFleetMatchesInProcessCampaign)
{
    const std::string dir = makeTempDir();
    const std::string manifest = dir + "/m";
    const int rc = runCmd(std::string(JRPM_FLEET_EXE) +
                          " --fleet --manifest=" + manifest +
                          " --guided --guided-batch=8"
                          " --cases=16 --jobs=3 --seed=0x5eed"
                          " --axes=baseline,nested,sync"
                          " --no-forced-sweep"
                          " >" + dir + "/log 2>&1");
    EXPECT_EQ(rc, 0) << slurp(dir + "/log");

    forge::CampaignConfig cc;
    cc.cases = 16;
    cc.seed = 0x5eed;
    cc.axes = forge::parseAxes("baseline,nested,sync");
    cc.guided = true;
    cc.guidedBatch = 8;
    cc.forcedSweep = false;
    cc.jobs = 2;
    // Mirror the bench's forgeConfig() so per-case telemetry (and
    // with it the signatures) matches the workers'.
    cc.base.oracle.mode = OracleMode::Strict;
    cc.base.vm.heapBytes = 4u << 20;
    cc.base.sys.watchdog.noProgressCycles = 500'000;
    const forge::CampaignResult ref = forge::runCampaign(cc);

    fleet::CampaignManifest m(manifest);
    std::string err;
    ASSERT_TRUE(m.load(fleet::fleetConfigIdentity(cc), &err)) << err;
    ASSERT_EQ(m.completed().size(), 16u);
    for (const forge::CaseResult &cr : ref.results)
        EXPECT_EQ(m.completed().at(cr.seed).sigHash, cr.sigHash)
            << "seed " << cr.seed;

    // The bank entering batch 1 is the bank after batch 0 — which is
    // exactly the final bank of an in-process campaign that stops at
    // the batch-0 barrier.
    ASSERT_EQ(m.weights().size(), 2u);
    EXPECT_EQ(m.weights().at(0), forge::WeightBank().serialize());
    forge::CampaignConfig first = cc;
    first.cases = 8;
    EXPECT_EQ(m.weights().at(1),
              forge::runCampaign(first).weightBank);
}
#endif // JRPM_FLEET_EXE

} // namespace
} // namespace jrpm
