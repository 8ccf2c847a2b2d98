/**
 * @file
 * Behaviour-signature tests: the magnitude-tier bucketing, the
 * inclusion/exclusion contract (telemetry-only fields must never
 * move a signature), determinism of per-case signature hashes
 * across driver worker counts, golden signature pins for the
 * checked-in starter corpus, and the WeightBank update / serialize
 * rules the guided campaign's replayability rests on.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "core/jrpm.hh"
#include "forge/campaign.hh"
#include "forge/corpus.hh"
#include "forge/forge.hh"
#include "forge/signature.hh"
#include "forge/weights.hh"

namespace jrpm
{
namespace
{

using forge::BehaviourSignature;
using forge::ScenarioSpec;
using forge::StmtKind;
using forge::WeightBank;

JrpmConfig
strictConfig()
{
    JrpmConfig cfg;
    cfg.oracle.mode = OracleMode::Strict;
    cfg.vm.heapBytes = 4u << 20;
    return cfg;
}

// ---- bucketing --------------------------------------------------------

TEST(SigBucket, FourMagnitudeTiers)
{
    EXPECT_EQ(forge::sigBucket(0), 0);
    EXPECT_EQ(forge::sigBucket(1), 1);
    EXPECT_EQ(forge::sigBucket(16), 1);
    EXPECT_EQ(forge::sigBucket(17), 2);
    EXPECT_EQ(forge::sigBucket(256), 2);
    EXPECT_EQ(forge::sigBucket(257), 3);
    EXPECT_EQ(forge::sigBucket(UINT64_MAX), 3);
}

// ---- inclusion / exclusion contract -----------------------------------

/** A CaseResult with every signature-included signal nonzero. */
forge::CaseResult
richCase()
{
    forge::CaseResult cr;
    cr.seed = 42;
    cr.axes = 0x1a5;
    cr.stmts = 9;
    cr.ok = true;
    cr.forcedDiverged = 1;
    for (std::size_t i = 0; i < cr.squashCauses.size(); ++i)
        cr.squashCauses[i] = 20 + i;
    for (std::size_t i = 0; i < cr.violationsByClass.size(); ++i)
        cr.violationsByClass[i] = 3 + i;
    cr.governorAborts = 2;
    cr.soloEntries = 1;
    cr.syncLockPlans = 1;
    cr.multilevelPlans = 2;
    cr.sigHits = 300;
    cr.demoted = true;
    return cr;
}

TEST(BehaviourSignature, IgnoresHostShapeTelemetry)
{
    // The exclusion list: everything that describes probe aliasing
    // or how long the host took rather than what the simulated
    // machine did.  A telemetry-only change — exactly what
    // wall-clock jitter produces — must never move the signature, or
    // guided novelty would reward noise and the golden pins below
    // would flake.
    const forge::CaseResult base = richCase();
    const std::uint64_t want = forge::signatureOf(base).hash();

    forge::CaseResult cr = base;
    cr.speedup = 3.5;
    cr.seqCycles = 123456;
    cr.tlsCycles = 654321;
    cr.commits = 999;
    cr.overflowStalls = 77;
    cr.sigFalsePositives = 55;
    cr.forwardedLoads = 808;
    cr.loopSquashes = {{1, 5}, {2, 9}};
    cr.violations = 500;
    cr.stlEntries = 40;
    cr.wallMs = 9999.0;
    cr.stmts = 57;
    cr.forcedLoops = 12;
    cr.faultsInjected = 2;
    cr.detail = "different detail text";
    EXPECT_EQ(forge::signatureOf(cr).hash(), want);
    EXPECT_TRUE(forge::signatureOf(cr) == forge::signatureOf(base));
}

TEST(BehaviourSignature, TracksEveryIncludedSignal)
{
    const forge::CaseResult base = richCase();
    const std::uint64_t want = forge::signatureOf(base).hash();
    // Each mutation crosses a tier boundary (or flips a bit), so
    // each must move the hash.
    auto changed = [&](void (*mut)(forge::CaseResult &)) {
        forge::CaseResult cr = richCase();
        mut(cr);
        return forge::signatureOf(cr).hash() != want;
    };
    EXPECT_TRUE(changed([](forge::CaseResult &c) { c.axes ^= 2; }));
    EXPECT_TRUE(changed([](forge::CaseResult &c) { c.ok = false; }));
    EXPECT_TRUE(changed(
        [](forge::CaseResult &c) { c.pipelineDiverged = true; }));
    EXPECT_TRUE(changed([](forge::CaseResult &c) { c.silent = true; }));
    EXPECT_TRUE(
        changed([](forge::CaseResult &c) { c.watchdog = true; }));
    EXPECT_TRUE(
        changed([](forge::CaseResult &c) { c.forcedDiverged = 0; }));
    EXPECT_TRUE(changed(
        [](forge::CaseResult &c) { c.squashCauses[0] = 5000; }));
    EXPECT_TRUE(changed(
        [](forge::CaseResult &c) { c.violationsByClass[0] = 0; }));
    EXPECT_TRUE(changed(
        [](forge::CaseResult &c) { c.governorAborts = 400; }));
    EXPECT_TRUE(
        changed([](forge::CaseResult &c) { c.soloEntries = 0; }));
    EXPECT_TRUE(
        changed([](forge::CaseResult &c) { c.syncLockPlans = 20; }));
    EXPECT_TRUE(
        changed([](forge::CaseResult &c) { c.multilevelPlans = 0; }));
    EXPECT_TRUE(changed([](forge::CaseResult &c) { c.sigHits = 0; }));
    EXPECT_TRUE(
        changed([](forge::CaseResult &c) { c.demoted = false; }));
}

TEST(BehaviourSignature, DescribeMentionsTheLoadBearingFields)
{
    const BehaviourSignature s = forge::signatureOf(richCase());
    const std::string d = s.describe();
    EXPECT_NE(d.find("axes="), std::string::npos) << d;
    EXPECT_NE(d.find("squash="), std::string::npos) << d;
    EXPECT_NE(d.find("demoted"), std::string::npos) << d;
}

// ---- determinism across worker counts ---------------------------------

TEST(SignatureDeterminism, GuidedCampaignIdenticalAcrossJobs)
{
    forge::CampaignConfig cc;
    cc.cases = 24;
    cc.seed = 0x5eed;
    cc.axes = forge::parseAxes("baseline,nested,sync");
    cc.guided = true;
    cc.guidedBatch = 8;
    cc.forcedSweep = false;
    cc.base = strictConfig();

    cc.jobs = 1;
    const forge::CampaignResult a = forge::runCampaign(cc);
    cc.jobs = 4;
    const forge::CampaignResult b = forge::runCampaign(cc);

    EXPECT_EQ(a.weightBank, b.weightBank)
        << "weight trajectory must not depend on the worker count";
    EXPECT_FALSE(a.weightBank.empty());
    EXPECT_EQ(a.distinctSignatures, b.distinctSignatures);
    ASSERT_EQ(a.results.size(), b.results.size());
    ASSERT_EQ(a.specs.size(), b.specs.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].seed, b.results[i].seed);
        EXPECT_EQ(a.results[i].sigHash, b.results[i].sigHash)
            << "case " << i;
        EXPECT_TRUE(a.specs[i] == b.specs[i]) << "case " << i;
    }
}

TEST(SignatureDeterminism, SigHashMatchesRecomputation)
{
    // runCase()'s journaled sigHash is the hash of signatureOf() on
    // its own wire fields — the property the fleet's self-heal path
    // and the manifest cross-check rely on.
    for (std::uint64_t seed = 0x5eed; seed < 0x5eed + 4; ++seed) {
        const forge::CaseResult cr = forge::runCase(
            forge::generate(seed), strictConfig(), true);
        EXPECT_EQ(cr.sigHash, forge::signatureOf(cr).hash());
        EXPECT_NE(cr.sigHash, 0u);
    }
}

// ---- starter corpus golden signatures ---------------------------------

TEST(SignatureGolden, StarterScenarioSignaturesArePinned)
{
    // The behaviour signature of every starter scenario under the
    // default strict config, frozen.  A mismatch
    // means scenario *behaviour* changed (machine semantics, governor
    // policy, plan selection, ...) or the signature definition
    // changed — both invalidate the distilled-corpus coverage story,
    // so regenerate deliberately rather than editing casually.
    const std::vector<std::uint64_t> want = {
        // clang-format off
        0x5e0a7cefa513ad36, 0x5e0de2efa516905f, 0x73921a7dc7611056,
        0xf5cba19509385f66, 0xddbebd0d712ad8e7, 0x2b6d9e34d64ad829,
        0xc1d2e41bbd3d79bd, 0xbd12758535a9591f, 0xb3d82cc02a60d40f,
        0xab3f68433074b41f, 0x60c117ba46bf072c,
        // clang-format on
    };
    const auto specs = forge::starterScenarios();
    ASSERT_EQ(specs.size(), want.size());
    const JrpmConfig cfg = strictConfig();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const forge::CaseResult cr =
            forge::runCase(specs[i], cfg, /*forced_sweep=*/true);
        ASSERT_TRUE(cr.ok) << "starter " << i << ": " << cr.error;
        EXPECT_EQ(cr.sigHash, want[i])
            << "starter " << i << ": "
            << forge::signatureOf(cr).describe();
    }
}

// ---- weight bank ------------------------------------------------------

TEST(WeightBank, UpdateBoostsDecaysAndClamps)
{
    WeightBank b;
    const auto k0 = static_cast<std::uint32_t>(StmtKind::ArrayStore);
    const StmtKind kind0 = StmtKind::ArrayStore;
    const StmtKind kind1 = StmtKind::Reduction;
    const StmtKind kind2 = StmtKind::SyncBlock;
    const std::uint32_t m0 = 1u << k0;
    const std::uint32_t m1 =
        1u << static_cast<std::uint32_t>(kind1);

    // kind0 novel, kind1 seen-but-stale, kind2 absent.
    b.update(m0, m0 | m1);
    EXPECT_EQ(b.weight(kind0), WeightBank::kUnit + WeightBank::kBoost);
    EXPECT_EQ(b.weight(kind1),
              WeightBank::kUnit - WeightBank::kUnit / 8);
    EXPECT_EQ(b.weight(kind2), WeightBank::kUnit);

    // Decay floors at kMin; boost caps at kMax.
    for (int i = 0; i < 100; ++i)
        b.update(m0, m0 | m1);
    EXPECT_EQ(b.weight(kind0), WeightBank::kMax);
    EXPECT_EQ(b.weight(kind1), WeightBank::kMin);
}

TEST(WeightBank, SerializeRoundTripsByteIdentically)
{
    WeightBank b;
    b.update(0x13, 0x7f);
    b.update(0x02, 0x1f);
    const std::string text = b.serialize();
    WeightBank back;
    ASSERT_TRUE(WeightBank::deserialize(text, back));
    EXPECT_TRUE(back == b);
    EXPECT_EQ(back.serialize(), text);
    EXPECT_EQ(back.hash(), b.hash());

    WeightBank fresh;
    EXPECT_NE(fresh.hash(), b.hash());
    ASSERT_TRUE(WeightBank::deserialize(fresh.serialize(), back));
    EXPECT_TRUE(back == fresh);
}

TEST(WeightBank, DeserializeRejectsMalformedBanks)
{
    WeightBank out;
    const std::string good = WeightBank().serialize();
    EXPECT_FALSE(WeightBank::deserialize("", out));
    EXPECT_FALSE(WeightBank::deserialize("wb0 400", out));
    EXPECT_FALSE(WeightBank::deserialize("wb1 400 400", out))
        << "wrong production count must be rejected";
    EXPECT_FALSE(WeightBank::deserialize(good + " 400", out))
        << "trailing tokens must be rejected";
    EXPECT_FALSE(WeightBank::deserialize(
        "wb1 0 400 400 400 400 400 400 400 400 400 400", out))
        << "zero weight can never arise (kMin floor)";
    EXPECT_FALSE(WeightBank::deserialize(
        "wb1 fffff 400 400 400 400 400 400 400 400 400 400", out))
        << "over-kMax weight can never arise";
    EXPECT_TRUE(WeightBank::deserialize(good, out));
}

TEST(WeightBank, GenerateWeightedPreservesStreamShapeAndMask)
{
    // A uniform bank must not collapse to generate() (the kind-draw
    // mapping differs), but the structural contract holds: same
    // header fields for the same seed, only allowed kinds appear,
    // and every program verifies.
    WeightBank uniform;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const ScenarioSpec g = forge::generate(seed);
        const ScenarioSpec w =
            forge::generateWeighted(seed, forge::kAllAxes, uniform);
        EXPECT_EQ(g.n, w.n) << "header draws must match";
        EXPECT_EQ(g.init, w.init);
        EXPECT_EQ(g.body.size(), w.body.size());
        EXPECT_EQ(verify(forge::render(w)), "") << "seed " << seed;
    }
    // Restricting axes restricts productions, exactly as generate().
    const std::uint32_t mask = static_cast<std::uint32_t>(
        forge::StressAxis::SyncBlocks);
    const std::uint32_t allowed =
        mask |
        static_cast<std::uint32_t>(forge::StressAxis::Baseline);
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const ScenarioSpec w =
            forge::generateWeighted(seed, mask, uniform);
        EXPECT_EQ(w.axes() & ~allowed, 0u) << "seed " << seed;
    }
    // A skewed bank actually skews: starve everything but two kinds
    // and the body must contain only those.
    WeightBank skew;
    for (std::uint32_t k = 0; k < forge::kNumStmtKinds; ++k)
        skew.setWeight(static_cast<StmtKind>(k), WeightBank::kMin);
    skew.setWeight(StmtKind::ArrayStore, WeightBank::kMax);
    std::uint32_t kinds = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed)
        kinds |= forge::kindsOf(
            forge::generateWeighted(seed, forge::kAllAxes, skew));
    EXPECT_NE(kinds &
                  (1u << static_cast<std::uint32_t>(
                       StmtKind::ArrayStore)),
              0u);
}

TEST(WeightBank, ApplyBatchSharesOneSeenSetAcrossBatches)
{
    WeightBank bank;
    std::unordered_set<std::uint64_t> seen;
    const std::uint32_t m =
        1u << static_cast<std::uint32_t>(StmtKind::Reduction);
    // First batch: hash 1 is novel -> boost.
    forge::applyBatch(bank, seen, {{m, 1}});
    EXPECT_EQ(bank.weight(StmtKind::Reduction),
              WeightBank::kUnit + WeightBank::kBoost);
    // Second batch re-observes hash 1: stale -> decay, never
    // re-rewarded (the set persists across batches).
    forge::applyBatch(bank, seen, {{m, 1}});
    const std::uint32_t boosted =
        WeightBank::kUnit + WeightBank::kBoost;
    EXPECT_EQ(bank.weight(StmtKind::Reduction),
              boosted - boosted / 8);
    // An empty batch is a no-op.
    const WeightBank before = bank;
    forge::applyBatch(bank, seen, {});
    EXPECT_TRUE(bank == before);
}

} // namespace
} // namespace jrpm
