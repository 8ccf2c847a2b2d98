/**
 * @file
 * Unit tests for the crystal repository: serialization round trips,
 * corruption/truncation rejection, schema and config invalidation,
 * and fingerprint sensitivity.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/metrics.hh"
#include "crystal/crystal.hh"
#include "workloads/workloads.hh"

namespace jrpm
{
namespace
{

/** A fresh temp directory removed at scope exit. */
struct TempDir
{
    std::filesystem::path path;

    TempDir()
    {
        char tmpl[] = "/tmp/jrpm-crystal-XXXXXX";
        path = ::mkdtemp(tmpl);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

/** An entry exercising every serialized field with awkward values. */
CrystalEntry
sampleEntry()
{
    CrystalEntry e;
    e.workload = "Huffman variant \"quick\"";
    e.programHash = 0xdeadbeefcafef00dull;
    e.argsHash = 0x123456789abcdef0ull;
    e.configHash = 0x0fedcba987654321ull;
    e.predictedSpeedup = 2.3456789012345678;
    e.profilingSlowdown = 1.0789123456789;
    e.profilingCycles = 987654321012345ull;

    LoopProfile lp;
    lp.loopId = 7;
    lp.entries = 3;
    lp.iterations = 1000;
    lp.skippedEntries = 1;
    lp.threadSize.sample(123.25);
    lp.threadSize.sample(456.5);
    lp.depThreads = 12;
    lp.arcDistance.sample(1.5);
    lp.arcStoreOffset.sample(0.125);
    lp.arcLoadOffset.sample(0.875);
    lp.arcSites[{false, 0x1234}] = 9;
    lp.arcSites[{true, 3}] = 2;
    lp.loadLines.sample(17);
    lp.storeLines.sample(5);
    lp.overflowThreads = 4;
    e.profiles[7] = lp;

    LoopProfile empty;
    empty.loopId = 11;
    e.profiles[11] = empty;

    SelectedStl sel;
    sel.loopId = 7;
    sel.prediction.loopId = 7;
    sel.prediction.avgThreadSize = 289.875;
    sel.prediction.itersPerEntry = 333.333333333333333;
    sel.prediction.coverageCycles = 1e9;
    sel.prediction.depFrequency = 0.012;
    sel.prediction.avgArcDistance = 1.5;
    sel.prediction.avgArcSlack = -0.75;
    sel.prediction.overflowFrequency = 0.004;
    sel.prediction.avgLoadLines = 17;
    sel.prediction.avgStoreLines = 5;
    sel.prediction.predictedSpeedup = 2.3456789012345678;
    sel.prediction.predictedTlsCycles = 42625244.0;
    sel.prediction.eligible = true;
    sel.prediction.reason = "covered; slack ok";
    sel.plan.syncLock = true;
    sel.plan.syncLocalVar = 2;
    sel.plan.multilevel = true;
    sel.plan.multilevelInner = 9;
    sel.plan.hoistHandlers = true;
    e.selections.push_back(sel);
    return e;
}

void
expectStatEq(const SampleStat &a, const SampleStat &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.m2(), b.m2());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

TEST(CrystalEntry, SerializationRoundTripsExactly)
{
    const CrystalEntry e = sampleEntry();
    CrystalEntry r;
    std::string err;
    ASSERT_TRUE(CrystalEntry::deserialize(e.serialize(), r, &err))
        << err;

    EXPECT_EQ(r.schemaVersion, e.schemaVersion);
    EXPECT_EQ(r.workload, e.workload);
    EXPECT_EQ(r.programHash, e.programHash);
    EXPECT_EQ(r.argsHash, e.argsHash);
    EXPECT_EQ(r.configHash, e.configHash);
    // Doubles must survive bit-for-bit (hex-float round trip).
    EXPECT_EQ(r.predictedSpeedup, e.predictedSpeedup);
    EXPECT_EQ(r.profilingSlowdown, e.profilingSlowdown);
    EXPECT_EQ(r.profilingCycles, e.profilingCycles);

    ASSERT_EQ(r.profiles.size(), e.profiles.size());
    const LoopProfile &a = e.profiles.at(7);
    const LoopProfile &b = r.profiles.at(7);
    EXPECT_EQ(b.loopId, a.loopId);
    EXPECT_EQ(b.entries, a.entries);
    EXPECT_EQ(b.iterations, a.iterations);
    EXPECT_EQ(b.skippedEntries, a.skippedEntries);
    EXPECT_EQ(b.depThreads, a.depThreads);
    EXPECT_EQ(b.overflowThreads, a.overflowThreads);
    expectStatEq(b.threadSize, a.threadSize);
    expectStatEq(b.arcDistance, a.arcDistance);
    expectStatEq(b.arcStoreOffset, a.arcStoreOffset);
    expectStatEq(b.arcLoadOffset, a.arcLoadOffset);
    expectStatEq(b.loadLines, a.loadLines);
    expectStatEq(b.storeLines, a.storeLines);
    ASSERT_EQ(b.arcSites.size(), a.arcSites.size());
    for (auto ia = a.arcSites.begin(), ib = b.arcSites.begin();
         ia != a.arcSites.end(); ++ia, ++ib) {
        EXPECT_EQ(ib->first.isLocal, ia->first.isLocal);
        EXPECT_EQ(ib->first.id, ia->first.id);
        EXPECT_EQ(ib->second, ia->second);
    }
    EXPECT_TRUE(r.profiles.count(11));

    ASSERT_EQ(r.selections.size(), 1u);
    const SelectedStl &sa = e.selections[0];
    const SelectedStl &sb = r.selections[0];
    EXPECT_EQ(sb.loopId, sa.loopId);
    EXPECT_EQ(sb.prediction.avgThreadSize,
              sa.prediction.avgThreadSize);
    EXPECT_EQ(sb.prediction.itersPerEntry,
              sa.prediction.itersPerEntry);
    EXPECT_EQ(sb.prediction.avgArcSlack, sa.prediction.avgArcSlack);
    EXPECT_EQ(sb.prediction.predictedSpeedup,
              sa.prediction.predictedSpeedup);
    EXPECT_EQ(sb.prediction.eligible, sa.prediction.eligible);
    EXPECT_EQ(sb.prediction.reason, sa.prediction.reason);
    EXPECT_EQ(sb.plan.syncLock, sa.plan.syncLock);
    EXPECT_EQ(sb.plan.syncLocalVar, sa.plan.syncLocalVar);
    EXPECT_EQ(sb.plan.multilevel, sa.plan.multilevel);
    EXPECT_EQ(sb.plan.multilevelInner, sa.plan.multilevelInner);
    EXPECT_EQ(sb.plan.hoistHandlers, sa.plan.hoistHandlers);
}

TEST(CrystalEntry, RejectsTruncation)
{
    const std::string text = sampleEntry().serialize();
    // Chop at several points including mid-checksum.
    for (std::size_t keep :
         {text.size() - 1, text.size() - 10, text.size() / 2,
          std::size_t{16}, std::size_t{0}}) {
        CrystalEntry out;
        std::string err;
        EXPECT_FALSE(CrystalEntry::deserialize(text.substr(0, keep),
                                               out, &err))
            << "accepted a " << keep << "-byte prefix";
    }
}

TEST(CrystalEntry, RejectsCorruption)
{
    const std::string text = sampleEntry().serialize();
    // Flip one byte in several places across the payload.
    for (std::size_t pos = 20; pos < text.size(); pos += 97) {
        std::string bad = text;
        bad[pos] ^= 0x20;
        if (bad == text)
            continue;
        CrystalEntry out;
        EXPECT_FALSE(CrystalEntry::deserialize(bad, out))
            << "accepted a flip at byte " << pos;
    }
}

TEST(CrystalEntry, RejectsSchemaMismatch)
{
    std::string text = sampleEntry().serialize();
    const std::string magic = "jrpm-crystal v1";
    ASSERT_EQ(text.compare(0, magic.size(), magic), 0);
    text.replace(0, magic.size(), "jrpm-crystal v999");
    CrystalEntry out;
    std::string err;
    EXPECT_FALSE(CrystalEntry::deserialize(text, out, &err));
}

TEST(CrystalEntry, MatchesComparesComponentHashes)
{
    const CrystalEntry e = sampleEntry();
    EXPECT_TRUE(e.matches(e.programHash, e.argsHash, e.configHash));
    EXPECT_FALSE(e.matches(e.programHash + 1, e.argsHash,
                           e.configHash));
    EXPECT_FALSE(e.matches(e.programHash, e.argsHash + 1,
                           e.configHash));
    EXPECT_FALSE(e.matches(e.programHash, e.argsHash,
                           e.configHash + 1));
}

TEST(CrystalFingerprint, SensitiveToEveryComponent)
{
    const std::uint64_t base = crystalFingerprint(1, 2, 3);
    EXPECT_NE(base, crystalFingerprint(2, 2, 3));
    EXPECT_NE(base, crystalFingerprint(1, 3, 3));
    EXPECT_NE(base, crystalFingerprint(1, 2, 4));
    EXPECT_EQ(base, crystalFingerprint(1, 2, 3));
}

TEST(CrystalFingerprint, SensitiveToProgramArgsAndConfig)
{
    Workload w = wl::workloadByName("Huffman");
    const std::uint64_t ph = hashProgram(w.program);

    BcProgram mutated = w.program;
    ASSERT_FALSE(mutated.methods.empty());
    ASSERT_FALSE(mutated.methods[0].code.empty());
    mutated.methods[0].code[0].imm ^= 1;
    EXPECT_NE(hashProgram(mutated), ph);

    EXPECT_NE(hashArgs({1, 2, 3}), hashArgs({1, 2, 4}));
    EXPECT_NE(hashArgs({1, 2, 3}), hashArgs({1, 2}));
    EXPECT_EQ(hashArgs({}), hashArgs({}));

    AnalyzerConfig an;
    TracerConfig tr;
    const std::uint64_t ch = hashAnalyzerConfig(an, tr);
    AnalyzerConfig an2 = an;
    an2.minPredictedSpeedup += 0.01;
    EXPECT_NE(hashAnalyzerConfig(an2, tr), ch);
    TracerConfig tr2 = tr;
    tr2.numBanks += 1;
    EXPECT_NE(hashAnalyzerConfig(an, tr2), ch);
}

TEST(CrystalRepo, StoreLookupInvalidate)
{
    TempDir td;
    CrystalRepo repo(td.path.string());
    const CrystalEntry e = sampleEntry();

    CrystalEntry out;
    EXPECT_FALSE(repo.lookup(e.fingerprint(), out));
    ASSERT_TRUE(repo.store(e));
    EXPECT_EQ(repo.size(), 1u);
    ASSERT_TRUE(repo.lookup(e.fingerprint(), out));
    EXPECT_EQ(out.workload, e.workload);
    EXPECT_EQ(out.predictedSpeedup, e.predictedSpeedup);

    EXPECT_TRUE(repo.invalidate(e.fingerprint()));
    EXPECT_FALSE(repo.invalidate(e.fingerprint()));
    EXPECT_FALSE(repo.lookup(e.fingerprint(), out));
    EXPECT_EQ(repo.size(), 0u);

    const CrystalStats st = repo.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(st.invalidations, 1u);
}

TEST(CrystalRepo, RejectsDamagedFilesOnDisk)
{
    TempDir td;
    CrystalRepo repo(td.path.string());
    const CrystalEntry e = sampleEntry();
    ASSERT_TRUE(repo.store(e));

    const std::string path = repo.pathFor(e.fingerprint());
    std::string text;
    {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    {
        std::ofstream outf(path, std::ios::trunc);
        outf << text.substr(0, text.size() / 2);
    }
    CrystalEntry out;
    EXPECT_FALSE(repo.lookup(e.fingerprint(), out));
    EXPECT_GE(repo.stats().rejects, 1u);
}

TEST(CrystalRepo, QuarantinesCorruptEntriesAside)
{
    TempDir td;
    CrystalRepo repo(td.path.string());
    const CrystalEntry e = sampleEntry();
    ASSERT_TRUE(repo.store(e));

    const std::string path = repo.pathFor(e.fingerprint());
    {
        std::ofstream outf(path, std::ios::trunc);
        outf << "jrpm-crystal v1\ngarbage from a torn write\n";
    }

    // First lookup rejects and moves the poison aside...
    CrystalEntry out;
    EXPECT_FALSE(repo.lookup(e.fingerprint(), out));
    EXPECT_EQ(repo.stats().rejects, 1u);
    EXPECT_EQ(repo.stats().quarantined, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));

    // ...so the second lookup is a clean miss, not another reject,
    // and a fresh store + lookup works again.
    EXPECT_FALSE(repo.lookup(e.fingerprint(), out));
    EXPECT_EQ(repo.stats().rejects, 1u);
    ASSERT_TRUE(repo.store(e));
    EXPECT_TRUE(repo.lookup(e.fingerprint(), out));
    EXPECT_EQ(out.workload, e.workload);
}

TEST(CrystalRepo, SweepsOnlyStaleWriterTempFiles)
{
    TempDir td;
    const CrystalEntry e = sampleEntry();
    {
        CrystalRepo first(td.path.string());
        ASSERT_TRUE(first.store(e));
    }

    // A crashed writer's leftover, quietly aging...
    const std::string stale =
        td.path.string() + "/0123456789abcdef.crystal.tmp.dead";
    // ...and a fresh one a live writer could still be filling.
    const std::string fresh =
        td.path.string() + "/fedcba9876543210.crystal.tmp.beef";
    for (const std::string &p : {stale, fresh})
        std::ofstream(p) << "partial";
    std::filesystem::last_write_time(
        stale, std::filesystem::file_time_type::clock::now() -
                   std::chrono::minutes(10));

    CrystalRepo repo(td.path.string());
    EXPECT_FALSE(std::filesystem::exists(stale));
    EXPECT_TRUE(std::filesystem::exists(fresh));
    EXPECT_EQ(repo.stats().tmpSwept, 1u);

    // The sweep never touched the real entry.
    CrystalEntry out;
    EXPECT_TRUE(repo.lookup(e.fingerprint(), out));
    EXPECT_EQ(repo.size(), 1u);
}

TEST(CrystalRepo, PublishesLiveMetrics)
{
    auto &reg = MetricsRegistry::global();
    reg.clear();
    TempDir td;
    CrystalRepo repo(td.path.string());

    CrystalEntry a = sampleEntry();
    CrystalEntry b = sampleEntry();
    b.argsHash ^= 0x5555;

    CrystalEntry out;
    EXPECT_FALSE(repo.lookup(a.fingerprint(), out)); // miss
    ASSERT_TRUE(repo.store(a));
    EXPECT_TRUE(repo.lookup(a.fingerprint(), out)); // hit
    ASSERT_TRUE(repo.store(b));
    ASSERT_TRUE(repo.invalidate(b.fingerprint()));

    EXPECT_EQ(reg.counter("crystal.misses").value(), 1u);
    EXPECT_EQ(reg.counter("crystal.hits").value(), 1u);
    EXPECT_EQ(reg.counter("crystal.stores").value(), 2u);
    EXPECT_EQ(reg.counter("crystal.invalidations").value(), 1u);
    reg.clear();
}

TEST(CrystalRepo, WarmModeParsing)
{
    EXPECT_EQ(parseWarmMode("cold"), WarmMode::Cold);
    EXPECT_EQ(parseWarmMode("warm"), WarmMode::Warm);
    EXPECT_EQ(parseWarmMode("auto"), WarmMode::Auto);
    EXPECT_STREQ(warmModeName(WarmMode::Cold), "cold");
    EXPECT_STREQ(warmModeName(WarmMode::Warm), "warm");
    EXPECT_STREQ(warmModeName(WarmMode::Auto), "auto");
}

} // namespace
} // namespace jrpm
