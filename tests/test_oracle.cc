/**
 * @file
 * Unit tests for the differential oracle's sparse image compare,
 * checked against a dense byte-by-byte reference diff.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/oracle.hh"
#include "memory/main_memory.hh"

namespace jrpm
{
namespace
{

using Regions = std::vector<std::pair<Addr, std::uint32_t>>;

constexpr std::uint32_t kPage = MemImage::kPageBytes;

/** What the image compare reports, computed densely. */
struct DenseDiff
{
    std::uint64_t diffBytes = 0;
    std::vector<MemDivergence> firstDiffs;
};

/** The oracle's image compare over full byte copies of both memories:
 *  every address of the common size, then the size difference. */
DenseDiff
denseDiff(const MainMemory &g, const MainMemory &a, const Regions &skip,
          std::size_t max_diffs)
{
    DenseDiff d;
    const std::uint32_t n = std::min(g.size(), a.size());
    for (Addr at = 0; at < n; ++at) {
        const std::uint8_t gb = g.readByte(at), ab = a.readByte(at);
        if (gb == ab)
            continue;
        bool skipped = false;
        for (const auto &[base, len] : skip)
            skipped = skipped || (at >= base && at - base < len);
        if (skipped)
            continue;
        ++d.diffBytes;
        if (d.firstDiffs.size() < max_diffs)
            d.firstDiffs.push_back({at, gb, ab});
    }
    d.diffBytes += std::max(g.size(), a.size()) - n;
    return d;
}

RunDigest
digestOf(const MainMemory &m, const Regions &skip)
{
    RunDigest d;
    d.halted = true;
    d.memChecksum = m.checksum(skip);
    d.memImage = std::make_shared<const MemImage>(m.image());
    return d;
}

/** Strict compare of @p g against @p a, checked field by field
 *  against the dense reference; returns the oracle's report. */
OracleReport
compareBoth(const MainMemory &g, const MainMemory &a,
            const Regions &skip = {}, std::size_t max_diffs = 8)
{
    OracleConfig cfg;
    cfg.mode = OracleMode::Strict;
    cfg.maxDiffs = max_diffs;
    const OracleReport rep = Oracle::compare(
        cfg, digestOf(g, skip), digestOf(a, skip), skip);
    const DenseDiff ref = denseDiff(g, a, skip, max_diffs);
    EXPECT_EQ(rep.diffBytes, ref.diffBytes);
    EXPECT_EQ(rep.memMatch, ref.diffBytes == 0 &&
                                g.checksum(skip) == a.checksum(skip));
    EXPECT_EQ(rep.firstDiffs.size(), ref.firstDiffs.size());
    for (std::size_t i = 0;
         i < std::min(rep.firstDiffs.size(), ref.firstDiffs.size());
         ++i) {
        EXPECT_EQ(rep.firstDiffs[i].addr, ref.firstDiffs[i].addr) << i;
        EXPECT_EQ(rep.firstDiffs[i].golden, ref.firstDiffs[i].golden);
        EXPECT_EQ(rep.firstDiffs[i].actual, ref.firstDiffs[i].actual);
    }
    return rep;
}

TEST(OracleImage, PageDirtiedButZeroOnOneSideMatches)
{
    MainMemory g(16 * kPage), a(16 * kPage);
    g.writeWord(3 * kPage + 8, 0x12345678);
    g.writeWord(3 * kPage + 8, 0);
    a.writeHalf(9 * kPage, 0);
    const OracleReport rep = compareBoth(g, a);
    EXPECT_TRUE(rep.match()) << rep.summary();
    EXPECT_EQ(rep.diffBytes, 0u);
}

TEST(OracleImage, DivergenceOnPageOnlyOneSideWrote)
{
    MainMemory g(16 * kPage), a(16 * kPage);
    g.writeWord(kPage, 0xaaaaaaaa);
    a.writeWord(kPage, 0xaaaaaaaa);
    a.writeWord(5 * kPage + 4, 0x01000302);
    const OracleReport rep = compareBoth(g, a);
    EXPECT_FALSE(rep.match());
    EXPECT_EQ(rep.diffBytes, 3u);
    ASSERT_EQ(rep.firstDiffs.size(), 3u);
    EXPECT_EQ(rep.firstDiffs[0].addr, 5 * kPage + 4);
    EXPECT_EQ(rep.firstDiffs[0].golden, 0);
    EXPECT_EQ(rep.firstDiffs[0].actual, 0x02);
    EXPECT_EQ(rep.firstDiffs[2].addr, 5 * kPage + 7);
    EXPECT_EQ(rep.firstDiffs[2].actual, 0x01);
}

TEST(OracleImage, FirstDiffsAscendAcrossInterleavedPages)
{
    MainMemory g(12 * kPage), a(12 * kPage);
    // golden writes pages 1, 3, 5; actual writes 2, 3, 4.
    g.writeByte(kPage + 7, 1);
    g.writeByte(3 * kPage + 9, 2);
    g.writeByte(5 * kPage, 3);
    a.writeByte(2 * kPage + 1, 4);
    a.writeByte(3 * kPage + 2, 5);
    a.writeByte(4 * kPage + kPage - 1, 6);
    const OracleReport rep = compareBoth(g, a);
    ASSERT_EQ(rep.firstDiffs.size(), 6u);
    for (std::size_t i = 1; i < rep.firstDiffs.size(); ++i)
        EXPECT_LT(rep.firstDiffs[i - 1].addr, rep.firstDiffs[i].addr);
}

TEST(OracleImage, SkipRegionsAndMaxDiffsHonoured)
{
    MainMemory g(8 * kPage + 100), a(8 * kPage + 100);
    for (Addr at = 2 * kPage - 16; at < 2 * kPage + 16; at += 4)
        a.writeWord(at, 0xffffffff);
    a.writeByte(8 * kPage + 99, 9);
    g.writeByte(8 * kPage + 98, 9);
    // Skip a region straddling the page edge, plus the last bytes.
    const Regions skip = {{2 * kPage - 6, 12}, {8 * kPage + 99, 1}};
    const OracleReport rep = compareBoth(g, a, skip, 3);
    EXPECT_EQ(rep.diffBytes, 32u - 12u + 1u);
    ASSERT_EQ(rep.firstDiffs.size(), 3u);
    EXPECT_EQ(rep.firstDiffs[0].addr, 2 * kPage - 16);
    // A divergence wholly inside a skip region is no divergence.
    MainMemory b(8 * kPage + 100);
    b.writeByte(8 * kPage + 98, 9);
    b.writeHalf(2 * kPage - 2, 0x7777);
    const OracleReport same = compareBoth(g, b, skip);
    EXPECT_TRUE(same.match()) << same.summary();
}

TEST(OracleImage, SizeMismatchCountsTheDifference)
{
    MainMemory g(4 * kPage), a(3 * kPage + 10);
    g.writeByte(3 * kPage + 20, 1);
    a.writeByte(3 * kPage + 5, 2);
    const OracleReport rep = compareBoth(g, a);
    EXPECT_FALSE(rep.match());
    EXPECT_EQ(rep.diffBytes, 1u + (kPage - 10));
}

} // namespace
} // namespace jrpm
