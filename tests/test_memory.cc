/**
 * @file
 * Unit tests for main memory, the cache timing model, and the
 * speculative buffers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "memory/cache.hh"
#include "memory/main_memory.hh"
#include "memory/spec_state.hh"

namespace jrpm
{
namespace
{

TEST(MainMemory, WordByteHalfRoundTrip)
{
    MainMemory m(4096);
    m.writeWord(0x100, 0xdeadbeef);
    EXPECT_EQ(m.readWord(0x100), 0xdeadbeefu);
    // Little endian layout.
    EXPECT_EQ(m.readByte(0x100), 0xef);
    EXPECT_EQ(m.readByte(0x103), 0xde);
    EXPECT_EQ(m.readHalf(0x100), 0xbeef);
    EXPECT_EQ(m.readHalf(0x102), 0xdead);
    m.writeByte(0x100, 0x01);
    EXPECT_EQ(m.readWord(0x100), 0xdeadbe01u);
    m.writeHalf(0x102, 0x1234);
    EXPECT_EQ(m.readWord(0x100), 0x1234be01u);
}

TEST(MainMemory, ValidBounds)
{
    MainMemory m(64);
    EXPECT_TRUE(m.valid(0, 64));
    EXPECT_TRUE(m.valid(60, 4));
    EXPECT_FALSE(m.valid(61, 4));
    EXPECT_FALSE(m.valid(64, 1));
    // Wrap-around attempts must not pass.
    EXPECT_FALSE(m.valid(0xfffffffc, 8));
}

TEST(MainMemoryDeathTest, UnalignedPanics)
{
    MainMemory m(64);
    EXPECT_DEATH(m.readWord(2), "unaligned");
    EXPECT_DEATH(m.writeHalf(1, 0), "unaligned");
}

TEST(MainMemory, ClearZeroesRegion)
{
    MainMemory m(64);
    m.writeWord(8, 0xffffffff);
    m.clear(8, 4);
    EXPECT_EQ(m.readWord(8), 0u);
}

/** Full byte copy of @p m, read through the public interface. */
std::vector<std::uint8_t>
denseCopy(const MainMemory &m)
{
    std::vector<std::uint8_t> out(m.size());
    for (Addr a = 0; a < m.size(); ++a)
        out[a] = m.readByte(a);
    return out;
}

/** Byte-by-byte FNV-1a over @p bytes outside the sorted @p skip. */
std::uint64_t
denseChecksum(const std::vector<std::uint8_t> &bytes,
              const std::vector<std::pair<Addr, std::uint32_t>> &skip)
{
    Fnv1a h;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        bool skipped = false;
        for (const auto &[base, len] : skip)
            skipped = skipped || (i >= base && i - base < len);
        if (!skipped)
            h.byte(bytes[i]);
    }
    return h.value();
}

constexpr std::uint32_t kPage = MemImage::kPageBytes;

TEST(MainMemory, ChecksumMatchesDenseReference)
{
    // Not a page multiple: the last page is short.
    MainMemory m(9 * kPage + 1234);
    const std::vector<std::pair<Addr, std::uint32_t>> none;
    EXPECT_EQ(m.checksum(), denseChecksum(denseCopy(m), none));

    // Scattered writes of every width, including the short page.
    m.writeWord(0x10, 0xdeadbeef);
    m.writeByte(3 * kPage - 1, 0x5a);
    m.writeHalf(3 * kPage, 0x1234);
    m.writeWord(6 * kPage + 8, 0x01020304);
    m.writeByte(9 * kPage + 1233, 0x77);
    // A write that puts a zero back leaves its page dirty.
    m.writeWord(7 * kPage + 4, 0);
    // clear() across a page boundary, into a never-written page.
    m.writeWord(4 * kPage - 8, 0xffffffff);
    m.writeWord(4 * kPage - 4, 0xeeeeeeee);
    m.clear(4 * kPage - 6, 16);
    EXPECT_EQ(m.readWord(4 * kPage - 8), 0x0000ffffu);

    const std::vector<std::uint8_t> dense = denseCopy(m);
    EXPECT_EQ(m.checksum(), denseChecksum(dense, none));
    // Skip regions straddling page edges, one running off the end.
    const std::vector<std::pair<Addr, std::uint32_t>> skip = {
        {8, 4},
        {3 * kPage - 3, 6},
        {5 * kPage - 2, kPage + 4},
        {9 * kPage + 1000, 1000},
    };
    EXPECT_EQ(m.checksum(skip), denseChecksum(dense, skip));
}

TEST(MainMemory, ChecksumOfSubPageMemory)
{
    MainMemory m(64);
    m.writeHalf(62, 0xabcd);
    const std::vector<std::pair<Addr, std::uint32_t>> skip = {{4, 8}};
    EXPECT_EQ(m.checksum(skip), denseChecksum(denseCopy(m), skip));
}

TEST(MainMemory, PagesAbsentFromImageReadZero)
{
    const std::uint32_t bytes = 7 * kPage + 100;
    MainMemory m(bytes);
    EXPECT_TRUE(m.image().pages.empty());
    m.writeWord(kPage + 12, 0x11223344);
    m.writeByte(7 * kPage + 99, 0x42);
    m.writeHalf(5 * kPage, 0);
    // Clearing never-written pages must not list them.
    m.clear(2 * kPage, 3 * kPage);

    const MemImage img = m.image();
    EXPECT_EQ(img.memBytes, bytes);
    EXPECT_EQ(img.pages, (std::vector<std::uint32_t>{1, 5, 7}));
    EXPECT_EQ(img.size(), 2 * kPage + 100);
    std::size_t listed = 0;
    for (std::uint32_t page = 0; page * kPage < bytes; ++page) {
        const Addr begin = page * kPage;
        const Addr end = std::min(begin + kPage, bytes);
        const bool inImage =
            listed < img.pages.size() && img.pages[listed] == page;
        for (Addr a = begin; a < end; ++a) {
            if (inImage)
                ASSERT_EQ(img.page(listed)[a - begin], m.readByte(a))
                    << "addr " << a;
            else
                ASSERT_EQ(m.readByte(a), 0) << "addr " << a;
        }
        listed += inImage;
    }
    EXPECT_EQ(listed, img.pages.size());
}

TEST(MemImage, ForEachDiffVisitsDenseDiffInOrder)
{
    // Sizes differ: only the common prefix is walked.
    MainMemory a(6 * kPage + 10), b(5 * kPage + 300);
    a.writeWord(kPage + 4, 0x01020304);
    b.writeWord(kPage + 4, 0x01ff0304);
    a.writeByte(2 * kPage, 9);       // page only a wrote
    b.writeWord(3 * kPage + 8, 0);   // dirty on one side, still zero
    b.writeHalf(4 * kPage + 2, 0x0700);
    a.writeByte(5 * kPage + 299, 1); // last common byte
    a.writeByte(5 * kPage + 300, 2); // past b's end: not visited

    std::vector<std::tuple<Addr, int, int>> seen, dense;
    forEachDiff(a.image(), b.image(),
                [&](Addr at, std::uint8_t x, std::uint8_t y) {
                    seen.emplace_back(at, x, y);
                });
    for (Addr at = 0; at < b.size(); ++at)
        if (a.readByte(at) != b.readByte(at))
            dense.emplace_back(at, a.readByte(at), b.readByte(at));
    EXPECT_EQ(seen, dense);
    EXPECT_EQ(seen.size(), 4u);
}

TEST(CacheModel, HitAfterFill)
{
    CacheModel c(1024, 32, 2);
    EXPECT_FALSE(c.access(0x40));
    EXPECT_TRUE(c.access(0x40));
    EXPECT_TRUE(c.access(0x5c)); // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheModel, LruEvictionWithinSet)
{
    // 2-way, 32B lines, 1024B total -> 16 sets; lines mapping to the
    // same set are 16*32 = 512 bytes apart.
    CacheModel c(1024, 32, 2);
    EXPECT_FALSE(c.access(0x0));
    EXPECT_FALSE(c.access(0x200));
    EXPECT_TRUE(c.access(0x0));    // refresh LRU of line 0
    EXPECT_FALSE(c.access(0x400)); // evicts 0x200 (LRU)
    EXPECT_TRUE(c.access(0x0));
    EXPECT_FALSE(c.access(0x200)); // was evicted
}

TEST(CacheModel, InvalidateAndFlush)
{
    CacheModel c(1024, 32, 2);
    c.access(0x40);
    EXPECT_TRUE(c.probe(0x40));
    c.invalidate(0x44); // same line
    EXPECT_FALSE(c.probe(0x40));
    c.access(0x40);
    c.flush();
    EXPECT_FALSE(c.probe(0x40));
}

TEST(CacheModel, FullyAssociativeWhenAssocZero)
{
    CacheModel c(128, 32, 0); // 4 lines, one set
    c.access(0x0);
    c.access(0x1000);
    c.access(0x2000);
    c.access(0x3000);
    EXPECT_TRUE(c.probe(0x0));
    c.access(0x4000); // evicts LRU = 0x0
    EXPECT_FALSE(c.probe(0x0));
}

TEST(StoreBuffer, MergeOverUnderlying)
{
    StoreBuffer b;
    b.write(0x102, 0xab, 1);
    EXPECT_EQ(b.coverage(0x100, 4), Coverage::Partial);
    EXPECT_EQ(b.readMerge(0x100, 4, 0x11223344), 0x11ab3344u);
    b.write(0x100, 0xbeef, 2);
    EXPECT_EQ(b.readMerge(0x100, 4, 0x11223344), 0x11abbeefu);
    b.write(0x100, 0xcafebabe, 4);
    EXPECT_EQ(b.coverage(0x100, 4), Coverage::Full);
    EXPECT_EQ(b.readMerge(0x100, 4, 0), 0xcafebabeu);
}

TEST(StoreBuffer, OverflowAtCapacity)
{
    SpecBufferConfig cfg;
    cfg.storeBufferLines = 4;
    StoreBuffer b(cfg);
    for (Addr a = 0; a < 4 * 32; a += 32)
        b.write(a, 1, 4);
    EXPECT_EQ(b.lineCount(), 4u);
    EXPECT_FALSE(b.wouldOverflow(0x20)); // existing line
    EXPECT_TRUE(b.wouldOverflow(0x1000)); // new line
}

TEST(StoreBuffer, DrainCommitsBytesAndClears)
{
    MainMemory m(4096);
    m.writeWord(0x40, 0x11223344);
    StoreBuffer b;
    b.write(0x41, 0xff, 1);
    b.drainTo(m);
    EXPECT_EQ(m.readWord(0x40), 0x1122ff44u);
    EXPECT_TRUE(b.empty());
}

TEST(StoreBuffer, BufferedLinesEnumerates)
{
    StoreBuffer b;
    b.write(0x20, 1, 4);
    b.write(0x100, 2, 4);
    auto lines = b.bufferedLines();
    EXPECT_EQ(lines.size(), 2u);
}

TEST(SpecTags, ReadBeforeWriteSemantics)
{
    SpecTags t;
    EXPECT_TRUE(t.recordLoad(0x100, false));
    EXPECT_TRUE(t.readBeforeWrite(0x100));
    EXPECT_TRUE(t.readBeforeWrite(0x102)); // same word
    EXPECT_FALSE(t.readBeforeWrite(0x104));

    // Write-then-read is not RAW-vulnerable.
    t.recordStore(0x200);
    EXPECT_TRUE(t.recordLoad(0x200, true));
    EXPECT_FALSE(t.readBeforeWrite(0x200));
    EXPECT_TRUE(t.writtenLocally(0x200));
}

TEST(SpecTags, LoadBufferSetConflictOverflow)
{
    SpecBufferConfig cfg;
    cfg.loadBufferLines = 8;
    cfg.loadBufferAssoc = 2; // 4 sets
    SpecTags t(cfg);
    // Two lines in set 0 are fine; the third overflows.
    EXPECT_TRUE(t.recordLoad(0 * 4 * 32, false));
    EXPECT_TRUE(t.recordLoad(1 * 4 * 32, false));
    EXPECT_FALSE(t.recordLoad(2 * 4 * 32, false));
    // A line in another set still fits.
    EXPECT_TRUE(t.recordLoad(32, false));
    EXPECT_EQ(t.readLineCount(), 3u);
}

TEST(SpecTags, ClearResetsEverything)
{
    SpecTags t;
    t.recordLoad(0x100, false);
    t.recordStore(0x104);
    t.clear();
    EXPECT_FALSE(t.readBeforeWrite(0x100));
    EXPECT_FALSE(t.writtenLocally(0x104));
    EXPECT_EQ(t.readLineCount(), 0u);
}

} // namespace
} // namespace jrpm
