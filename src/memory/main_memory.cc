#include "main_memory.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/hash.hh"
#include "common/logging.hh"

namespace jrpm
{

MainMemory::MainMemory(std::uint32_t bytes)
    : nBytes(bytes),
      dirty((static_cast<std::size_t>(bytes) + MemImage::kPageBytes - 1) >>
            MemImage::kPageShift)
{
    // calloc, not new[]+memset: above the allocator's mmap threshold
    // the zeroing is satisfied by fresh anonymous pages, so a 64 MB
    // image costs nothing until the guest actually touches it.
    data = static_cast<std::uint8_t *>(std::calloc(bytes ? bytes : 1,
                                                   1));
    if (!data)
        fatal("cannot allocate %u bytes of simulated memory", bytes);
}

MainMemory::~MainMemory()
{
    std::free(data);
}

Word
MainMemory::readWord(Addr addr) const
{
    if (addr % 4 != 0)
        panic("unaligned word read at 0x%08x", addr);
    if (!valid(addr, 4))
        panic("word read out of range at 0x%08x", addr);
    return static_cast<Word>(data[addr]) |
           static_cast<Word>(data[addr + 1]) << 8 |
           static_cast<Word>(data[addr + 2]) << 16 |
           static_cast<Word>(data[addr + 3]) << 24;
}

void
MainMemory::writeWord(Addr addr, Word value)
{
    if (addr % 4 != 0)
        panic("unaligned word write at 0x%08x", addr);
    if (!valid(addr, 4))
        panic("word write out of range at 0x%08x", addr);
    markDirty(addr);
    data[addr] = static_cast<std::uint8_t>(value);
    data[addr + 1] = static_cast<std::uint8_t>(value >> 8);
    data[addr + 2] = static_cast<std::uint8_t>(value >> 16);
    data[addr + 3] = static_cast<std::uint8_t>(value >> 24);
}

std::uint8_t
MainMemory::readByte(Addr addr) const
{
    if (!valid(addr, 1))
        panic("byte read out of range at 0x%08x", addr);
    return data[addr];
}

void
MainMemory::writeByte(Addr addr, std::uint8_t value)
{
    if (!valid(addr, 1))
        panic("byte write out of range at 0x%08x", addr);
    markDirty(addr);
    data[addr] = value;
}

std::uint16_t
MainMemory::readHalf(Addr addr) const
{
    if (addr % 2 != 0)
        panic("unaligned half read at 0x%08x", addr);
    if (!valid(addr, 2))
        panic("half read out of range at 0x%08x", addr);
    return static_cast<std::uint16_t>(
        data[addr] | data[addr + 1] << 8);
}

void
MainMemory::writeHalf(Addr addr, std::uint16_t value)
{
    if (addr % 2 != 0)
        panic("unaligned half write at 0x%08x", addr);
    if (!valid(addr, 2))
        panic("half write out of range at 0x%08x", addr);
    markDirty(addr);
    data[addr] = static_cast<std::uint8_t>(value);
    data[addr + 1] = static_cast<std::uint8_t>(value >> 8);
}

void
MainMemory::clear(Addr addr, std::uint32_t len)
{
    if (!valid(addr, len))
        panic("clear out of range at 0x%08x+%u", addr, len);
    // A page never written is still zero: only dirty ones need it.
    const std::size_t end = static_cast<std::size_t>(addr) + len;
    for (std::size_t at = addr; at < end;) {
        const std::size_t page = at >> MemImage::kPageShift;
        const std::size_t next =
            std::min((page + 1) << MemImage::kPageShift, end);
        if (dirty[page])
            std::memset(data + at, 0, next - at);
        at = next;
    }
}

MemImage
MainMemory::image() const
{
    MemImage img;
    img.memBytes = nBytes;
    for (std::size_t page = 0; page < dirty.size(); ++page) {
        if (!dirty[page])
            continue;
        const std::size_t begin = page << MemImage::kPageShift;
        const std::size_t end = std::min<std::size_t>(
            begin + MemImage::kPageBytes, nBytes);
        img.pages.push_back(static_cast<std::uint32_t>(page));
        img.bytes.insert(img.bytes.end(), data + begin, data + end);
    }
    return img;
}

std::uint64_t
MainMemory::checksum(
    const std::vector<std::pair<Addr, std::uint32_t>> &skip) const
{
    Fnv1a h;
    std::size_t at = 0;
    // Hash dirty pages byte by byte; fold each clean run in at once.
    auto mix = [&](std::size_t begin, std::size_t end) {
        std::size_t zeros = 0;
        while (begin < end) {
            const std::size_t page = begin >> MemImage::kPageShift;
            const std::size_t next =
                std::min((page + 1) << MemImage::kPageShift, end);
            if (dirty[page]) {
                h.zeros(zeros).bytes(data + begin, next - begin);
                zeros = 0;
            } else {
                zeros += next - begin;
            }
            begin = next;
        }
        h.zeros(zeros);
    };
    for (const auto &[base, len] : skip) {
        const std::size_t lo = std::min<std::size_t>(base, nBytes);
        const std::size_t hi = std::min<std::size_t>(
            static_cast<std::size_t>(base) + len, nBytes);
        if (lo < at)
            panic("checksum skip regions unsorted at 0x%08x", base);
        mix(at, lo);
        at = hi;
    }
    mix(at, nBytes);
    return h.value();
}

} // namespace jrpm
