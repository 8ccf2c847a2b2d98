#include "spec_state.hh"

#include <algorithm>

#include "common/hostprof.hh"
#include "common/logging.hh"
#include "memory/main_memory.hh"

namespace jrpm
{

StoreBuffer::StoreBuffer(const SpecBufferConfig &cfg)
    : config(cfg)
{
}

bool
StoreBuffer::wouldOverflow(Addr addr) const
{
    std::uint32_t cap = config.storeBufferLines;
    if (lineLimit && lineLimit < cap)
        cap = lineLimit;
    if (lines.size() < cap)
        return false;
    return !lines.contains(lineBase(addr));
}

void
StoreBuffer::limitLines(std::uint32_t n)
{
    lineLimit = n;
}

bool
StoreBuffer::corruptOneByte(std::uint64_t pick, Addr &corrupted)
{
    // Count the buffered bytes, then walk to the pick-th one in
    // line-base order so the victim is stable for a given buffer
    // content regardless of hash-map iteration order.
    std::vector<Addr> bases = bufferedLines();
    std::sort(bases.begin(), bases.end());
    std::uint64_t total = 0;
    for (Addr base : bases)
        total += static_cast<std::uint64_t>(
            __builtin_popcount(lines.find(base)->mask));
    if (total == 0)
        return false;
    std::uint64_t target = pick % total;
    for (Addr base : bases) {
        Line &line = *lines.find(base);
        for (std::uint32_t b = 0; b < config.lineBytes; ++b) {
            if (!(line.mask & (1u << b)))
                continue;
            if (target-- == 0) {
                line.bytes[b] ^= static_cast<std::uint8_t>(
                    1u << (pick % 8));
                corrupted = base + b;
                return true;
            }
        }
    }
    return false; // unreachable
}

void
StoreBuffer::write(Addr addr, Word value, std::uint32_t len)
{
    Line &line = lines[lineBase(addr)];
    writeSig.insert(lineBase(addr));
    const std::uint32_t off = addr & (config.lineBytes - 1);
    if (off + len > config.lineBytes)
        panic("store buffer write crosses a line at 0x%08x", addr);
    for (std::uint32_t b = 0; b < len; ++b) {
        line.bytes[off + b] = static_cast<std::uint8_t>(value >> (8 * b));
        line.mask |= 1u << (off + b);
    }
}

Coverage
StoreBuffer::coverage(Addr addr, std::uint32_t len) const
{
    const Line *line = lines.find(lineBase(addr));
    if (!line)
        return Coverage::None;
    const std::uint32_t off = addr & (config.lineBytes - 1);
    std::uint32_t covered = 0;
    for (std::uint32_t b = 0; b < len; ++b)
        if (line->mask & (1u << (off + b)))
            ++covered;
    if (covered == 0)
        return Coverage::None;
    return covered == len ? Coverage::Full : Coverage::Partial;
}

Word
StoreBuffer::readMerge(Addr addr, std::uint32_t len,
                       Word underlying) const
{
    const Line *line = lines.find(lineBase(addr));
    if (!line)
        return underlying;
    const std::uint32_t off = addr & (config.lineBytes - 1);
    Word out = 0;
    for (std::uint32_t b = 0; b < len; ++b) {
        std::uint8_t byte;
        if (line->mask & (1u << (off + b)))
            byte = line->bytes[off + b];
        else
            byte = static_cast<std::uint8_t>(underlying >> (8 * b));
        out |= static_cast<Word>(byte) << (8 * b);
    }
    return out;
}

void
StoreBuffer::drainTo(MainMemory &mem)
{
    JRPM_HPROF(BufferDrain);
    lines.forEach([&](Addr base, const Line &line) {
        for (std::uint32_t b = 0; b < config.lineBytes; ++b) {
            if (line.mask & (1u << b)) {
                if (mem.valid(base + b))
                    mem.writeByte(base + b, line.bytes[b]);
                // A speculative wild store past memory is dropped; a
                // committing (head) thread never produces one because
                // the CPU faults first.
            }
        }
    });
    lines.clear();
    writeSig.clear();
}

void
StoreBuffer::clear()
{
    lines.clear();
    writeSig.clear();
}

std::vector<Addr>
StoreBuffer::bufferedLines() const
{
    std::vector<Addr> out;
    out.reserve(lines.size());
    lines.forEach([&](Addr base, const Line &) { out.push_back(base); });
    return out;
}

SpecTags::SpecTags(const SpecBufferConfig &cfg)
    : config(cfg),
      numSets(cfg.loadBufferLines / cfg.loadBufferAssoc),
      readLinesPerSet(numSets, 0)
{
    if ((numSets & (numSets - 1)) != 0)
        panic("load buffer set count %u not a power of two", numSets);
}

bool
SpecTags::recordLoad(Addr addr, bool locally_written)
{
    const Addr word = wordBase(addr);
    std::uint8_t &flags = wordFlags[word];
    if (!locally_written && !(flags & kWritten)) {
        flags |= kRead;
        readSig.insert(word);
    }

    const Addr line = lineBase(addr);
    if (readLines.insert(line)) {
        std::uint32_t &count = readLinesPerSet[setOf(addr)];
        if (count >= config.loadBufferAssoc ||
            totalReadLines >= config.loadBufferLines) {
            // Can't pin the line: speculative state overflow.
            readLines.cancelInsert(line);
            return false;
        }
        ++count;
        ++totalReadLines;
    }
    return true;
}

void
SpecTags::forceRecordLoad(Addr addr, bool locally_written)
{
    const Addr word = wordBase(addr);
    std::uint8_t &flags = wordFlags[word];
    if (!locally_written && !(flags & kWritten)) {
        flags |= kRead;
        readSig.insert(word);
    }
    const Addr line = lineBase(addr);
    if (readLines.insert(line)) {
        ++readLinesPerSet[setOf(addr)];
        ++totalReadLines;
    }
}

void
SpecTags::recordStore(Addr addr)
{
    wordFlags[wordBase(addr)] |= kWritten;
}

bool
SpecTags::readBeforeWrite(Addr addr) const
{
    const std::uint8_t *flags = wordFlags.find(wordBase(addr));
    return flags && (*flags & kRead);
}

bool
SpecTags::writtenLocally(Addr addr) const
{
    const std::uint8_t *flags = wordFlags.find(wordBase(addr));
    return flags && (*flags & kWritten);
}

void
SpecTags::clear()
{
    wordFlags.clear();
    readLines.clear();
    std::fill(readLinesPerSet.begin(), readLinesPerSet.end(), 0);
    totalReadLines = 0;
    readSig.clear();
}

} // namespace jrpm
