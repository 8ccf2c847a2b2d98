/**
 * @file
 * Flat simulated main memory of the Hydra CMP.
 *
 * Architectural state lives here; speculative state lives in the
 * per-CPU store buffers until it commits (ASPLOS'98 Hydra data
 * speculation design).  Little-endian, 32-bit address space.
 */

#ifndef JRPM_MEMORY_MAIN_MEMORY_HH
#define JRPM_MEMORY_MAIN_MEMORY_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "memory/mem_image.hh"

namespace jrpm
{

/**
 * Byte-addressable simulated DRAM.
 *
 * The image is calloc-backed rather than a zero-filled std::vector:
 * for the default 64 MB the allocator serves the request straight
 * from anonymous zero pages, so construction costs microseconds and
 * only the pages a workload actually touches are ever faulted in.
 * Constructing a Machine per run used to spend tens of milliseconds
 * memset-ing memory the guest never reads.
 *
 * One dirty byte per 4 KB page, set by every write, keeps the
 * invariant that a page never marked is all zero.  Snapshots and
 * checksums then cost what the guest wrote, not the memory size.
 */
class MainMemory
{
  public:
    /** @param bytes size of the simulated physical memory */
    explicit MainMemory(std::uint32_t bytes);
    ~MainMemory();

    MainMemory(const MainMemory &) = delete;
    MainMemory &operator=(const MainMemory &) = delete;

    std::uint32_t size() const { return nBytes; }

    /** True if [addr, addr+len) lies inside the simulated memory. */
    bool
    valid(Addr addr, std::uint32_t len = 1) const
    {
        return addr <= nBytes && len <= nBytes - addr;
    }

    /** Read an aligned 32-bit word. */
    Word readWord(Addr addr) const;
    /** Write an aligned 32-bit word. */
    void writeWord(Addr addr, Word value);

    std::uint8_t readByte(Addr addr) const;
    void writeByte(Addr addr, std::uint8_t value);

    std::uint16_t readHalf(Addr addr) const;
    void writeHalf(Addr addr, std::uint16_t value);

    /** Zero-fill a region (heap initialization). */
    void clear(Addr addr, std::uint32_t len);

    /** Sparse copy of the dirty pages (differential oracle). */
    MemImage image() const;

    /**
     * FNV-1a 64-bit checksum of the whole image, skipping the given
     * [base, base+len) regions.  @p skip must be sorted by base and
     * non-overlapping.  Clean pages are folded in with
     * Fnv1a::zeros(), so the value equals a byte-by-byte hash.
     */
    std::uint64_t
    checksum(const std::vector<std::pair<Addr, std::uint32_t>> &skip =
                 {}) const;

  private:
    void markDirty(Addr addr) { dirty[addr >> MemImage::kPageShift] = 1; }

    std::uint8_t *data = nullptr; ///< calloc'd, lazily-zero pages
    std::uint32_t nBytes = 0;
    std::vector<std::uint8_t> dirty; ///< per page: ever written
};

} // namespace jrpm

#endif // JRPM_MEMORY_MAIN_MEMORY_HH
