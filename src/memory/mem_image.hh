/**
 * @file
 * Sparse snapshot of simulated main memory, as the differential
 * oracle captures and compares it.
 */

#ifndef JRPM_MEMORY_MEM_IMAGE_HH
#define JRPM_MEMORY_MEM_IMAGE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"

namespace jrpm
{

/**
 * Sparse snapshot of a MainMemory: the bytes of every page ever
 * written, in ascending address order.  A page not listed is all
 * zero.  Listed page i sits at bytes[i * kPageBytes]; only the last
 * page of a memory whose size is not a page multiple is short.
 */
struct MemImage
{
    static constexpr std::uint32_t kPageShift = 12;
    static constexpr std::uint32_t kPageBytes = 1u << kPageShift;

    std::uint32_t memBytes = 0;       ///< size of the imaged memory
    std::vector<std::uint32_t> pages; ///< dirty page indices, ascending
    std::vector<std::uint8_t> bytes;  ///< their contents, back to back

    /** Bytes held: the dirty pages' contents. */
    std::size_t size() const { return bytes.size(); }

    /** Contents of listed page @p i (pages[i]). */
    const std::uint8_t *
    page(std::size_t i) const
    {
        return bytes.data() + i * kPageBytes;
    }
};

/** Called with an address and the byte each image holds there. */
using MemDiffVisitor =
    std::function<void(Addr addr, std::uint8_t a, std::uint8_t b)>;

/**
 * Visit every address below min(a.memBytes, b.memBytes) at which the
 * two images differ, in ascending address order.  A page only one
 * image lists is compared against zeros; pages equal on both sides
 * are skipped whole, so the cost is that of the pages either wrote.
 */
void forEachDiff(const MemImage &a, const MemImage &b,
                 const MemDiffVisitor &visit);

} // namespace jrpm

#endif // JRPM_MEMORY_MEM_IMAGE_HH
