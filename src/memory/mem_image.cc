#include "mem_image.hh"

#include <algorithm>
#include <array>
#include <cstring>

namespace jrpm
{

void
forEachDiff(const MemImage &a, const MemImage &b,
            const MemDiffVisitor &visit)
{
    static const std::array<std::uint8_t, MemImage::kPageBytes> zero{};
    const std::uint64_t n = std::min(a.memBytes, b.memBytes);
    std::size_t ai = 0, bi = 0;
    while (ai < a.pages.size() || bi < b.pages.size()) {
        const std::uint32_t ap =
            ai < a.pages.size() ? a.pages[ai] : UINT32_MAX;
        const std::uint32_t bp =
            bi < b.pages.size() ? b.pages[bi] : UINT32_MAX;
        const std::uint32_t p = std::min(ap, bp);
        const std::uint8_t *ab = ap == p ? a.page(ai++) : zero.data();
        const std::uint8_t *bb = bp == p ? b.page(bi++) : zero.data();
        const std::uint64_t base =
            static_cast<std::uint64_t>(p) << MemImage::kPageShift;
        if (base >= n)
            break;
        const std::size_t len = static_cast<std::size_t>(
            std::min<std::uint64_t>(MemImage::kPageBytes, n - base));
        if (std::memcmp(ab, bb, len) == 0)
            continue;
        for (std::size_t i = 0; i < len; ++i)
            if (ab[i] != bb[i])
                visit(static_cast<Addr>(base + i), ab[i], bb[i]);
    }
}

} // namespace jrpm
