/**
 * @file
 * Sparse host DRAM model. Backing pages are allocated lazily so the
 * simulation can expose a large physical address space while only
 * paying for pages that are actually touched. Synthetic (length-only)
 * transfers never allocate backing store.
 *
 * Hot DMA windows (bounce buffers, the metadata ring) can be pinned
 * as contiguous arenas: raw() then hands the data plane a stable
 * pointer so seal/open run in place in the "DMA-able" memory itself,
 * with zero staging copies — the simulated analogue of pinned,
 * IOMMU-mapped pages. Arenas come from calloc, so the OS still
 * provides the backing lazily; residentPages() keeps counting only
 * the sparse pages outside any arena.
 */

#ifndef CCAI_PCIE_HOST_MEMORY_HH
#define CCAI_PCIE_HOST_MEMORY_HH

#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace ccai::pcie
{

/**
 * Byte-addressable sparse memory with 4 KiB backing pages and
 * optionally pinned contiguous arenas.
 */
class HostMemory
{
  public:
    static constexpr std::uint64_t kPageSize = 4096;

    /** Write @p data at @p addr. */
    void write(Addr addr, const Bytes &data);
    /** Write the @p len bytes at @p src to @p addr. */
    void write(Addr addr, const std::uint8_t *src, std::uint64_t len);

    /** Read @p len bytes from @p addr (unwritten bytes read as 0). */
    Bytes read(Addr addr, std::uint64_t len) const;
    /**
     * Read @p len bytes from @p addr into @p out, which may hold stale
     * bytes (a pooled buffer): every byte is written once, and only
     * the bytes no page or arena backs are zeroed.
     */
    void read(Addr addr, std::uint8_t *out, std::uint64_t len) const;

    /** Write a little-endian 64-bit word. */
    void write64(Addr addr, std::uint64_t value);

    /** Read a little-endian 64-bit word. */
    std::uint64_t read64(Addr addr) const;

    /**
     * Pin [base, base+size) as one contiguous zero-initialized
     * arena. Idempotent for an identical range; must not overlap a
     * different arena. Existing sparse-page content inside the range
     * is migrated into the arena.
     */
    void pinRange(Addr base, std::uint64_t size);

    /**
     * Stable raw pointer covering [addr, addr+len) when that range
     * lies fully inside one pinned arena; nullptr otherwise. The
     * pointer stays valid for the lifetime of the HostMemory.
     */
    std::uint8_t *raw(Addr addr, std::uint64_t len);
    const std::uint8_t *raw(Addr addr, std::uint64_t len) const;

    /** True when raw(addr, len) would succeed. */
    bool
    pinned(Addr addr, std::uint64_t len) const
    {
        return raw(addr, len) != nullptr;
    }

    /** Zero-fill: drop sparse pages, re-zero pinned arenas. */
    void clear();

    /** Number of resident sparse backing pages (pinned arenas are
     * not counted — their backing is the OS's business). */
    size_t residentPages() const { return pages_.size(); }

  private:
    using Page = std::unique_ptr<std::uint8_t[]>;

    struct FreeDeleter
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    /** A pinned contiguous window. */
    struct Arena
    {
        Addr base = 0;
        std::uint64_t size = 0;
        std::unique_ptr<std::uint8_t[], FreeDeleter> mem;
    };

    std::uint8_t *pageFor(Addr addr, bool allocate);
    const std::uint8_t *pageFor(Addr addr) const;
    const Arena *arenaFor(Addr addr) const;
    /**
     * The run of at most @p len bytes from @p addr that one arena or
     * one page holds: its bytes, or nullptr when nothing backs them.
     * @p take receives the run's length.
     */
    const std::uint8_t *segment(Addr addr, std::uint64_t len,
                                std::uint64_t &take) const;

    std::unordered_map<std::uint64_t, Page> pages_;
    std::vector<Arena> arenas_;
};

} // namespace ccai::pcie

#endif // CCAI_PCIE_HOST_MEMORY_HH
