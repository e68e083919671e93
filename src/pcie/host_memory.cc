#include "host_memory.hh"

#include <cstring>

#include "common/bytes_util.hh"
#include "common/logging.hh"

namespace ccai::pcie
{

const HostMemory::Arena *
HostMemory::arenaFor(Addr addr) const
{
    for (const Arena &a : arenas_)
        if (addr >= a.base && addr < a.base + a.size)
            return &a;
    return nullptr;
}

void
HostMemory::pinRange(Addr base, std::uint64_t size)
{
    ccai_assert(size > 0);
    for (const Arena &a : arenas_) {
        if (a.base == base && a.size == size)
            return; // already pinned
        ccai_assert(base + size <= a.base || base >= a.base + a.size);
    }
    Arena arena;
    arena.base = base;
    arena.size = size;
    // calloc: the OS backs the arena with lazily-faulted zero pages,
    // so pinning a 512 MiB window costs nothing until it is touched.
    arena.mem.reset(
        static_cast<std::uint8_t *>(std::calloc(size, 1)));
    ccai_assert(arena.mem != nullptr);
    // Migrate any sparse pages that already held data in the range.
    for (std::uint64_t off = 0; off < size; off += kPageSize) {
        Addr cur = base + off;
        std::uint64_t pfn = cur / kPageSize;
        auto it = pages_.find(pfn);
        if (it == pages_.end())
            continue;
        std::uint64_t inPage = cur % kPageSize;
        std::uint64_t take =
            std::min<std::uint64_t>(kPageSize - inPage, size - off);
        std::memcpy(arena.mem.get() + off, it->second.get() + inPage,
                    take);
        if (inPage == 0 && take == kPageSize)
            pages_.erase(it);
    }
    arenas_.push_back(std::move(arena));
}

std::uint8_t *
HostMemory::raw(Addr addr, std::uint64_t len)
{
    return const_cast<std::uint8_t *>(
        const_cast<const HostMemory *>(this)->raw(addr, len));
}

const std::uint8_t *
HostMemory::raw(Addr addr, std::uint64_t len) const
{
    const Arena *a = arenaFor(addr);
    if (a == nullptr || addr + len > a->base + a->size)
        return nullptr;
    return a->mem.get() + (addr - a->base);
}

void
HostMemory::clear()
{
    pages_.clear();
    for (Arena &a : arenas_)
        std::memset(a.mem.get(), 0, a.size);
}

std::uint8_t *
HostMemory::pageFor(Addr addr, bool allocate)
{
    std::uint64_t pfn = addr / kPageSize;
    auto it = pages_.find(pfn);
    if (it != pages_.end())
        return it->second.get();
    if (!allocate)
        return nullptr;
    auto page = std::make_unique<std::uint8_t[]>(kPageSize); // zeroed
    std::uint8_t *raw = page.get();
    pages_.emplace(pfn, std::move(page));
    return raw;
}

const std::uint8_t *
HostMemory::pageFor(Addr addr) const
{
    std::uint64_t pfn = addr / kPageSize;
    auto it = pages_.find(pfn);
    return it != pages_.end() ? it->second.get() : nullptr;
}

const std::uint8_t *
HostMemory::segment(Addr addr, std::uint64_t len,
                    std::uint64_t &take) const
{
    if (const Arena *a = arenaFor(addr)) {
        take = std::min<std::uint64_t>(a->base + a->size - addr, len);
        return a->mem.get() + (addr - a->base);
    }
    std::uint64_t in_page = addr % kPageSize;
    take = std::min<std::uint64_t>(kPageSize - in_page, len);
    const std::uint8_t *page = pageFor(addr);
    return page ? page + in_page : nullptr;
}

void
HostMemory::write(Addr addr, const Bytes &data)
{
    write(addr, data.data(), data.size());
}

void
HostMemory::write(Addr addr, const std::uint8_t *src, std::uint64_t len)
{
    std::uint64_t take = 0;
    for (std::uint64_t off = 0; off < len; off += take) {
        Addr cur = addr + off;
        auto *dst = const_cast<std::uint8_t *>(segment(cur, len - off, take));
        if (!dst)
            dst = pageFor(cur, true) + cur % kPageSize;
        std::memcpy(dst, src + off, take);
    }
}

void
HostMemory::read(Addr addr, std::uint8_t *out, std::uint64_t len) const
{
    std::uint64_t take = 0;
    for (std::uint64_t off = 0; off < len; off += take) {
        const std::uint8_t *src = segment(addr + off, len - off, take);
        if (src)
            std::memcpy(out + off, src, take);
        else
            std::memset(out + off, 0, take);
    }
}

Bytes
HostMemory::read(Addr addr, std::uint64_t len) const
{
    // Appending writes each byte once; sizing the vector up front
    // would zero all of it before the copy.
    Bytes out;
    out.reserve(len);
    std::uint64_t take = 0;
    for (std::uint64_t off = 0; off < len; off += take) {
        const std::uint8_t *src = segment(addr + off, len - off, take);
        if (src)
            out.insert(out.end(), src, src + take);
        else
            out.resize(out.size() + take);
    }
    return out;
}

void
HostMemory::write64(Addr addr, std::uint64_t value)
{
    std::uint8_t buf[8];
    storeLe64(buf, value);
    write(addr, buf, sizeof buf);
}

std::uint64_t
HostMemory::read64(Addr addr) const
{
    std::uint8_t buf[8];
    read(addr, buf, sizeof buf);
    return loadLe64(buf);
}

} // namespace ccai::pcie
