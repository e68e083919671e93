#include "control_panels.hh"

#include "common/bytes_util.hh"
#include "common/logging.hh"

namespace ccai::sc
{

void
DecryptParamsManager::registerChunk(const ChunkRecord &rec)
{
    byAddr_[rec.addr] = rec;
}

std::optional<ChunkRecord>
DecryptParamsManager::lookup(Addr addr) const
{
    // Find the record whose [addr, addr+length) window covers addr.
    auto it = byAddr_.upper_bound(addr);
    if (it == byAddr_.begin())
        return std::nullopt;
    --it;
    const ChunkRecord &rec = it->second;
    if (addr >= rec.addr && addr < rec.addr + rec.length)
        return rec;
    return std::nullopt;
}

void
DecryptParamsManager::consume(std::uint64_t chunkId)
{
    consumedBytes_.erase(chunkId);
    for (auto it = byAddr_.begin(); it != byAddr_.end(); ++it) {
        if (it->second.chunkId == chunkId) {
            byAddr_.erase(it);
            return;
        }
    }
}

void
DecryptParamsManager::consumeRange(std::uint64_t chunkId,
                                   std::uint64_t bytes)
{
    for (auto it = byAddr_.begin(); it != byAddr_.end(); ++it) {
        if (it->second.chunkId != chunkId)
            continue;
        std::uint64_t &used = consumedBytes_[chunkId];
        used += bytes;
        if (used >= it->second.length) {
            consumedBytes_.erase(chunkId);
            byAddr_.erase(it);
        }
        return;
    }
}

} // namespace ccai::sc
