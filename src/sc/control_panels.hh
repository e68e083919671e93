/**
 * @file
 * The Packet Handler's control panel (paper §4.2): the
 * De/Encryption Parameters Manager tracks per-chunk cryptographic
 * parameters. The paper's Authentication Tag Manager has no separate
 * queue here: each chunk record carries its payload's GCM tag.
 */

#ifndef CCAI_SC_CONTROL_PANELS_HH
#define CCAI_SC_CONTROL_PANELS_HH

#include <deque>
#include <map>
#include <optional>

#include "backend/chunk_record.hh"
#include "common/types.hh"
#include "trust/key_manager.hh"

namespace ccai::sc
{

using backend::ChunkRecord;

/**
 * De/Encryption Parameters Manager: analyzes confidential packet
 * headers and records the parameters needed to process payloads.
 * Lookup key is the chunk's bounce-buffer address.
 */
class DecryptParamsManager
{
  public:
    /** Register an H2D chunk the device will read. */
    void registerChunk(const ChunkRecord &rec);

    /** Find (and keep) the record covering @p addr. */
    std::optional<ChunkRecord> lookup(Addr addr) const;

    /** Remove a consumed record. */
    void consume(std::uint64_t chunkId);

    /**
     * Account @p bytes of a chunk as consumed; the record is
     * removed once the whole chunk has streamed through (a chunk
     * may be read in several device bursts).
     */
    void consumeRange(std::uint64_t chunkId, std::uint64_t bytes);

    size_t pending() const { return byAddr_.size(); }

  private:
    std::map<Addr, ChunkRecord> byAddr_;
    std::map<std::uint64_t, std::uint64_t> consumedBytes_;
};

} // namespace ccai::sc

#endif // CCAI_SC_CONTROL_PANELS_HH
