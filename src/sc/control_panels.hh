/**
 * @file
 * The Packet Handler's control panels (paper §4.2): the
 * De/Encryption Parameters Manager tracks per-chunk cryptographic
 * parameters, and the Authentication Tag Manager matches tag records
 * against data packets and verifies payload integrity.
 */

#ifndef CCAI_SC_CONTROL_PANELS_HH
#define CCAI_SC_CONTROL_PANELS_HH

#include <deque>
#include <map>
#include <optional>

#include "backend/chunk_record.hh"
#include "common/types.hh"
#include "crypto/gcm.hh"
#include "obs/metric_group.hh"
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

/**
 * Authentication Tag Manager: owns the queue of authentication-tag
 * packets, matches tags with the corresponding task packets by tag
 * attribute, and verifies sensitive-payload integrity.
 */
class AuthTagManager
{
  public:
    /** Queue a tag record arriving as an auth-tag packet. */
    void enqueueTag(std::uint64_t tagId, const Bytes &tag);

    /** Match and extract the tag for @p tagId. */
    std::optional<Bytes> matchTag(std::uint64_t tagId);

    /**
     * Verify a sealed payload against its queued tag.
     * @return false when the tag is missing or verification fails.
     */
    bool verify(const crypto::AesGcm &cipher, std::uint64_t tagId,
                const Bytes &iv, const Bytes &ciphertext,
                const Bytes &aad, Bytes *plaintext_out);

    size_t queued() const { return tags_.size(); }
    std::uint64_t failures() const { return failures_.value(); }

  private:
    std::map<std::uint64_t, Bytes> tags_;
    obs::Counter failures_;
};

} // namespace ccai::sc

#endif // CCAI_SC_CONTROL_PANELS_HH
