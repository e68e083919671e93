/**
 * @file
 * Reliable-transport support types for the secure path.
 *
 * The fabric model can now lose, corrupt, duplicate and reorder TLPs
 * (see FaultInjector), so the protected paths carry an end-to-end
 * ARQ: senders mark TLPs ackRequired, receivers acknowledge in-order
 * sequence numbers per (tenant, channel), and NAKs trigger go-back-N
 * retransmission. This header holds the shared pieces: the retry
 * policy constants and the TransportAck message codec.
 */

#ifndef CCAI_PCIE_TRANSPORT_HH
#define CCAI_PCIE_TRANSPORT_HH

#include <cstdint>
#include <optional>

#include "common/types.hh"

namespace ccai::pcie
{

/*
 * Retry/timeout policy of the secure-path ARQ loops (Adaptor doorbell
 * writes, RootComplex reads, PCIe-SC sensitive re-reads, D2H chunk
 * re-requests). Every Platform runs them; timeouts back off
 * exponentially: timeout * kRetryBackoff^attempt.
 */

/**
 * Ack timeout for posted writes. Must exceed the worst-case queueing
 * on a loaded link: at Gen4 x16 (~31 GB/s) a 200 us budget covers
 * ~6 MB of queued traffic ahead of the ack.
 */
constexpr Tick kAckTimeout = 200 * kTicksPerUs;

/** Completion timeout for non-posted reads. */
constexpr Tick kReadTimeout = 500 * kTicksPerUs;

/** Multiplier applied to the timeout per retry attempt. */
constexpr double kRetryBackoff = 2.0;

/** Attempts before a transported write is declared fatal. */
constexpr int kMaxRetries = 12;

/** Attempts for reads and re-fetches before they fail (a root-complex
 * read then completes with a fabricated CompleterAbort). */
constexpr int kMaxReadRetries = 8;

/**
 * Minimum spacing between go-back-N retransmission rounds on one
 * channel. Repeated NAKs for the same gap (every out-of-order packet
 * behind one loss elicits a NAK) collapse into one round.
 */
constexpr Tick kRetransmitGap = 10 * kTicksPerUs;

/** Timeout for attempt @p attempt (0-based), with exponential backoff. */
inline Tick
retryTimeout(Tick base, int attempt)
{
    double scaled = double(base);
    for (int i = 0; i < attempt; ++i)
        scaled *= kRetryBackoff;
    return Tick(scaled);
}

/**
 * Payload of a MsgCode::TransportAck message. Acks flow opposite to
 * the data they acknowledge and are themselves unprotected (loss of
 * an ack is healed by the sender's timeout, duplication by the
 * receiver's dup-suppression).
 *
 *  - ACK(seq): every TLP on the channel with seqNo <= seq was
 *    accepted; the sender drops them from its unacked window.
 *  - NAK(seq): the receiver is missing seq; the sender retransmits
 *    the window from seq (go-back-N).
 */
struct TransportAck
{
    bool nak = false;
    std::uint16_t channel = 0; ///< sender-chosen stream id
    std::uint64_t seq = 0;
};

/** Encode an ack payload (checksummed; corrupt acks are dropped). */
Bytes encodeTransportAck(const TransportAck &ack);

/** Decode; nullopt when the payload is malformed or checksum fails. */
std::optional<TransportAck> decodeTransportAck(const Bytes &payload);

} // namespace ccai::pcie

#endif // CCAI_PCIE_TRANSPORT_HH
