/**
 * @file
 * The end-to-end ARQ of the secure path.
 *
 * The fabric model can lose, corrupt, duplicate and reorder TLPs
 * (see FaultInjector), so the protected paths carry a go-back-N ARQ:
 * an ArqSender stamps each TLP with its channel and the next sequence
 * number and keeps it until it is acknowledged; an ArqReceiver
 * delivers each channel in order, re-acks duplicates and NAKs gaps.
 * The Adaptor sends on its tenant's downstream channel and the
 * PCIe-SC receives it; the PCIe-SC sends one upstream channel per
 * tenant and the root complex receives them. A channel is the
 * tenant's requester ID, and the PCIe-SC binds every downstream
 * channel to the requester that carries it.
 *
 * This header holds the retry policy constants, the TransportAck
 * codec, and the sender and receiver every endpoint uses.
 */

#ifndef CCAI_PCIE_TRANSPORT_HH
#define CCAI_PCIE_TRANSPORT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "common/types.hh"
#include "obs/metric_group.hh"
#include "pcie/tlp.hh"
#include "sim/sim_object.hh"

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
    std::uint16_t channel = 0; ///< the tenant's requester ID
    std::uint64_t seq = 0;
};

/** Encode an ack payload (checksummed; corrupt acks are dropped). */
Bytes encodeTransportAck(const TransportAck &ack);

/** Decode; nullopt when the payload is malformed or checksum fails. */
std::optional<TransportAck> decodeTransportAck(const Bytes &payload);

/** The TransportAck message @p from sends, ID-routed to @p to. */
TlpPtr makeTransportAck(Bdf from, Bdf to, const TransportAck &ack);

/**
 * The counters an ArqSender feeds, resolved once in its owner's
 * group under the names ccai_bench and the metrics schema read. An
 * owner with one sender per tenant resolves them at construction, so
 * they exist before any channel does, and shares them.
 */
struct ArqSenderStats
{
    explicit ArqSenderStats(obs::MetricGroup &g);

    /** faults_recovered: TLPs acked after a retransmission. */
    obs::CounterHandle recovered;
    /** faults_fatal: TLPs abandoned after kMaxRetries timeouts. */
    obs::CounterHandle fatal;
    /** transport_retransmits: TLPs resent by go-back-N. */
    obs::CounterHandle retransmits;
    /** transport_timeout_retransmits: ack timeouts that resent the
     * window. */
    obs::CounterHandle timeoutRetransmits;
};

/**
 * Sender of one ARQ channel. It stamps TLPs with the channel and
 * consecutive sequence numbers from 1, keeps them in an unacked
 * window until a cumulative ACK covers them, resends the window from
 * a NAKed seqNo (at most once per kRetransmitGap), and owns an ack
 * timer that resends the whole window with exponential backoff. After
 * kMaxRetries timeouts in a row it abandons the window as fatal.
 */
class ArqSender
{
  public:
    /** Puts one TLP of the window back on the wire. */
    using Resend = std::function<void(const TlpPtr &)>;

    /**
     * @param owner       component whose event queue, name and trace
     *                    track the sender uses
     * @param channel     stamped into every TLP's txChannel
     * @param resend      retransmits one TLP of the window
     * @param stats       counters in the owner's group
     * @param tracePrefix prefix of the "go_back_n" and "timeout_retx"
     *                    trace instants
     */
    ArqSender(sim::SimObject &owner, std::uint16_t channel,
              Resend resend, const ArqSenderStats &stats,
              const char *tracePrefix);

    /** The timer's callback holds this object's address. */
    ArqSender(const ArqSender &) = delete;
    ArqSender &operator=(const ArqSender &) = delete;

    /** Mark @p tlp as the channel's next TLP: ackRequired, txChannel
     * and seqNo. A MAC over the header must be computed after this. */
    void stamp(Tlp &tlp);

    /**
     * Enter a stamped TLP into the unacked window; the first TLP of
     * an empty window arms the ack timer. The caller puts the TLP on
     * the wire itself, before or after this call: the order decides
     * how the timer ties with the send at the same tick.
     */
    void track(TlpPtr tlp);

    /** Consume an ACK (drop what it covers) or a NAK (go back). */
    void onAck(const TransportAck &ack);

    /** Drop the window and disarm the timer; seqNos keep counting. */
    void dropWindow();

    /** dropWindow(), and the next stamp() starts again at seqNo 1. */
    void restart();

    /** TLPs sent and not yet acknowledged. */
    std::size_t windowSize() const { return unacked_.size(); }

  private:
    void goBackN(std::uint64_t fromSeq);
    void armTimer();
    void onTimeout();
    void traceInstant(const char *what);

    sim::SimObject &owner_;
    std::uint16_t channel_;
    Resend resend_;
    ArqSenderStats stats_;
    const char *tracePrefix_;
    obs::TrackId track_ = obs::kNoTrack;

    std::uint64_t nextSeq_ = 1;
    std::deque<TlpPtr> unacked_;
    int attempts_ = 0;   ///< consecutive ack timeouts
    bool dirty_ = false; ///< a retransmission is in flight
    Tick lastGoBack_ = 0;
    /** Owned ack timer, re-armed in place (no allocation). */
    sim::EventFunctionWrapper timer_;
};

/** Where an ackRequired TLP falls in its channel's sequence. */
enum class ArqOrder
{
    Next,      ///< the next in-order seqNo: accept() or refuse() it
    Duplicate, ///< already delivered; re-acked
    Gap,       ///< an earlier seqNo is missing; NAKed
};

/**
 * The in-order receive gate of every ARQ channel that reaches one
 * endpoint, keyed by the TLP's txChannel. Each channel delivers
 * seqNos 1, 2, 3, ... exactly once; acks go out through the owner's
 * sendAck callback and are counted in its group.
 */
class ArqReceiver
{
  public:
    /** Sends one ACK or NAK back towards the channel's sender. */
    using SendAck = std::function<void(const TransportAck &)>;

    ArqReceiver(obs::MetricGroup &stats, SendAck sendAck);

    /**
     * Classify ackRequired @p tlp. A duplicate is re-acked and a gap
     * NAKed here; both must be dropped. A Next TLP must be passed to
     * accept() or refuse().
     */
    ArqOrder check(const Tlp &tlp);

    /** Deliver the Next TLP: advance its channel and ACK it. */
    void accept(const Tlp &tlp);

    /** Reject the Next TLP without advancing: NAK it so the sender
     * resends it (a corrupted copy may arrive intact next time). */
    void refuse(const Tlp &tlp);

    /** Expect seqNo 1 next on @p channel. */
    void restart(std::uint16_t channel) { rx_.erase(channel); }

    /** Expect seqNo 1 next on every channel. */
    void clear() { rx_.clear(); }

  private:
    void sendAck(std::uint16_t channel, std::uint64_t seq, bool nak);

    /** Highest in-order seqNo delivered per channel. */
    std::map<std::uint16_t, std::uint64_t> rx_;
    SendAck sendAck_;
    obs::CounterHandle accepted_;
    obs::CounterHandle duplicates_;
    obs::CounterHandle outOfOrder_;
    obs::CounterHandle acksSent_;
    obs::CounterHandle naksSent_;
};

} // namespace ccai::pcie

#endif // CCAI_PCIE_TRANSPORT_HH
