#include "transport.hh"

#include "common/bytes_util.hh"
#include "common/logging.hh"

namespace ccai::pcie
{

namespace
{

constexpr std::size_t kAckBytes = 14;

std::uint8_t
ackChecksum(const Bytes &buf)
{
    std::uint8_t x = 0xA5;
    for (std::size_t i = 0; i + 1 < kAckBytes; ++i)
        x ^= buf[i];
    return x;
}

} // namespace

Bytes
encodeTransportAck(const TransportAck &ack)
{
    Bytes out(kAckBytes, 0);
    out[0] = 'T';
    out[1] = 'A';
    out[2] = ack.nak ? 1 : 0;
    out[3] = static_cast<std::uint8_t>(ack.channel >> 8);
    out[4] = static_cast<std::uint8_t>(ack.channel);
    storeBe64(out.data() + 5, ack.seq);
    out[kAckBytes - 1] = ackChecksum(out);
    return out;
}

std::optional<TransportAck>
decodeTransportAck(const Bytes &payload)
{
    if (payload.size() != kAckBytes)
        return std::nullopt;
    if (payload[0] != 'T' || payload[1] != 'A')
        return std::nullopt;
    if (payload[kAckBytes - 1] != ackChecksum(payload))
        return std::nullopt;

    TransportAck ack;
    ack.nak = payload[2] != 0;
    ack.channel = static_cast<std::uint16_t>(
        (std::uint16_t(payload[3]) << 8) | payload[4]);
    ack.seq = loadBe64(payload.data() + 5);
    return ack;
}

TlpPtr
makeTransportAck(Bdf from, Bdf to, const TransportAck &ack)
{
    Tlp tlp = Tlp::makeMessage(from, MsgCode::TransportAck);
    tlp.completer = to;
    tlp.fmt = TlpFmt::FourDwData;
    tlp.data = encodeTransportAck(ack);
    tlp.lengthBytes = static_cast<std::uint32_t>(tlp.data.size());
    return std::make_shared<Tlp>(std::move(tlp));
}

// ---------------------------------------------------------------------
// ArqSender
// ---------------------------------------------------------------------

ArqSenderStats::ArqSenderStats(obs::MetricGroup &g)
    : recovered(g.counterHandle("faults_recovered")),
      fatal(g.counterHandle("faults_fatal")),
      retransmits(g.counterHandle("transport_retransmits")),
      timeoutRetransmits(
          g.counterHandle("transport_timeout_retransmits"))
{}

ArqSender::ArqSender(sim::SimObject &owner, std::uint16_t channel,
                     Resend resend, const ArqSenderStats &stats,
                     const char *tracePrefix)
    : owner_(owner), channel_(channel), resend_(std::move(resend)),
      stats_(stats), tracePrefix_(tracePrefix),
      timer_([this] { onTimeout(); }, "arq-ack-timeout")
{}

void
ArqSender::stamp(Tlp &tlp)
{
    tlp.seqNo = nextSeq_++;
    tlp.ackRequired = true;
    tlp.txChannel = channel_;
}

void
ArqSender::track(TlpPtr tlp)
{
    unacked_.push_back(std::move(tlp));
    if (unacked_.size() == 1)
        armTimer();
}

void
ArqSender::onAck(const TransportAck &ack)
{
    if (ack.nak) {
        goBackN(ack.seq);
        return;
    }
    std::size_t before = unacked_.size();
    while (!unacked_.empty() && unacked_.front()->seqNo <= ack.seq)
        unacked_.pop_front();
    std::size_t popped = before - unacked_.size();
    if (popped == 0)
        return; // stale cumulative ack
    if (dirty_)
        stats_.recovered.inc(popped);
    attempts_ = 0;
    if (unacked_.empty()) {
        dirty_ = false;
        if (timer_.scheduled())
            owner_.system().eventq().deschedule(&timer_);
    } else {
        armTimer();
    }
}

void
ArqSender::goBackN(std::uint64_t fromSeq)
{
    // One go-back-N round per gap, not one per NAK behind the gap.
    Tick now = owner_.curTick();
    if (lastGoBack_ != 0 && now - lastGoBack_ < kRetransmitGap)
        return;
    lastGoBack_ = now;
    std::uint64_t n = 0;
    for (const auto &p : unacked_) {
        if (p->seqNo >= fromSeq) {
            resend_(p);
            ++n;
        }
    }
    if (n) {
        dirty_ = true;
        stats_.retransmits.inc(n);
        traceInstant("go_back_n");
    }
}

void
ArqSender::armTimer()
{
    owner_.system().eventq().rescheduleIn(
        &timer_, retryTimeout(kAckTimeout, attempts_));
}

void
ArqSender::onTimeout()
{
    if (unacked_.empty())
        return;
    if (attempts_ >= kMaxRetries) {
        stats_.fatal.inc(unacked_.size());
        warnRateLimited("arq-tx-exhausted",
                        "%s: ARQ channel %u abandoned %zu TLPs after "
                        "%d ack timeouts",
                        owner_.name().c_str(), unsigned(channel_),
                        unacked_.size(), kMaxRetries);
        unacked_.clear();
        attempts_ = 0;
        dirty_ = false;
        return;
    }
    ++attempts_;
    dirty_ = true;
    stats_.timeoutRetransmits.inc();
    traceInstant("timeout_retx");
    for (const auto &p : unacked_)
        resend_(p);
    armTimer();
}

void
ArqSender::dropWindow()
{
    unacked_.clear();
    attempts_ = 0;
    dirty_ = false;
    if (timer_.scheduled())
        owner_.system().eventq().deschedule(&timer_);
    lastGoBack_ = 0;
}

void
ArqSender::restart()
{
    dropWindow();
    nextSeq_ = 1;
}

void
ArqSender::traceInstant(const char *what)
{
    obs::Tracer &tracer = owner_.system().tracer();
    if (tracer.enabled())
        tracer.instant(tracer.trackCached(track_, owner_.name()),
                       std::string(tracePrefix_) + what,
                       owner_.curTick());
}

// ---------------------------------------------------------------------
// ArqReceiver
// ---------------------------------------------------------------------

ArqReceiver::ArqReceiver(obs::MetricGroup &stats, SendAck sendAck)
    : sendAck_(std::move(sendAck)),
      accepted_(stats.counterHandle("transport_rx_accepted")),
      duplicates_(stats.counterHandle("transport_rx_duplicates")),
      outOfOrder_(stats.counterHandle("transport_rx_ooo")),
      acksSent_(stats.counterHandle("transport_acks_sent")),
      naksSent_(stats.counterHandle("transport_naks_sent"))
{}

ArqOrder
ArqReceiver::check(const Tlp &tlp)
{
    std::uint64_t rx = rx_[tlp.txChannel];
    if (tlp.seqNo == rx + 1)
        return ArqOrder::Next;
    if (tlp.seqNo <= rx) {
        // Retransmit of something already delivered: re-ack so the
        // sender's window advances, but do not deliver twice.
        duplicates_.inc();
        sendAck(tlp.txChannel, rx, false);
        return ArqOrder::Duplicate;
    }
    // Gap: something before this TLP was lost. NAK the first
    // missing seq; the sender goes back and retransmits from there.
    outOfOrder_.inc();
    sendAck(tlp.txChannel, rx + 1, true);
    return ArqOrder::Gap;
}

void
ArqReceiver::accept(const Tlp &tlp)
{
    rx_[tlp.txChannel] = tlp.seqNo;
    accepted_.inc();
    sendAck(tlp.txChannel, tlp.seqNo, false);
}

void
ArqReceiver::refuse(const Tlp &tlp)
{
    sendAck(tlp.txChannel, tlp.seqNo, true);
}

void
ArqReceiver::sendAck(std::uint16_t channel, std::uint64_t seq, bool nak)
{
    (nak ? naksSent_ : acksSent_).inc();
    sendAck_(TransportAck{nak, channel, seq});
}

} // namespace ccai::pcie
