/**
 * @file
 * Unit tests for the secure-path ARQ (pcie/transport.hh): the
 * TransportAck codec, and one ArqSender talking to one ArqReceiver
 * over a scripted channel that drops, duplicates and reorders data
 * and acks alike. The channel's draws follow CCAI_SEED, so the CI
 * fault soak runs a new schedule each time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "common/bytes_util.hh"
#include "pcie/transport.hh"
#include "sim/rng.hh"

using namespace ccai;
using namespace ccai::pcie;

namespace
{

constexpr std::uint16_t kChannel = 0x0108;

std::uint64_t
count(obs::MetricGroup &g, const char *name)
{
    return g.counterHandle(name).value();
}

/** A posted write carrying @p index in its payload. */
Tlp
dataTlp(std::uint64_t index)
{
    Bytes payload(8);
    storeLe64(payload.data(), index);
    return Tlp::makeMemWrite(Bdf::fromRaw(kChannel), 0x1000,
                             std::move(payload));
}

/**
 * One sender and one receiver joined by a lossy pipe in each
 * direction. Every TLP the pipe carries is dropped with probability
 * kDrop, else delivered after kLatency; with probability kReorder it
 * is held back a while so later TLPs overtake it, and with
 * probability kDup a second copy follows later still.
 */
struct LossyLoop
{
    static constexpr double kDrop = 0.05;
    static constexpr double kReorder = 0.05;
    static constexpr double kDup = 0.05;
    static constexpr Tick kLatency = 1 * kTicksPerUs;
    static constexpr Tick kMaxHold = 5 * kTicksPerUs;

    LossyLoop(sim::System &system, std::uint64_t seed)
        : sys(system), rng(seed), owner(system, "arq_sender"),
          tx(owner, kChannel,
             [this](const TlpPtr &tlp) { toReceiver(tlp); },
             ArqSenderStats(txStats), "arq."),
          rx(rxStats,
             [this](const TransportAck &ack) { toSender(ack); })
    {}

    /** Stamp, track and send the TLP carrying @p index. */
    void
    send(std::uint64_t index)
    {
        Tlp tlp = dataTlp(index);
        tx.stamp(tlp);
        auto ptr = std::make_shared<Tlp>(std::move(tlp));
        tx.track(ptr);
        toReceiver(ptr);
    }

    void
    carry(TlpPtr tlp, std::function<void(const TlpPtr &)> deliver)
    {
        if (rng.uniform01() < kDrop) {
            ++dropped;
            return;
        }
        Tick delay = kLatency;
        if (rng.uniform01() < kReorder) {
            ++heldBack;
            delay += rng.uniform(1, kMaxHold);
        }
        auto arrive = [tlp, deliver] { deliver(tlp); };
        sys.eventq().scheduleIn(delay, arrive);
        if (rng.uniform01() < kDup)
            sys.eventq().scheduleIn(delay + rng.uniform(1, kMaxHold), arrive);
    }

    void
    toReceiver(const TlpPtr &tlp)
    {
        carry(tlp, [this](const TlpPtr &t) {
            if (rx.check(*t) != ArqOrder::Next)
                return;
            rx.accept(*t);
            delivered.push_back(loadLe64(t->data.data()));
        });
    }

    void
    toSender(const TransportAck &ack)
    {
        carry(makeTransportAck(wellknown::kPcieSc,
                               Bdf::fromRaw(kChannel), ack),
              [this](const TlpPtr &t) {
                  if (auto decoded = decodeTransportAck(t->data))
                      tx.onAck(*decoded);
              });
    }

    sim::System &sys;
    sim::Rng rng;
    sim::SimObject owner;
    obs::MetricGroup txStats{"tx"};
    obs::MetricGroup rxStats{"rx"};
    std::uint64_t dropped = 0;
    std::uint64_t heldBack = 0;
    /** Payload indices in the order the receiver delivered them. */
    std::vector<std::uint64_t> delivered;
    ArqSender tx;
    ArqReceiver rx;
};

/** A sender whose channel is never answered; counts its resends. */
struct DeadEnd
{
    sim::System sys;
    sim::SimObject owner{sys, "arq_sender"};
    obs::MetricGroup stats{"tx"};
    std::vector<std::uint64_t> resent;
    ArqSender tx{owner, kChannel,
                 [this](const TlpPtr &tlp) {
                     resent.push_back(tlp->seqNo);
                 },
                 ArqSenderStats(stats), "arq."};

    void
    send(int n)
    {
        for (int i = 0; i < n; ++i) {
            Tlp tlp = dataTlp(i);
            tx.stamp(tlp);
            tx.track(std::make_shared<Tlp>(std::move(tlp)));
        }
    }
};

} // namespace

TEST(TransportAckCodec, RoundTripThroughTheAckMessage)
{
    const TransportAck cases[] = {
        {false, 0, 0},
        {true, 0xffff, ~std::uint64_t(0)},
        {false, kChannel, 1},
        {true, 0x0100, 0x0123456789abcdefull},
    };
    for (const TransportAck &ack : cases) {
        TlpPtr msg = makeTransportAck(wellknown::kRootComplex,
                                      wellknown::kPcieSc, ack);
        EXPECT_EQ(msg->type, TlpType::Message);
        EXPECT_EQ(msg->msgCode, MsgCode::TransportAck);
        EXPECT_EQ(msg->requester.raw(), wellknown::kRootComplex.raw());
        EXPECT_EQ(msg->completer.raw(), wellknown::kPcieSc.raw());
        EXPECT_EQ(msg->lengthBytes, msg->data.size());
        auto got = decodeTransportAck(msg->data);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->nak, ack.nak);
        EXPECT_EQ(got->channel, ack.channel);
        EXPECT_EQ(got->seq, ack.seq);
    }
}

TEST(TransportAckCodec, RejectsEverySingleByteFlipAndEveryWrongLength)
{
    const Bytes good = encodeTransportAck(TransportAck{true, kChannel, 42});
    ASSERT_TRUE(decodeTransportAck(good).has_value());
    for (std::size_t i = 0; i < good.size(); ++i) {
        for (int x = 1; x < 256; ++x) {
            Bytes bad = good;
            bad[i] ^= std::uint8_t(x);
            EXPECT_FALSE(decodeTransportAck(bad).has_value())
                << "byte " << i << " ^ " << x;
        }
    }
    for (std::size_t n = 0; n <= 2 * good.size(); ++n) {
        if (n == good.size())
            continue;
        Bytes wrong(good.begin(),
                    good.begin() + std::min(n, good.size()));
        wrong.resize(n, 0);
        EXPECT_FALSE(decodeTransportAck(wrong).has_value())
            << "length " << n;
    }
}

TEST(ArqChannel, LossyChannelDeliversEveryTlpOnceInOrder)
{
    constexpr std::uint64_t kTlps = 2000;
    sim::System sys;
    LossyLoop loop(sys, sim::resolveSeed(0xA7C0));
    for (std::uint64_t i = 0; i < kTlps; ++i) {
        sys.eventq().schedule((i + 1) * 500 * kTicksPerNs,
                              [&loop, i] { loop.send(i); });
    }
    sys.run();

    ASSERT_EQ(loop.delivered.size(), kTlps);
    for (std::uint64_t i = 0; i < kTlps; ++i)
        ASSERT_EQ(loop.delivered[i], i) << "delivery " << i;
    EXPECT_EQ(loop.tx.windowSize(), 0u);
    EXPECT_TRUE(sys.eventq().empty());
    EXPECT_EQ(count(loop.txStats, "faults_fatal"), 0u);
    EXPECT_EQ(count(loop.rxStats, "transport_rx_accepted"), kTlps);

    // The script really did lose, duplicate and reorder traffic.
    EXPECT_GT(loop.dropped, 0u);
    EXPECT_GT(loop.heldBack, 0u);
    EXPECT_GT(count(loop.rxStats, "transport_rx_duplicates"), 0u);
    EXPECT_GT(count(loop.rxStats, "transport_rx_ooo"), 0u);
    EXPECT_GT(count(loop.txStats, "transport_retransmits"), 0u);
}

TEST(ArqChannel, DeadChannelAbandonsTheWindowAfterMaxRetries)
{
    constexpr int kWindow = 5;
    DeadEnd d;
    d.send(kWindow);
    d.sys.run();

    // Each timeout backs off; the one after kMaxRetries resends
    // abandons the window and arms nothing more.
    Tick abandonedAt = 0;
    for (int a = 0; a <= kMaxRetries; ++a)
        abandonedAt += retryTimeout(kAckTimeout, a);
    EXPECT_EQ(d.sys.now(), abandonedAt);
    EXPECT_TRUE(d.sys.eventq().empty());
    EXPECT_EQ(d.tx.windowSize(), 0u);
    EXPECT_EQ(count(d.stats, "faults_fatal"), std::uint64_t(kWindow));
    EXPECT_EQ(count(d.stats, "transport_timeout_retransmits"),
              std::uint64_t(kMaxRetries));
    EXPECT_EQ(d.resent.size(), std::size_t(kWindow * kMaxRetries));
}

TEST(ArqChannel, DropWindowKeepsCountingAndRestartBeginsAtOne)
{
    DeadEnd d;
    d.send(3);
    d.tx.dropWindow();
    EXPECT_EQ(d.tx.windowSize(), 0u);
    EXPECT_TRUE(d.sys.eventq().empty()); // the ack timer is disarmed

    Tlp next = dataTlp(0);
    d.tx.stamp(next);
    EXPECT_EQ(next.seqNo, 4u);
    EXPECT_TRUE(next.ackRequired);
    EXPECT_EQ(next.txChannel, kChannel);

    d.tx.restart();
    d.tx.stamp(next);
    EXPECT_EQ(next.seqNo, 1u);
}

TEST(ArqChannel, NakBurstTriggersOneGoBackNPerRetransmitGap)
{
    DeadEnd d;
    d.send(10);
    auto nak = [&d](std::uint64_t seq) {
        d.tx.onAck(TransportAck{true, kChannel, seq});
    };
    const Tick t0 = 1 * kTicksPerUs;
    auto &eq = d.sys.eventq();
    // Every TLP behind one gap draws a NAK: one round resends 3..10.
    eq.schedule(t0, [&nak] {
        for (int i = 0; i < 5; ++i)
            nak(3);
    });
    eq.schedule(t0 + kRetransmitGap - 1, [&nak] { nak(3); });
    // A gap later the next round resends 5..10.
    eq.schedule(t0 + kRetransmitGap, [&nak] { nak(5); });
    eq.schedule(t0 + kRetransmitGap + 1,
                [&d] { d.tx.onAck(TransportAck{false, kChannel, 10}); });
    d.sys.run();

    std::vector<std::uint64_t> expected;
    for (std::uint64_t s = 3; s <= 10; ++s)
        expected.push_back(s);
    for (std::uint64_t s = 5; s <= 10; ++s)
        expected.push_back(s);
    EXPECT_EQ(d.resent, expected);
    EXPECT_EQ(count(d.stats, "transport_retransmits"), expected.size());
    // Acked after a retransmission, before the ack timer fired.
    EXPECT_EQ(count(d.stats, "faults_recovered"), 10u);
    EXPECT_EQ(count(d.stats, "transport_timeout_retransmits"), 0u);
    EXPECT_EQ(d.tx.windowSize(), 0u);
}
