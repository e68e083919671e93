/**
 * @file
 * Fabric tests: host memory, link timing/serialization, switch
 * routing, and root complex request/completion handling.
 */

#include <gtest/gtest.h>

#include "common/buffer_pool.hh"
#include "pcie/host_memory.hh"
#include "pcie/link.hh"
#include "pcie/memory_map.hh"
#include "pcie/root_complex.hh"
#include "pcie/switch.hh"

using namespace ccai;
using namespace ccai::pcie;

namespace
{

/** Sink node that records what it receives. */
class SinkNode : public PcieNode
{
  public:
    explicit SinkNode(std::string name) : name_(std::move(name)) {}

    void
    receiveTlp(const TlpPtr &tlp, PcieNode *) override
    {
        received.push_back(*tlp);
    }

    const std::string &nodeName() const override { return name_; }

    std::vector<Tlp> received;

  private:
    std::string name_;
};

} // namespace

TEST(HostMemory, ReadBackWritten)
{
    HostMemory mem;
    mem.write(0x1000, {1, 2, 3, 4});
    EXPECT_EQ(mem.read(0x1000, 4), (Bytes{1, 2, 3, 4}));
}

TEST(HostMemory, UnwrittenReadsZero)
{
    HostMemory mem;
    EXPECT_EQ(mem.read(0x5000, 3), (Bytes{0, 0, 0}));
}

TEST(HostMemory, CrossPageWrite)
{
    HostMemory mem;
    Bytes data(HostMemory::kPageSize + 100, 0xcd);
    mem.write(HostMemory::kPageSize - 50, data);
    EXPECT_EQ(mem.read(HostMemory::kPageSize - 50, data.size()), data);
    EXPECT_EQ(mem.residentPages(), 3u);
}

TEST(HostMemory, SparseAllocation)
{
    HostMemory mem;
    mem.write(0, {1});
    mem.write(1ull << 40, {2});
    EXPECT_EQ(mem.residentPages(), 2u);
    EXPECT_EQ(mem.read(1ull << 40, 1), (Bytes{2}));
}

TEST(HostMemory, Word64RoundTrip)
{
    HostMemory mem;
    mem.write64(0x100, 0xdeadbeefcafebabeull);
    EXPECT_EQ(mem.read64(0x100), 0xdeadbeefcafebabeull);
}

TEST(HostMemory, ClearDropsPages)
{
    HostMemory mem;
    mem.write(0, {1, 2, 3});
    mem.clear();
    EXPECT_EQ(mem.residentPages(), 0u);
    EXPECT_EQ(mem.read(0, 3), (Bytes{0, 0, 0}));
}

TEST(HostMemory, PooledReadZeroesUnbackedBytes)
{
    // DMA payloads come from the buffer pool with stale contents, and
    // the read into them zeroes only what no page or arena backs.
    // Park 0xA5-filled buffers of the read's size class so the reads
    // below land on stale bytes.
    constexpr std::uint64_t kLen = 2 * HostMemory::kPageSize;
    auto staleBuffer = [] {
        BufferPool::global().trim();
        BufferPool::global().release(Bytes(kLen, 0xa5));
        Bytes buf = payloadBuffer(kLen);
        EXPECT_EQ(buf, Bytes(kLen, 0xa5)) << "not a recycled buffer";
        return buf;
    };

    // A written sparse page, then a page nothing ever wrote.
    HostMemory sparse;
    const Addr base = 0x10000;
    Bytes head(100, 0x3c);
    sparse.write(base + 50, head);
    Bytes got = staleBuffer();
    sparse.read(base, got.data(), kLen);
    Bytes want(kLen, 0);
    std::copy(head.begin(), head.end(), want.begin() + 50);
    EXPECT_EQ(got, want);
    EXPECT_EQ(sparse.residentPages(), 1u);

    // Across the end of a pinned arena: its last page, then unbacked
    // bytes past it.
    HostMemory pinned;
    const Addr arena = 0x100000;
    const std::uint64_t arenaBytes = 4 * HostMemory::kPageSize;
    pinned.pinRange(arena, arenaBytes);
    const Addr from = arena + arenaBytes - HostMemory::kPageSize;
    Bytes tail(HostMemory::kPageSize, 0x5e);
    pinned.write(from, tail);
    got = staleBuffer();
    pinned.read(from, got.data(), kLen);
    want.assign(kLen, 0);
    std::copy(tail.begin(), tail.end(), want.begin());
    EXPECT_EQ(got, want);
    EXPECT_EQ(pinned.residentPages(), 0u);
}

TEST(LinkConfig, BandwidthMath)
{
    LinkConfig cfg; // 16 GT/s x16, 128b/130b
    double gbps = cfg.bytesPerSecond() / 1e9;
    EXPECT_NEAR(gbps, 31.5, 0.5); // ~31.5 GB/s for Gen4 x16
    cfg.gtPerSec = 8.0;
    cfg.lanes = 8;
    EXPECT_NEAR(cfg.bytesPerSecond() / 1e9, 7.88, 0.1);
}

TEST(Link, DeliversWithLatency)
{
    sim::System sys;
    SinkNode src("src"), dst("dst");
    Link link(sys, "l", LinkConfig{});
    link.connect(&src, &dst);

    auto tlp = std::make_shared<Tlp>(
        Tlp::makeMemWrite(wellknown::kTvm, 0x10, Bytes{1}));
    link.send(tlp);
    EXPECT_TRUE(dst.received.empty());
    sys.run();
    ASSERT_EQ(dst.received.size(), 1u);
    // Delivery took serialization + propagation time.
    EXPECT_GE(sys.now(), link.config().propagationDelay);
}

TEST(Link, SerializationDelayScalesWithPayload)
{
    sim::System sys;
    Link link(sys, "l", LinkConfig{});
    Tlp small = Tlp::makeMemWriteSynthetic(wellknown::kTvm, 0, 256);
    Tlp big = Tlp::makeMemWriteSynthetic(wellknown::kTvm, 0, 1 * kMiB);
    EXPECT_GT(link.serializationDelay(big),
              100 * link.serializationDelay(small));
}

TEST(Link, BackToBackSendsSerialize)
{
    sim::System sys;
    SinkNode src("src"), dst("dst");
    Link link(sys, "l", LinkConfig{});
    link.connect(&src, &dst);

    // Two 1 MiB writes: the second cannot start until the first
    // finished serializing.
    Tick one = link.serializationDelay(
        Tlp::makeMemWriteSynthetic(wellknown::kTvm, 0, 1 * kMiB));
    for (int i = 0; i < 2; ++i) {
        link.send(std::make_shared<Tlp>(
            Tlp::makeMemWriteSynthetic(wellknown::kTvm, 0, 1 * kMiB)));
    }
    sys.run();
    EXPECT_EQ(dst.received.size(), 2u);
    EXPECT_GE(sys.now(), 2 * one);
}

TEST(Link, StatsCountWireUnits)
{
    sim::System sys;
    SinkNode src("src"), dst("dst");
    Link link(sys, "l", LinkConfig{});
    link.connect(&src, &dst);
    link.send(std::make_shared<Tlp>(
        Tlp::makeMemWriteSynthetic(wellknown::kTvm, 0, 1024)));
    sys.run();
    EXPECT_EQ(link.stats().counterHandle("tlps").value(), 1u);
    EXPECT_EQ(link.stats().counterHandle("wire_tlps").value(), 4u);
    EXPECT_EQ(link.stats().counterHandle("payload_bytes").value(), 1024u);
}

TEST(Switch, RoutesByAddress)
{
    sim::System sys;
    SinkNode a("a"), b("b"), src("src");
    Switch sw(sys, "sw");
    Link to_a(sys, "to_a", LinkConfig{});
    Link to_b(sys, "to_b", LinkConfig{});
    to_a.connect(&sw, &a);
    to_b.connect(&sw, &b);
    int pa = sw.addPort(&to_a);
    int pb = sw.addPort(&to_b);
    sw.mapAddressRange({0x0000, 0x1000}, pa);
    sw.mapAddressRange({0x1000, 0x1000}, pb);

    sw.receiveTlp(std::make_shared<Tlp>(Tlp::makeMemWrite(
                      wellknown::kTvm, 0x800, Bytes{1})),
                  &src);
    sw.receiveTlp(std::make_shared<Tlp>(Tlp::makeMemWrite(
                      wellknown::kTvm, 0x1800, Bytes{2})),
                  &src);
    sys.run();
    ASSERT_EQ(a.received.size(), 1u);
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(a.received[0].address, 0x800u);
    EXPECT_EQ(b.received[0].address, 0x1800u);
}

TEST(Switch, RoutesCompletionByRequesterId)
{
    sim::System sys;
    SinkNode a("a"), b("b"), src("src");
    Switch sw(sys, "sw");
    Link to_a(sys, "to_a", LinkConfig{});
    Link to_b(sys, "to_b", LinkConfig{});
    to_a.connect(&sw, &a);
    to_b.connect(&sw, &b);
    int pa = sw.addPort(&to_a);
    int pb = sw.addPort(&to_b);
    sw.mapRoutingId(wellknown::kTvm, pa);
    sw.mapRoutingId(wellknown::kXpu, pb);

    sw.receiveTlp(std::make_shared<Tlp>(Tlp::makeCompletion(
                      wellknown::kRootComplex, wellknown::kXpu, 1,
                      Bytes{1})),
                  &src);
    sys.run();
    EXPECT_TRUE(a.received.empty());
    ASSERT_EQ(b.received.size(), 1u);
}

TEST(Switch, DropsUnroutableAndCounts)
{
    sim::System sys;
    SinkNode src("src");
    Switch sw(sys, "sw");
    sw.receiveTlp(std::make_shared<Tlp>(Tlp::makeMemWrite(
                      wellknown::kTvm, 0x800, Bytes{1})),
                  &src);
    sys.run();
    EXPECT_EQ(sw.stats().counterHandle("dropped").value(), 1u);
}

TEST(Switch, MessagesGoToDefaultPort)
{
    sim::System sys;
    SinkNode root("root"), src("src");
    Switch sw(sys, "sw");
    Link to_root(sys, "to_root", LinkConfig{});
    to_root.connect(&sw, &root);
    int pr = sw.addPort(&to_root);
    sw.setDefaultPort(pr);

    sw.receiveTlp(std::make_shared<Tlp>(Tlp::makeMessage(
                      wellknown::kXpu, MsgCode::MsiInterrupt)),
                  &src);
    sys.run();
    ASSERT_EQ(root.received.size(), 1u);
    EXPECT_EQ(root.received[0].type, TlpType::Message);
}

namespace
{

/** Echo device: completes every read with a known pattern. */
class EchoDevice : public PcieNode
{
  public:
    EchoDevice(Link *up) : up_(up) {}

    void
    receiveTlp(const TlpPtr &tlp, PcieNode *) override
    {
        if (tlp->type == TlpType::MemRead) {
            Bytes payload(tlp->lengthBytes, 0x5a);
            up_->send(std::make_shared<Tlp>(Tlp::makeCompletion(
                wellknown::kXpu, tlp->requester, tlp->tag,
                std::move(payload))));
        }
    }

    const std::string &nodeName() const override { return name_; }

  private:
    Link *up_;
    std::string name_ = "echo";
};

} // namespace

TEST(RootComplex, ReadCompletionMatching)
{
    sim::System sys;
    HostMemory mem;
    RootComplex rc(sys, "rc", mem);

    Link down(sys, "down", LinkConfig{});
    Link up(sys, "up", LinkConfig{});
    EchoDevice echo(&up);
    down.connect(&rc, &echo);
    up.connect(&echo, &rc);
    rc.connectDownstream(&down);

    Bytes got;
    rc.sendRead(Tlp::makeMemRead(wellknown::kTvm, 0xe0000000, 8, 0),
                [&](const TlpPtr &cpl) { got = cpl->data; });
    sys.run();
    EXPECT_EQ(got, Bytes(8, 0x5a));
    EXPECT_EQ(rc.stats().counterHandle("completions").value(), 1u);
}

// A device that never answers holds every read tag for the whole
// retry budget. The 257th outstanding read finds no free tag: it must
// fail closed with an abort, delivered from the event queue and
// counted, not take down the simulator.
TEST(RootComplex, TagExhaustionAbortsTheRead)
{
    sim::System sys;
    HostMemory mem;
    RootComplex rc(sys, "rc", mem);
    SinkNode silent("silent");
    Link down(sys, "down", LinkConfig{});
    down.connect(&rc, &silent);
    rc.connectDownstream(&down);

    std::vector<CplStatus> got;
    for (int i = 0; i < 256; ++i)
        rc.sendRead(Tlp::makeMemRead(wellknown::kTvm, 0xe0000000, 8, 0),
                    [&](const TlpPtr &cpl) {
                        got.push_back(cpl->cplStatus);
                    });
    bool aborted = false;
    rc.sendRead(Tlp::makeMemRead(wellknown::kTvm, 0xe0000000, 8, 0),
                [&](const TlpPtr &cpl) {
                    aborted = cpl->cplStatus == CplStatus::CompleterAbort;
                });
    EXPECT_FALSE(aborted) << "the abort runs from the event queue";
    EXPECT_EQ(rc.stats().counterHandle("tag_exhausted").value(), 1u);
    EXPECT_EQ(rc.stats().counterHandle("reads_sent").value(), 256u);

    sys.eventq().runUntil(0);
    EXPECT_TRUE(aborted);
    EXPECT_TRUE(got.empty());

    // The first 256 still run out their retry budget and abort.
    sys.run();
    ASSERT_EQ(got.size(), 256u);
    for (CplStatus st : got)
        EXPECT_EQ(st, CplStatus::CompleterAbort);
}

TEST(RootComplex, DeviceDmaWriteHitsHostMemory)
{
    sim::System sys;
    HostMemory mem;
    RootComplex rc(sys, "rc", mem);
    rc.receiveTlp(std::make_shared<Tlp>(Tlp::makeMemWrite(
                      wellknown::kXpu, 0x4000, Bytes{9, 8, 7})),
                  nullptr);
    EXPECT_EQ(mem.read(0x4000, 3), (Bytes{9, 8, 7}));
}

TEST(RootComplex, IommuBlocksDisallowedDma)
{
    sim::System sys;
    HostMemory mem;
    RootComplex rc(sys, "rc", mem);
    rc.setIommuCheck([](Bdf req, Addr, std::uint64_t) {
        return req != wellknown::kMaliciousDevice;
    });

    rc.receiveTlp(
        std::make_shared<Tlp>(Tlp::makeMemWrite(
            wellknown::kMaliciousDevice, 0x4000, Bytes{1})),
        nullptr);
    EXPECT_EQ(mem.read(0x4000, 1), Bytes{0});
    EXPECT_EQ(rc.stats().counterHandle("iommu_blocked").value(), 1u);

    rc.receiveTlp(std::make_shared<Tlp>(Tlp::makeMemWrite(
                      wellknown::kXpu, 0x4000, Bytes{1})),
                  nullptr);
    EXPECT_EQ(mem.read(0x4000, 1), Bytes{1});
}

TEST(RootComplex, IommuAbortsBlockedReads)
{
    sim::System sys;
    HostMemory mem;
    RootComplex rc(sys, "rc", mem);
    rc.setIommuCheck(
        [](Bdf, Addr, std::uint64_t) { return false; });

    SinkNode dev("dev");
    Link down(sys, "down", LinkConfig{});
    down.connect(&rc, &dev);
    rc.connectDownstream(&down);

    rc.receiveTlp(std::make_shared<Tlp>(Tlp::makeMemRead(
                      wellknown::kMaliciousDevice, 0x1000, 64, 5)),
                  nullptr);
    sys.run();
    ASSERT_EQ(dev.received.size(), 1u);
    EXPECT_EQ(dev.received[0].cplStatus, CplStatus::CompleterAbort);
}

TEST(RootComplex, SyntheticDmaReadCompletesSynthetic)
{
    sim::System sys;
    HostMemory mem;
    RootComplex rc(sys, "rc", mem);
    SinkNode dev("dev");
    Link down(sys, "down", LinkConfig{});
    down.connect(&rc, &dev);
    rc.connectDownstream(&down);

    auto req = std::make_shared<Tlp>(
        Tlp::makeMemRead(wellknown::kXpu, 0x1000, 4096, 3));
    req->synthetic = true;
    rc.receiveTlp(req, nullptr);
    sys.run();
    ASSERT_EQ(dev.received.size(), 1u);
    EXPECT_TRUE(dev.received[0].synthetic);
    EXPECT_EQ(dev.received[0].lengthBytes, 4096u);
}
