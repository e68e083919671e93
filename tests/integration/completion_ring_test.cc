/**
 * @file
 * Host-influenced completion-ring input fails closed. The D2H chunk
 * records sit in host-writable memory and the ring tail arrives in an
 * MMIO completion, so the Adaptor range-checks both before it uses
 * them and counts every rejection: a record whose length runs past
 * its transfer is never opened, and a tail outside [head, head +
 * slots] reaps nothing.
 */

#include <gtest/gtest.h>

#include "attack/hostile_endpoint.hh"
#include "ccai/platform.hh"
#include "common/bytes_util.hh"

using namespace ccai;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

namespace
{

constexpr std::uint64_t kTransferBytes = 16 * kKiB;

/** Upload a seeded payload to VRAM and return it. */
Bytes
upload(Platform &p)
{
    sim::Rng rng(0xC0DE);
    Bytes data = rng.bytes(kTransferBytes);
    p.runtime().memcpyH2D(mm::kXpuVram.base, data, data.size(), [] {});
    p.run();
    return data;
}

/**
 * Step @p p until the TVM's next ring-tail read crosses the bus tap,
 * then answer it from @p evil with @p tail before the PCIe-SC can.
 */
void
forgeNextTailRead(Platform &p, attack::HostileEndpoint &evil,
                  std::uint64_t tail)
{
    const auto &cap = p.busTap()->captured();
    std::size_t seen = cap.size();
    for (;;) {
        ASSERT_EQ(p.system().eventq().run(1), 1u)
            << "queue drained before a tail read";
        for (; seen < cap.size(); ++seen) {
            const Tlp &t = cap[seen];
            if (t.type != TlpType::MemRead ||
                t.address != mm::kScMmio.base + mm::screg::kRecordCount)
                continue;
            Bytes value(8);
            storeLe64(value.data(), tail);
            evil.forgeCompletion(t.requester, t.tag, std::move(value));
            return;
        }
    }
}

} // namespace

TEST(CompletionRing, RecordLongerThanItsTransferIsRejected)
{
    PlatformConfig cfg;
    cfg.secure = true;
    // 4 KiB chunks: the readback spans four records.
    cfg.adaptorConfig.chunkBytes = 4 * kKiB;
    Platform p(cfg);
    ASSERT_TRUE(p.establishTrust().ok());
    const Bytes data = upload(p);

    Bytes back;
    bool delivered = false;
    p.runtime().memcpyD2H(mm::kXpuVram.base, data.size(), false,
                          [&](Bytes d) {
                              back = std::move(d);
                              delivered = true;
                          });

    // Step until the PCIe-SC has written the first record of this
    // readback into the pinned ring, before the Adaptor reaps it.
    const AddrRange win = p.adaptor()->config().metaWindow;
    std::uint8_t *slot = p.hostMemory().raw(
        win.base + mm::metaring::slotOffset(
                       0, mm::metaring::slotCount(win.size)),
        backend::ChunkRecord::kWireBytes);
    ASSERT_NE(slot, nullptr);
    while (loadBe32(slot + 24) == 0)
        ASSERT_EQ(p.system().eventq().run(1), 1u);
    ASSERT_EQ(loadBe32(slot + 24), 4 * kKiB);

    // The host stretches the record to four times the transfer.
    storeBe32(slot + 24, 64 * kKiB);
    const std::uint64_t off =
        loadLe64(slot + 16) - p.adaptor()->config().d2hWindow.base;
    p.run();

    ASSERT_TRUE(delivered);
    EXPECT_EQ(p.system().sumCounter("d2h_bad_records"), 1u);
    // The chunk counts as missing: every other chunk arrives, and
    // not one byte of the rejected one.
    Bytes expect(data.begin(), data.begin() + off);
    expect.insert(expect.end(), data.begin() + off + 4 * kKiB,
                  data.end());
    EXPECT_EQ(back, expect);
}

TEST(CompletionRing, ForgedTailOutsideTheRingReapsNothing)
{
    for (bool behindHead : {true, false}) {
        PlatformConfig cfg;
        cfg.secure = true;
        cfg.attachBusTap = true;
        Platform p(cfg);
        ASSERT_TRUE(p.establishTrust().ok());

        attack::HostileEndpoint evil(p.system(), "evil");
        DuplexLink link(p.system(), "sw_evil", &p.rootSwitch(), &evil,
                        LinkConfig{});
        int port = p.rootSwitch().addPort(&link.downstream());
        p.rootSwitch().mapRoutingId(wellknown::kMaliciousDevice, port);
        evil.connectUpstream(&link.upstream());

        const Bytes data = upload(p);
        // A clean readback moves the consumed index off zero.
        Bytes first;
        p.runtime().memcpyD2H(mm::kXpuVram.base, data.size(), false,
                              [&](Bytes d) { first = std::move(d); });
        p.run();
        ASSERT_EQ(first, data);

        const AddrRange win = p.adaptor()->config().metaWindow;
        const std::uint64_t head = loadLe64(
            p.hostMemory().raw(win.base + mm::metaring::kTailOffset, 8));
        ASSERT_GT(head, 0u);
        const std::uint64_t tail =
            behindHead ? head - 1
                       : head + mm::metaring::slotCount(win.size) + 1;

        Bytes second;
        p.runtime().memcpyD2H(mm::kXpuVram.base, data.size(), false,
                              [&](Bytes d) { second = std::move(d); });
        forgeNextTailRead(p, evil, tail);
        p.run();

        EXPECT_EQ(p.system().sumCounter("meta_ring_bad_tail"), 1u)
            << "behind head: " << behindHead;
        // Nothing was reaped from the forged tail; the re-fetch reads
        // the real one and the readback still completes intact.
        EXPECT_GE(p.system().sumCounter("record_fetch_retries"), 1u);
        EXPECT_EQ(second, data) << "behind head: " << behindHead;
    }
}
