/**
 * @file
 * Host-influenced completion-ring input fails closed. The D2H chunk
 * records sit in host-writable memory and the ring tail arrives in an
 * MMIO completion, so the Adaptor range-checks both before it uses
 * them and counts every rejection: a record whose length runs past
 * its transfer is never opened, and a tail outside [head, head +
 * slots] reaps nothing. The per-record MMIO path (Figure 11's
 * non-optimized design) holds to the same rules: a record count
 * beyond the record window reaps nothing, and a short record
 * completion is dropped and fetched again.
 */

#include <gtest/gtest.h>

#include <memory>

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

/** Splice a hostile endpoint onto @p p's root switch. */
std::unique_ptr<DuplexLink>
attachEvil(Platform &p, attack::HostileEndpoint &evil)
{
    auto link = std::make_unique<DuplexLink>(
        p.system(), "sw_evil", &p.rootSwitch(), &evil, LinkConfig{});
    int port = p.rootSwitch().addPort(&link->downstream());
    p.rootSwitch().mapRoutingId(wellknown::kMaliciousDevice, port);
    evil.connectUpstream(&link->upstream());
    return link;
}

/**
 * Step @p p until the TVM's next read of PCIe-SC register @p offset
 * crosses the bus tap, then answer it from @p evil with @p payload
 * before the PCIe-SC can.
 */
void
forgeNextRead(Platform &p, attack::HostileEndpoint &evil, Addr offset,
              Bytes payload)
{
    const auto &cap = p.busTap()->captured();
    std::size_t seen = cap.size();
    for (;;) {
        ASSERT_EQ(p.system().eventq().run(1), 1u)
            << "queue drained before the read";
        for (; seen < cap.size(); ++seen) {
            const Tlp &t = cap[seen];
            if (t.type != TlpType::MemRead ||
                t.address != mm::kScMmio.base + offset)
                continue;
            evil.forgeCompletion(t.requester, t.tag, std::move(payload));
            return;
        }
    }
}

/** Answer the next record-count (ring tail) read with @p tail. */
void
forgeNextTailRead(Platform &p, attack::HostileEndpoint &evil,
                  std::uint64_t tail)
{
    Bytes value(8);
    storeLe64(value.data(), tail);
    forgeNextRead(p, evil, mm::screg::kRecordCount, std::move(value));
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
    const AddrRange win = p.adaptor()->windows().meta;
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
        loadLe64(slot + 16) - p.adaptor()->windows().d2h.base;
    p.run();

    ASSERT_TRUE(delivered);
    EXPECT_EQ(p.metrics().sumCounter("d2h_bad_records"), 1u);
    // The chunk counts as missing: every other chunk arrives, and
    // not one byte of the rejected one.
    Bytes expect(data.begin(), data.begin() + off);
    expect.insert(expect.end(), data.begin() + off + 4 * kKiB,
                  data.end());
    EXPECT_EQ(back, expect);
}

TEST(CompletionRing, ForgedTailOutsideTheRingReapsNothing)
{
    struct Case
    {
        const char *name;
        bool ringMode;
        bool behindHead;
    };
    for (const Case &c :
         {Case{"ring, behind the head", true, true},
          Case{"ring, past the ring", true, false},
          Case{"per-record, past the window", false, false}}) {
        PlatformConfig cfg;
        cfg.secure = true;
        cfg.attachBusTap = true;
        cfg.adaptorConfig.batchMetadataReads = c.ringMode;
        Platform p(cfg);
        ASSERT_TRUE(p.establishTrust().ok());
        attack::HostileEndpoint evil(p.system(), "evil");
        auto link = attachEvil(p, evil);

        const Bytes data = upload(p);
        // A clean readback moves the consumed index off zero.
        Bytes first;
        p.runtime().memcpyD2H(mm::kXpuVram.base, data.size(), false,
                              [&](Bytes d) { first = std::move(d); });
        p.run();
        ASSERT_EQ(first, data) << c.name;

        // Per-record mode: one record more than the window holds,
        // whose reads would walk off the end of the PCIe-SC's BAR.
        std::uint64_t tail = mm::screg::kRecordWindowSlots + 1;
        if (c.ringMode) {
            const AddrRange win = p.adaptor()->windows().meta;
            const std::uint64_t head = loadLe64(p.hostMemory().raw(
                win.base + mm::metaring::kTailOffset, 8));
            ASSERT_GT(head, 0u);
            tail = c.behindHead
                       ? head - 1
                       : head + mm::metaring::slotCount(win.size) + 1;
        }

        Bytes second;
        p.runtime().memcpyD2H(mm::kXpuVram.base, data.size(), false,
                              [&](Bytes d) { second = std::move(d); });
        forgeNextTailRead(p, evil, tail);
        p.run();

        EXPECT_EQ(p.metrics().sumCounter("meta_ring_bad_tail"), 1u)
            << c.name;
        // Nothing was reaped from the forged tail; the re-fetch reads
        // the real one and the readback still completes intact.
        EXPECT_GE(p.metrics().sumCounter("record_fetch_retries"), 1u)
            << c.name;
        EXPECT_EQ(second, data) << c.name;
    }
}

TEST(CompletionRing, ShortRecordCompletionIsDroppedAndReFetched)
{
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.attachBusTap = true;
    cfg.adaptorConfig.batchMetadataReads = false;
    Platform p(cfg);
    ASSERT_TRUE(p.establishTrust().ok());
    attack::HostileEndpoint evil(p.system(), "evil");
    auto link = attachEvil(p, evil);
    const Bytes data = upload(p);

    Bytes back;
    p.runtime().memcpyD2H(mm::kXpuVram.base, data.size(), false,
                          [&](Bytes d) { back = std::move(d); });
    // The first per-record read gets an 8-byte answer, not a record.
    forgeNextRead(p, evil, mm::screg::kRecordWindow, Bytes(8, 0xee));
    p.run();

    EXPECT_EQ(p.metrics().sumCounter("d2h_bad_records"), 1u);
    EXPECT_GE(p.metrics().sumCounter("record_fetch_retries"), 1u);
    EXPECT_EQ(back, data);
}
