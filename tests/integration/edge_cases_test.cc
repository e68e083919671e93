/**
 * @file
 * Edge-case coverage: command-ring wraparound, long interleaved
 * workloads, stats aggregation, and teardown/re-establishment of a
 * session on the same platform.
 */

#include <gtest/gtest.h>

#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

TEST(EdgeCases, CommandRingWrapsPastSixtyFourSlots)
{
    Platform p(PlatformConfig{.secure = false});
    // 3x the ring depth of kernels, then a fence: every slot gets
    // reused and all commands retire in order.
    constexpr int kCount = 3 * tvm::XpuDriver::kRingSlots;
    for (int i = 0; i < kCount; ++i)
        p.runtime().launchKernel(10 * kTicksPerUs);
    bool synced = false;
    p.runtime().synchronize([&] { synced = true; });
    p.run();
    EXPECT_TRUE(synced);
    EXPECT_EQ(p.xpu().retiredCommands(),
              std::uint64_t(kCount) + 1); // + fence
    EXPECT_EQ(p.xpu().stats().counterHandle("doorbell_empty").value(), 0u);
}

TEST(EdgeCases, InterleavedTransfersAndKernelsSecure)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    sim::Rng rng(11);

    // kernel -> H2D -> kernel -> D2H, several rounds, data checked
    // each round.
    int rounds_left = 4;
    std::function<void()> round = [&]() {
        if (rounds_left-- == 0)
            return;
        Bytes data = rng.bytes(64 * kKiB);
        p.runtime().launchKernel(100 * kTicksPerUs);
        p.runtime().memcpyH2D(
            mm::kXpuVram.base, data, data.size(), [&, data] {
                p.runtime().launchKernel(100 * kTicksPerUs);
                p.runtime().memcpyD2H(
                    mm::kXpuVram.base, data.size(), false,
                    [&, data](Bytes got) {
                        EXPECT_EQ(got, data);
                        round();
                    });
            });
    };
    round();
    p.run();
    EXPECT_EQ(rounds_left, -1);
    EXPECT_EQ(p.pcieSc()
                  ->stats()
                  .counterHandle("a2_integrity_failures")
                  .value(),
              0u);
}

TEST(EdgeCases, SessionReestablishmentAfterEndTask)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());

    p.adaptor()->endTask(true);
    p.run();
    EXPECT_FALSE(p.pcieSc()->sessionEstablished());

    // A fresh trust round brings the platform back to life.
    ASSERT_TRUE(p.establishTrust().ok());
    EXPECT_TRUE(p.pcieSc()->sessionEstablished());

    sim::Rng rng(12);
    Bytes data = rng.bytes(8 * kKiB);
    Bytes got;
    p.runtime().memcpyH2D(mm::kXpuVram.base, data, data.size(), [&] {
        p.runtime().memcpyD2H(mm::kXpuVram.base, data.size(), false,
                              [&](Bytes d) { got = std::move(d); });
    });
    p.run();
    EXPECT_EQ(got, data);
}

TEST(EdgeCases, StatsDumpAggregatesComponents)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    bool done = false;
    p.runtime().memcpyH2D(mm::kXpuVram.base, std::nullopt, 1 * kMiB,
                          [&] { done = true; });
    p.run();
    ASSERT_TRUE(done);

    std::string dump = p.metrics().dump();
    for (const char *key :
         {"pcie_sc.down_tlps", "adaptor.h2d_bytes", "rc.writes_sent",
          "xpu.commands_queued", "root_switch.forwarded"}) {
        EXPECT_NE(dump.find(key), std::string::npos) << key;
    }
}

TEST(EdgeCases, ZeroLengthTransferCompletesImmediately)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    bool done = false;
    p.runtime().memcpyH2D(mm::kXpuVram.base, Bytes{}, 0,
                          [&] { done = true; });
    p.run();
    EXPECT_TRUE(done);
}

TEST(EdgeCases, EmptyD2hReturnsEmpty)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    bool done = false;
    p.runtime().memcpyD2H(mm::kXpuVram.base, 0, false, [&](Bytes d) {
        EXPECT_TRUE(d.empty());
        done = true;
    });
    p.run();
    EXPECT_TRUE(done);
}

TEST(EdgeCases, BounceRingReuseAcrossManyTransfers)
{
    // More transfer volume than the bounce window: the ring
    // allocator must recycle without corrupting in-flight data.
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    sim::Rng rng(13);

    int remaining = 6;
    std::function<void()> next = [&]() {
        if (remaining-- == 0)
            return;
        Bytes data = rng.bytes(200 * kMiB);
        p.runtime().memcpyH2D(mm::kXpuVram.base, std::nullopt,
                              200 * kMiB, [&] { next(); });
        (void)data;
    };
    next();
    p.run();
    EXPECT_EQ(remaining, -1);
    EXPECT_EQ(p.xpu().stats().counterHandle("dma_aborts").value(), 0u);
}
