/**
 * @file
 * TVM-side tests: Adaptor session setup and signed writes, driver
 * command submission, runtime semantics in vanilla mode, and the
 * IOMMU policy.
 */

#include <gtest/gtest.h>

#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

TEST(Tvm, IommuSecurePolicy)
{
    Platform p(PlatformConfig{.secure = true});
    p.establishTrust();
    auto &rc = p.rootComplex();

    // xPU may only reach the bounce buffers.
    rc.receiveTlp(std::make_shared<Tlp>(Tlp::makeMemWrite(
                      wellknown::kXpu, mm::kTvmPrivate.base,
                      Bytes{1})),
                  nullptr);
    EXPECT_EQ(rc.stats().counterHandle("iommu_blocked").value(), 1u);
    EXPECT_EQ(p.hostMemory().read(mm::kTvmPrivate.base, 1), Bytes{0});

    rc.receiveTlp(std::make_shared<Tlp>(Tlp::makeMemWrite(
                      wellknown::kXpu, mm::kBounceD2h.base,
                      Bytes{7})),
                  nullptr);
    EXPECT_EQ(p.hostMemory().read(mm::kBounceD2h.base, 1), Bytes{7});

    // The PCIe-SC may only write the metadata buffer.
    rc.receiveTlp(std::make_shared<Tlp>(Tlp::makeMemWrite(
                      wellknown::kPcieSc, mm::kMetadataBuffer.base,
                      Bytes{9})),
                  nullptr);
    EXPECT_EQ(p.hostMemory().read(mm::kMetadataBuffer.base, 1),
              Bytes{9});
    rc.receiveTlp(std::make_shared<Tlp>(Tlp::makeMemWrite(
                      wellknown::kPcieSc, mm::kTvmPrivate.base,
                      Bytes{9})),
                  nullptr);
    EXPECT_EQ(rc.stats().counterHandle("iommu_blocked").value(), 2u);
}

TEST(Tvm, InterruptWaitersFifo)
{
    Platform p(PlatformConfig{.secure = false});
    std::vector<int> order;
    p.tvm().waitInterrupt([&] { order.push_back(1); });
    p.tvm().waitInterrupt([&] { order.push_back(2); });

    auto msi = std::make_shared<Tlp>(
        Tlp::makeMessage(wellknown::kXpu, MsgCode::MsiInterrupt));
    p.rootComplex().receiveTlp(msi, nullptr);
    p.rootComplex().receiveTlp(msi, nullptr);
    p.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Adaptor, SignedWritesCarryMonotonicSequence)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    auto *sc = p.pcieSc();

    // Two doorbell writes; the SC must accept both (fresh seqNos).
    p.adaptor()->writeSigned(mm::kScMmio.base +
                                 mm::screg::kNotifyTransfer,
                             Bytes(8, 1));
    p.adaptor()->writeSigned(mm::kScMmio.base +
                                 mm::screg::kNotifyTransfer,
                             Bytes(8, 1));
    p.run();
    EXPECT_EQ(sc->stats().counterHandle("transfer_notifies").value(), 2u);
    EXPECT_EQ(sc->stats().counterHandle("a3_integrity_failures").value(),
              0u);
}

TEST(Adaptor, CryptoDelayReflectsConfig)
{
    Platform hw_platform(PlatformConfig{.secure = true});
    PlatformConfig no_opt{.secure = true};
    no_opt.adaptorConfig = tvm::AdaptorConfig::noOptimizations();
    Platform sw_platform(no_opt);

    Tick hw = hw_platform.adaptor()->cryptoDelay(1 * kMiB);
    Tick sw = sw_platform.adaptor()->cryptoDelay(1 * kMiB);
    EXPECT_GT(sw, hw * 10) << "software AES must be much slower";
}

TEST(Adaptor, PolicyUpdateReachesController)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    auto *sc = p.pcieSc();
    std::uint64_t before = sc->filter().classified();

    p.adaptor()->pktFilterManage(backend::defaultPolicy(
        wellknown::kTvm, wellknown::kXpu, wellknown::kPcieSc));
    p.run();
    // The encrypted config write itself got classified (A2) and the
    // filter accepted the new tables (no rejected configs).
    EXPECT_GT(sc->filter().classified(), before);
    EXPECT_EQ(sc->filter().rejectedConfigs(), 0u);
    EXPECT_GT(sc->filter().tables().l1Size(), 0u);
}

TEST(Driver, SubmitsDescriptorPlusDoorbell)
{
    Platform p(PlatformConfig{.secure = false});
    xpu::XpuCommand cmd;
    cmd.type = xpu::XpuCmdType::LaunchKernel;
    cmd.duration = 1000;
    p.driver().submitCommand(cmd);
    p.run();
    EXPECT_EQ(p.driver().submitted(), 1u);
    EXPECT_EQ(p.xpu().retiredCommands(), 1u);
}

TEST(Driver, FenceCallbackAfterAllPriorWork)
{
    Platform p(PlatformConfig{.secure = false});
    xpu::XpuCommand kernel;
    kernel.type = xpu::XpuCmdType::LaunchKernel;
    kernel.duration = 5 * kTicksPerMs;
    p.driver().submitCommand(kernel);

    Tick done_at = 0;
    p.driver().fence([&] { done_at = p.system().now(); });
    p.run();
    EXPECT_GE(done_at, 5 * kTicksPerMs);
}

TEST(Runtime, VanillaH2dDataReachesVram)
{
    Platform p(PlatformConfig{.secure = false});
    Bytes data = {10, 20, 30, 40};
    bool done = false;
    p.runtime().memcpyH2D(mm::kXpuVram.base + 0x100, data,
                          data.size(), [&] { done = true; });
    p.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(p.xpu().vram().read(0x100, data.size()), data);
}

TEST(Runtime, VanillaD2hReturnsVramData)
{
    Platform p(PlatformConfig{.secure = false});
    p.xpu().vram().write(0x200, {5, 6, 7});
    Bytes got;
    p.runtime().memcpyD2H(mm::kXpuVram.base + 0x200, 3, false,
                          [&](Bytes data) { got = std::move(data); });
    p.run();
    EXPECT_EQ(got, (Bytes{5, 6, 7}));
}

TEST(Runtime, VanillaRoundTripLarge)
{
    Platform p(PlatformConfig{.secure = false});
    sim::Rng rng(77);
    Bytes data = rng.bytes(1 * kMiB);
    Bytes got;
    p.runtime().memcpyH2D(mm::kXpuVram.base, data, data.size(), [&] {
        p.runtime().memcpyD2H(mm::kXpuVram.base, data.size(), false,
                              [&](Bytes d) { got = std::move(d); });
    });
    p.run();
    EXPECT_EQ(got, data);
}

TEST(Runtime, SynchronizeDrainsQueue)
{
    Platform p(PlatformConfig{.secure = false});
    p.runtime().launchKernel(2 * kTicksPerMs);
    p.runtime().launchKernel(3 * kTicksPerMs);
    bool synced = false;
    p.runtime().synchronize([&] { synced = true; });
    p.run();
    EXPECT_TRUE(synced);
    EXPECT_GE(p.system().now(), 5 * kTicksPerMs);
    EXPECT_EQ(p.xpu().retiredCommands(), 3u); // 2 kernels + fence
}
