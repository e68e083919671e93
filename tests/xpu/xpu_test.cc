/**
 * @file
 * xPU device-model tests: command serialization, MMIO register file,
 * command queue execution, DMA engines, interrupts, environment
 * state, and reset behaviour.
 */

#include <gtest/gtest.h>

#include "pcie/host_memory.hh"
#include "pcie/link.hh"
#include "pcie/root_complex.hh"
#include "xpu/xpu_device.hh"

using namespace ccai;
using namespace ccai::pcie;
using namespace ccai::xpu;
namespace mm = ccai::pcie::memmap;

TEST(XpuCommand, SerializeRoundTrip)
{
    XpuCommand cmd;
    cmd.type = XpuCmdType::DmaFromHost;
    cmd.id = 42;
    cmd.duration = 123456;
    cmd.hostAddr = 0x4'0000'1000;
    cmd.devAddr = 0x10'0000'2000;
    cmd.length = 65536;
    cmd.synthetic = true;

    Bytes wire = cmd.serialize();
    EXPECT_EQ(wire.size(), kXpuCommandBytes);
    XpuCommand back = XpuCommand::deserialize(wire).value();
    EXPECT_EQ(back.type, cmd.type);
    EXPECT_EQ(back.id, cmd.id);
    EXPECT_EQ(back.duration, cmd.duration);
    EXPECT_EQ(back.hostAddr, cmd.hostAddr);
    EXPECT_EQ(back.devAddr, cmd.devAddr);
    EXPECT_EQ(back.length, cmd.length);
    EXPECT_EQ(back.synthetic, cmd.synthetic);
}

TEST(XpuSpec, AllFiveDevicesPresent)
{
    const auto &all = XpuSpec::all();
    EXPECT_EQ(all.size(), 5u);
    EXPECT_EQ(XpuSpec::byName("A100").vendor, "NVIDIA");
    EXPECT_EQ(XpuSpec::byName("N150d").kind, XpuKind::Npu);
    EXPECT_FALSE(XpuSpec::byName("N150d").softwareReset);
    EXPECT_GT(XpuSpec::byName("A100").fp16Tflops,
              XpuSpec::byName("T4").fp16Tflops);
}

namespace
{

/** Harness wiring one xPU under a root complex. */
class XpuHarness
{
  public:
    XpuHarness()
        : rc(sys, "rc", mem),
          dev(sys, "xpu", XpuSpec::a100()),
          down(sys, "down", LinkConfig{}),
          up(sys, "up", LinkConfig{})
    {
        down.connect(&rc, &dev);
        up.connect(&dev, &rc);
        rc.connectDownstream(&down);
        dev.connectUpstream(&up);
    }

    void
    submit(const XpuCommand &cmd, std::uint64_t slot = 0)
    {
        Addr ring = mm::kXpuMmio.base + mm::xpureg::kCmdQueueBase +
                    slot * kXpuCommandBytes;
        rc.sendWrite(Tlp::makeMemWrite(wellknown::kTvm, ring,
                                       cmd.serialize()));
        Bytes bell(8, 0);
        bell[0] =
            static_cast<std::uint8_t>(slot * kXpuCommandBytes);
        rc.sendWrite(Tlp::makeMemWrite(
            wellknown::kTvm, mm::kXpuMmio.base + mm::xpureg::kDoorbell,
            std::move(bell)));
    }

    sim::System sys;
    HostMemory mem;
    RootComplex rc;
    XpuDevice dev;
    Link down, up;
};

} // namespace

TEST(XpuDevice, ExecutesKernelCommand)
{
    XpuHarness h;
    XpuCommand cmd;
    cmd.type = XpuCmdType::LaunchKernel;
    cmd.duration = 100 * kTicksPerUs;
    h.submit(cmd);
    h.sys.run();
    EXPECT_EQ(h.dev.retiredCommands(), 1u);
    EXPECT_GE(h.sys.now(), cmd.duration);
    EXPECT_TRUE(h.dev.envState().cachesDirty);
}

TEST(XpuDevice, FenceRaisesInterrupt)
{
    XpuHarness h;
    bool irq = false;
    h.rc.setMsgHandler([&](const TlpPtr &) { irq = true; });
    XpuCommand cmd;
    cmd.type = XpuCmdType::Fence;
    h.submit(cmd);
    h.sys.run();
    EXPECT_TRUE(irq);
}

TEST(XpuDevice, CommandsExecuteInOrder)
{
    XpuHarness h;
    bool irq = false;
    h.rc.setMsgHandler([&](const TlpPtr &) { irq = true; });

    XpuCommand kernel;
    kernel.type = XpuCmdType::LaunchKernel;
    kernel.duration = 50 * kTicksPerUs;
    h.submit(kernel, 0);
    XpuCommand fence;
    fence.type = XpuCmdType::Fence;
    h.submit(fence, 1);
    h.sys.run();
    EXPECT_TRUE(irq);
    EXPECT_EQ(h.dev.retiredCommands(), 2u);
    EXPECT_GE(h.sys.now(), kernel.duration);
}

TEST(XpuDevice, DmaFromHostPullsData)
{
    XpuHarness h;
    Bytes payload(1024);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i);
    h.mem.write(mm::kBounceH2d.base, payload);

    XpuCommand cmd;
    cmd.type = XpuCmdType::DmaFromHost;
    cmd.hostAddr = mm::kBounceH2d.base;
    cmd.devAddr = mm::kXpuVram.base + 0x100;
    cmd.length = payload.size();
    h.submit(cmd);
    h.sys.run();
    EXPECT_EQ(h.dev.vram().read(0x100, payload.size()), payload);
    EXPECT_TRUE(h.dev.envState().vramDirty);
}

TEST(XpuDevice, DmaToHostPushesData)
{
    XpuHarness h;
    Bytes payload(512, 0xab);
    h.dev.vram().write(0x200, payload);

    XpuCommand cmd;
    cmd.type = XpuCmdType::DmaToHost;
    cmd.hostAddr = mm::kBounceD2h.base;
    cmd.devAddr = mm::kXpuVram.base + 0x200;
    cmd.length = payload.size();
    h.submit(cmd);
    h.sys.run();
    EXPECT_EQ(h.mem.read(mm::kBounceD2h.base, payload.size()),
              payload);
}

TEST(XpuDevice, LargeDmaSplitsIntoBursts)
{
    XpuHarness h;
    XpuCommand cmd;
    cmd.type = XpuCmdType::DmaFromHost;
    cmd.hostAddr = mm::kBounceH2d.base;
    cmd.devAddr = mm::kXpuVram.base;
    cmd.length = 1 * kMiB;
    cmd.synthetic = true;
    h.submit(cmd);
    h.sys.run();
    EXPECT_EQ(h.dev.retiredCommands(), 1u);
    // 1 MiB at 256 KiB bursts: 4 read requests.
    EXPECT_EQ(h.rc.stats().counterHandle("dma_reads").value(), 4u);
}

TEST(XpuDevice, MmioReadReturnsRegister)
{
    XpuHarness h;
    std::uint64_t status = 0;
    h.rc.sendRead(
        Tlp::makeMemRead(wellknown::kTvm,
                         mm::kXpuMmio.base + mm::xpureg::kStatus, 8, 0),
        [&](const TlpPtr &cpl) {
            for (int i = 7; i >= 0; --i)
                status = (status << 8) | cpl->data[i];
        });
    h.sys.run();
    EXPECT_EQ(status, 0x1u); // device ready
}

TEST(XpuDevice, VramReadOverMmio)
{
    XpuHarness h;
    h.dev.vram().write(0x40, {7, 7, 7, 7});
    Bytes got;
    h.rc.sendRead(Tlp::makeMemRead(wellknown::kTvm,
                                   mm::kXpuVram.base + 0x40, 4, 0),
                  [&](const TlpPtr &cpl) { got = cpl->data; });
    h.sys.run();
    EXPECT_EQ(got, (Bytes{7, 7, 7, 7}));
}

TEST(XpuDevice, SoftwareResetScrubsEverything)
{
    XpuHarness h;
    h.dev.vram().write(0, {1, 2, 3});
    XpuCommand kernel;
    kernel.type = XpuCmdType::LaunchKernel;
    kernel.duration = 1000;
    h.submit(kernel);
    h.sys.run();
    EXPECT_FALSE(h.dev.envState().clean());

    // MMIO-triggered reset.
    Bytes one(8, 0);
    one[0] = 1;
    h.rc.sendWrite(Tlp::makeMemWrite(
        wellknown::kTvm, mm::kXpuMmio.base + mm::xpureg::kReset,
        std::move(one)));
    h.sys.run();
    EXPECT_TRUE(h.dev.envState().clean());
    EXPECT_EQ(h.dev.vram().read(0, 3), (Bytes{0, 0, 0}));
    EXPECT_EQ(h.dev.stats().counterHandle("resets").value(), 1u);
}

TEST(XpuDevice, ColdResetDirect)
{
    XpuHarness h;
    h.dev.vram().write(0, {9});
    h.dev.coldReset();
    EXPECT_TRUE(h.dev.envState().clean());
    EXPECT_EQ(h.dev.vram().read(0, 1), Bytes{0});
}

TEST(XpuDevice, DoorbellForEmptySlotIgnored)
{
    XpuHarness h;
    Bytes bell(8, 0);
    h.rc.sendWrite(Tlp::makeMemWrite(
        wellknown::kTvm, mm::kXpuMmio.base + mm::xpureg::kDoorbell,
        std::move(bell)));
    h.sys.run();
    EXPECT_EQ(h.dev.retiredCommands(), 0u);
    EXPECT_EQ(h.dev.stats().counterHandle("doorbell_empty").value(), 1u);
}

TEST(XpuDevice, ShortDescriptorDroppedAndCounted)
{
    XpuHarness h;
    // An 8-byte descriptor, then its doorbell: dropped, not fatal.
    Addr ring = mm::kXpuMmio.base + mm::xpureg::kCmdQueueBase;
    h.rc.sendWrite(Tlp::makeMemWrite(wellknown::kTvm, ring, Bytes(8, 0)));
    Bytes bell(8, 0);
    h.rc.sendWrite(Tlp::makeMemWrite(
        wellknown::kTvm, mm::kXpuMmio.base + mm::xpureg::kDoorbell,
        std::move(bell)));
    // A valid kernel staged behind it still runs.
    XpuCommand kernel;
    kernel.type = XpuCmdType::LaunchKernel;
    kernel.duration = 10 * kTicksPerUs;
    h.submit(kernel, 1);
    h.sys.run();
    EXPECT_EQ(h.dev.stats().counterHandle("bad_cmd_length").value(), 1u);
    EXPECT_EQ(h.dev.stats().counterHandle("commands_queued").value(), 1u);
    EXPECT_EQ(h.dev.retiredCommands(), 1u);
}

TEST(XpuDevice, UnknownCommandTypeDroppedQueueMoves)
{
    XpuHarness h;
    XpuCommand bogus;
    bogus.type = static_cast<XpuCmdType>(0x7f);
    h.submit(bogus, 0);
    XpuCommand kernel;
    kernel.type = XpuCmdType::LaunchKernel;
    kernel.duration = 10 * kTicksPerUs;
    h.submit(kernel, 1);
    h.sys.run();
    EXPECT_EQ(h.dev.stats().counterHandle("bad_cmd_type").value(), 1u);
    EXPECT_EQ(h.dev.retiredCommands(), 1u);
    EXPECT_GE(h.sys.now(), kernel.duration);
}

TEST(XpuDevice, KernelTimeScalesWithDuration)
{
    Tick short_time, long_time;
    {
        XpuHarness h;
        XpuCommand cmd;
        cmd.type = XpuCmdType::LaunchKernel;
        cmd.duration = 10 * kTicksPerUs;
        h.submit(cmd);
        h.sys.run();
        short_time = h.sys.now();
    }
    {
        XpuHarness h;
        XpuCommand cmd;
        cmd.type = XpuCmdType::LaunchKernel;
        cmd.duration = 10 * kTicksPerMs;
        h.submit(cmd);
        h.sys.run();
        long_time = h.sys.now();
    }
    EXPECT_GT(long_time, short_time + 9 * kTicksPerMs);
}
