/**
 * @file
 * Tests for the §6/§9 extension features running through the live
 * platform: IV-exhaustion key rotation mid-session, and customized
 * vendor-defined message packets with rule-based protection.
 */

#include <gtest/gtest.h>

#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

TEST(IvRotationLive, ManyChunksCrossEpochBoundaryCorrectly)
{
    // Tiny IV window: every few chunks force a key rotation on the
    // generating side; the consuming side must keep decrypting via
    // the record's epoch id.
    PlatformConfig cfg{.secure = true};
    cfg.ivExhaustionLimit = 3;
    Platform platform(cfg);
    ASSERT_TRUE(platform.establishTrust().ok());

    sim::Rng rng(1);
    // 6 chunks of 256 KiB -> crosses the 3-IV window twice on H2D.
    Bytes data = rng.bytes(6 * 256 * kKiB);
    Bytes got;
    platform.runtime().memcpyH2D(
        mm::kXpuVram.base, data, data.size(), [&] {
            platform.runtime().memcpyD2H(
                mm::kXpuVram.base, data.size(), false,
                [&](Bytes d) { got = std::move(d); });
        });
    platform.run();

    EXPECT_EQ(got, data);
    // Both directions rotated past epoch 0.
    EXPECT_GT(platform.adaptor()->keyManager()->epochId(
                  trust::StreamDir::HostToDevice),
              0u);
    EXPECT_GT(platform.pcieSc()->keyManager()->epochId(
                  trust::StreamDir::DeviceToHost),
              0u);
    EXPECT_EQ(platform.pcieSc()
                  ->stats()
                  .counterHandle("a2_integrity_failures")
                  .value(),
              0u);
}

TEST(IvRotationLive, RepeatedTransfersKeepRotating)
{
    PlatformConfig cfg{.secure = true};
    cfg.ivExhaustionLimit = 2;
    Platform platform(cfg);
    ASSERT_TRUE(platform.establishTrust().ok());

    sim::Rng rng(2);
    // Several sequential round trips; IVs never repeat because the
    // epoch advances whenever the window is exhausted.
    std::function<void(int)> round = [&](int i) {
        if (i == 0)
            return;
        Bytes data = rng.bytes(300 * kKiB);
        platform.runtime().memcpyH2D(
            mm::kXpuVram.base, data, data.size(),
            [&, data, i]() mutable {
                platform.runtime().memcpyD2H(
                    mm::kXpuVram.base, data.size(), false,
                    [&, data, i](Bytes got) {
                        EXPECT_EQ(got, data) << "round " << i;
                        round(i - 1);
                    });
            });
    };
    round(5);
    platform.run();
    EXPECT_GE(platform.adaptor()->keyManager()->epochId(
                  trust::StreamDir::HostToDevice),
              3u);
}

TEST(VendorMessages, SignedVendorMessageReachesDevice)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());

    p.adaptor()->sendVendorMessage(Bytes{0xca, 0xfe, 0x01});
    p.run();
    EXPECT_EQ(p.xpu().stats().counterHandle("vendor_messages").value(), 1u);
    EXPECT_EQ(p.pcieSc()
                  ->stats()
                  .counterHandle("a3_integrity_failures")
                  .value(),
              0u);
}

TEST(VendorMessages, UnsignedVendorMessageDropped)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());

    // A compromised kernel bypasses the Adaptor and injects a raw
    // vendor message (e.g. a malicious power-management command).
    pcie::Tlp msg = pcie::Tlp::makeVendorMessage(
        pcie::wellknown::kTvm, Bytes{0xde, 0xad});
    msg.seqNo = 999; // fresh sequence, but no MAC
    p.rootComplex().sendWrite(std::move(msg));
    p.run();

    EXPECT_EQ(p.xpu().stats().counterHandle("vendor_messages").value(), 0u);
    EXPECT_GT(p.pcieSc()
                  ->stats()
                  .counterHandle("a3_integrity_failures")
                  .value(),
              0u);
}

TEST(VendorMessages, DeviceInterruptsStillTransparent)
{
    // The vendor-message rule must not affect MSI delivery.
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    bool synced = false;
    p.runtime().launchKernel(1000);
    p.runtime().synchronize([&] { synced = true; });
    p.run();
    EXPECT_TRUE(synced);
}

TEST(VendorMessages, RuleSerializationPreservesMsgCodeSelector)
{
    backend::L2Rule rule;
    rule.type = pcie::TlpType::Message;
    rule.anyRequester = false;
    rule.requester = pcie::wellknown::kTvm;
    rule.anyCompleter = true;
    rule.anyMsgCode = false;
    rule.msgCode = pcie::MsgCode::VendorDefined;
    rule.action = backend::SecurityAction::A3_PlainIntegrity;

    backend::L2Rule back = backend::L2Rule::deserialize(rule.serialize());
    EXPECT_EQ(back.anyMsgCode, rule.anyMsgCode);
    EXPECT_EQ(back.msgCode, rule.msgCode);

    pcie::Tlp vendor = pcie::Tlp::makeVendorMessage(
        pcie::wellknown::kTvm, Bytes{1});
    pcie::Tlp msi = pcie::Tlp::makeMessage(
        pcie::wellknown::kTvm, pcie::MsgCode::MsiInterrupt);
    EXPECT_TRUE(back.matches(vendor));
    EXPECT_FALSE(back.matches(msi));
}
