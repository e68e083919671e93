/**
 * @file
 * Security analysis test suite (paper §8.2, RQ2): every adversary
 * class of the threat model is exercised against the full platform
 * and must be defeated — bus snooping sees only ciphertext, tamper/
 * replay/reorder are detected, malicious devices and rogue VMs are
 * blocked, and forged configuration is rejected.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "attack/bus_tap.hh"
#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::pcie;
using namespace ccai::attack;
namespace mm = ccai::pcie::memmap;

namespace
{

/**
 * A secure platform with a bus tap spliced between the root switch
 * and the PCIe-SC — the host-side PCIe segment the paper's threat
 * model exposes to physical attackers.
 */
class TappedPlatform
{
  public:
    TappedPlatform()
        : platform(PlatformConfig{.secure = true,
                                  .attachBusTap = true}),
          tap(*platform.busTap())
    {
        TrustReport report = platform.establishTrust();
        if (!report.ok())
            fatal("trust failed: %s", report.failure.c_str());
    }

    Platform platform;
    BusTap &tap;
};

bool
containsSubsequence(const Bytes &haystack, const Bytes &needle)
{
    if (needle.empty() || haystack.size() < needle.size())
        return false;
    return std::search(haystack.begin(), haystack.end(),
                       needle.begin(),
                       needle.end()) != haystack.end();
}

} // namespace

// Note: the splice sits between switch and SC, so address-range
// remapping prefers the later-added tap port only for new lookups.
// The switch's first-match tables still hold the old entries, so we
// verify the tap actually sees traffic in each test.

TEST(Snooping, BusAttackerSeesOnlyCiphertext)
{
    TappedPlatform rig;
    sim::Rng rng(1);
    Bytes secret = rng.bytes(4096);

    bool done = false;
    rig.platform.runtime().memcpyH2D(mm::kXpuVram.base, secret,
                                     secret.size(),
                                     [&] { done = true; });
    rig.platform.run();
    ASSERT_TRUE(done);
    ASSERT_FALSE(rig.tap.captured().empty())
        << "tap must be in the path";

    // No captured packet payload contains any 16-byte window of the
    // secret in plaintext.
    Bytes probe(secret.begin(), secret.begin() + 16);
    for (const Tlp &tlp : rig.tap.capturedWithData()) {
        EXPECT_FALSE(containsSubsequence(tlp.data, probe))
            << "plaintext leaked in " << tlp.toString();
    }
    // And the secret still arrived intact at the device.
    EXPECT_EQ(rig.platform.xpu().vram().read(0, secret.size()),
              secret);
}

TEST(Snooping, ResultsAlsoEncryptedOnBus)
{
    TappedPlatform rig;
    sim::Rng rng(2);
    Bytes result = rng.bytes(2048);
    rig.platform.xpu().vram().write(0x5000, result);

    Bytes got;
    rig.platform.runtime().memcpyD2H(mm::kXpuVram.base + 0x5000,
                                     result.size(), false,
                                     [&](Bytes d) { got = std::move(d); });
    rig.platform.run();
    ASSERT_EQ(got, result);

    Bytes probe(result.begin(), result.begin() + 16);
    for (const Tlp &tlp : rig.tap.capturedWithData()) {
        // Result plaintext must never appear upstream of the SC.
        EXPECT_FALSE(containsSubsequence(tlp.data, probe))
            << tlp.toString();
    }
}

TEST(Tampering, CorruptedCiphertextDetectedNotConsumed)
{
    TappedPlatform rig;
    rig.tap.setMode(TapMode::TamperPayload);
    // Target only bulk data completions heading to the device.
    rig.tap.setTargetFilter([](const Tlp &tlp) {
        return tlp.type == TlpType::Completion &&
               tlp.data.size() >= 1024;
    });

    sim::Rng rng(3);
    Bytes secret = rng.bytes(4096);
    rig.platform.runtime().memcpyH2D(mm::kXpuVram.base + 0x100,
                                     secret, secret.size(), [] {});
    rig.platform.run();

    EXPECT_GT(rig.tap.tampered(), 0u);
    EXPECT_GT(rig.platform.pcieSc()
                  ->stats()
                  .counterHandle("a2_integrity_failures")
                  .value(),
              0u);
    // The device never received the corrupted plaintext.
    Bytes vram = rig.platform.xpu().vram().read(0x100, secret.size());
    EXPECT_NE(vram, secret);
    EXPECT_EQ(vram, Bytes(secret.size(), 0));
}

/**
 * The synthetic (length-only) bit is a codec flag outside every MAC,
 * so the PCIe-SC decides length-only from the MAC-covered chunk
 * record. A bulk completion the bus attacker strips to length-only
 * is an integrity failure, never a silent zero-filled write.
 */
TEST(Tampering, StrippedCompletionFailsIntegrityAndIsReRead)
{
    TappedPlatform rig;
    rig.tap.setMode(TapMode::StripPayload);
    // Strip the first bulk data completion heading to the device.
    rig.tap.setTargetFilter([n = 0](const Tlp &tlp) mutable {
        return tlp.type == TlpType::Completion &&
               tlp.data.size() >= 1024 && n++ == 0;
    });

    sim::Rng rng(9);
    Bytes secret = rng.bytes(4096);
    bool done = false;
    rig.platform.runtime().memcpyH2D(mm::kXpuVram.base + 0x100,
                                     secret, secret.size(),
                                     [&] { done = true; });
    rig.platform.run();

    ASSERT_TRUE(done);
    EXPECT_EQ(rig.tap.tampered(), 1u);
    auto &sc = rig.platform.pcieSc()->stats();
    EXPECT_EQ(sc.counterHandle("a2_integrity_failures").value(), 1u);
    EXPECT_EQ(sc.counterHandle("a2_read_retries").value(), 1u);
    // The re-read delivered the real ciphertext.
    EXPECT_EQ(rig.platform.xpu().vram().read(0x100, secret.size()),
              secret);
}

TEST(Tampering, EveryCompletionStrippedAbortsTheDma)
{
    TappedPlatform rig;
    rig.tap.setMode(TapMode::StripPayload);
    rig.tap.setTargetFilter([](const Tlp &tlp) {
        return tlp.type == TlpType::Completion &&
               tlp.data.size() >= 1024;
    });

    sim::Rng rng(10);
    Bytes secret = rng.bytes(4096);
    rig.platform.runtime().memcpyH2D(mm::kXpuVram.base + 0x100,
                                     secret, secret.size(), [] {});
    rig.platform.run();

    // The re-read budget runs out and the device's DMA is aborted:
    // a counted failure, not a silent success.
    EXPECT_GE(rig.platform.pcieSc()
                  ->stats()
                  .counterHandle("faults_fatal")
                  .value(),
              1u);
    EXPECT_GE(rig.platform.xpu()
                  .stats()
                  .counterHandle("dma_aborts")
                  .value(),
              1u);
    EXPECT_EQ(rig.platform.xpu().vram().read(0x100, secret.size()),
              Bytes(secret.size(), 0));
}

/**
 * A D2H chunk tampered with between the PCIe-SC and the host fails
 * the Adaptor's tag check after delivery; its kChunkRetry makes the
 * SC replay the sealed TLP it sent, which the tap's tampered copy
 * left pristine.
 */
TEST(Tampering, TamperedD2hChunkIsReplayedIntact)
{
    TappedPlatform rig;
    rig.tap.setMode(TapMode::TamperPayload);
    // Only the first result write into the D2H bounce window.
    rig.tap.setTargetFilter([n = 0](const Tlp &tlp) mutable {
        return tlp.type == TlpType::MemWrite &&
               mm::kBounceD2h.contains(tlp.address) && n++ == 0;
    });

    sim::Rng rng(11);
    Bytes result = rng.bytes(1 * kMiB);
    rig.platform.xpu().vram().write(0, result);
    Bytes got;
    rig.platform.runtime().memcpyD2H(mm::kXpuVram.base, result.size(),
                                     false,
                                     [&](Bytes d) { got = std::move(d); });
    rig.platform.run();

    EXPECT_EQ(rig.tap.tampered(), 1u);
    EXPECT_TRUE(got == result);
    auto &adaptor = rig.platform.adaptor()->stats();
    auto &sc = rig.platform.pcieSc()->stats();
    EXPECT_EQ(adaptor.counterHandle("d2h_integrity_failures").value(), 1u);
    EXPECT_EQ(adaptor.counterHandle("d2h_chunk_retries").value(), 1u);
    EXPECT_EQ(sc.counterHandle("d2h_replays").value(), 1u);
    EXPECT_EQ(adaptor.counterHandle("faults_fatal").value(), 0u);
    EXPECT_EQ(sc.counterHandle("faults_fatal").value(), 0u);
}

TEST(Tampering, CommandTamperDetectedByA3)
{
    TappedPlatform rig;
    rig.tap.setMode(TapMode::TamperPayload);
    rig.tap.setTargetFilter([](const Tlp &tlp) {
        return tlp.type == TlpType::MemWrite &&
               mm::kXpuMmio.contains(tlp.address) &&
               tlp.data.size() == 64; // command descriptors
    });

    rig.platform.runtime().launchKernel(1 * kTicksPerMs);
    rig.platform.run();

    EXPECT_GT(rig.tap.tampered(), 0u);
    EXPECT_GT(rig.platform.pcieSc()
                  ->stats()
                  .counterHandle("a3_integrity_failures")
                  .value(),
              0u);
    // The tampered command never executed.
    EXPECT_EQ(rig.platform.xpu().stats().counterHandle("kernels").value(),
              0u);
}

TEST(Replay, ReplayedCommandSuppressedExactlyOnce)
{
    TappedPlatform rig;
    rig.tap.setMode(TapMode::Replay);
    rig.tap.setTargetFilter([](const Tlp &tlp) {
        return tlp.type == TlpType::MemWrite &&
               mm::kXpuMmio.contains(tlp.address) &&
               tlp.address >=
                   mm::kXpuMmio.base + mm::xpureg::kCmdQueueBase;
    });

    rig.platform.runtime().launchKernel(1 * kTicksPerMs);
    rig.platform.run();

    // The original executed once; the replayed copy carries an
    // already-delivered sequence number, so the transport gate
    // drops it before it can reach the command ring again. (The A3
    // MAC covers the sequence fields, so an attacker cannot re-stamp
    // the replay with a fresh sequence number either — that variant
    // dies in a3_integrity_failures instead.)
    EXPECT_EQ(rig.platform.xpu().stats().counterHandle("kernels").value(),
              1u);
    EXPECT_GT(rig.platform.pcieSc()
                  ->stats()
                  .counterHandle("transport_rx_duplicates")
                  .value(),
              0u);
}

TEST(Replay, ResequencedReplayFailsTheMac)
{
    // The stronger replay variant: the attacker re-stamps the copied
    // command with the next expected sequence number so the
    // transport gate accepts it. The A3 MAC covers the sequence
    // fields, so the forgery must fail integrity instead.
    TappedPlatform rig;
    rig.tap.setMode(TapMode::ReplayResequenced);
    rig.tap.setTargetFilter([](const Tlp &tlp) {
        return tlp.type == TlpType::MemWrite &&
               mm::kXpuMmio.contains(tlp.address) &&
               tlp.address >=
                   mm::kXpuMmio.base + mm::xpureg::kCmdQueueBase;
    });

    rig.platform.runtime().launchKernel(1 * kTicksPerMs);
    rig.platform.run();

    EXPECT_EQ(rig.platform.xpu().stats().counterHandle("kernels").value(),
              1u);
    EXPECT_GT(rig.platform.pcieSc()
                  ->stats()
                  .counterHandle("a3_integrity_failures")
                  .value(),
              0u);
}

TEST(Reorder, SwappedCommandsHealedInOrder)
{
    TappedPlatform rig;
    rig.tap.setMode(TapMode::Reorder);
    rig.tap.setTargetFilter([](const Tlp &tlp) {
        return tlp.type == TlpType::MemWrite &&
               mm::kXpuMmio.contains(tlp.address);
    });

    rig.platform.runtime().launchKernel(1 * kTicksPerMs);
    rig.platform.run();

    // The overtaking packet opens a sequence gap: the gate NAKs and
    // drops it, and go-back-N redelivers everything in order — the
    // attack degrades into latency. The kernel still ran exactly
    // once with its commands applied in program order.
    EXPECT_GT(rig.platform.pcieSc()
                  ->stats()
                  .counterHandle("transport_rx_ooo")
                  .value(),
              0u);
    EXPECT_EQ(rig.platform.xpu().stats().counterHandle("kernels").value(),
              1u);
}

TEST(MaliciousDevice, BlockedFromHostAndXpu)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());

    // Attach a malicious peer device to the root switch.
    MaliciousDevice evil(p.system(), "evil");
    auto link = std::make_unique<DuplexLink>(
        p.system(), "sw_evil", &p.rootSwitch(), &evil, LinkConfig{});
    int port = p.rootSwitch().addPort(&link->downstream());
    p.rootSwitch().mapRoutingId(wellknown::kMaliciousDevice, port);
    evil.connectUpstream(&link->upstream());

    // Plant a secret in TVM memory; the device tries to read it.
    p.hostMemory().write(mm::kTvmPrivate.base, Bytes(64, 0x77));
    evil.dmaReadHost(mm::kTvmPrivate.base, 64);
    // And tries to probe the protected xPU.
    evil.probeXpu(mm::kXpuMmio.base + mm::xpureg::kStatus, 8);
    evil.dmaWrite(mm::kXpuMmio.base + mm::xpureg::kDoorbell,
                  Bytes(8, 0));
    p.run();

    EXPECT_TRUE(evil.loot().empty()) << "no data may leak";
    // Host read blocked by IOMMU, xPU probe aborted by the SC.
    EXPECT_GT(p.rootComplex().stats().counterHandle("iommu_blocked").value(),
              0u);
    EXPECT_GT(p.pcieSc()->filter().blocked(), 0u);
    EXPECT_GE(evil.aborts(), 1u);
}

TEST(MaliciousDevice, SpoofedRequesterStillBlocked)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());

    MaliciousDevice evil(p.system(), "evil");
    auto link = std::make_unique<DuplexLink>(
        p.system(), "sw_evil", &p.rootSwitch(), &evil, LinkConfig{});
    int port = p.rootSwitch().addPort(&link->downstream());
    p.rootSwitch().mapRoutingId(wellknown::kMaliciousDevice, port);
    evil.connectUpstream(&link->upstream());

    // Forge the TVM's requester ID and read the xPU's VRAM: the L2
    // policy prohibits VRAM reads even for the real TVM, so the
    // spoof gains nothing.
    p.xpu().vram().write(0, Bytes(64, 0x42));
    evil.spoofRequester(wellknown::kTvm, mm::kXpuVram.base, 64);
    p.run();
    EXPECT_TRUE(evil.loot().empty());
    EXPECT_GT(p.pcieSc()->filter().blocked(), 0u);
}

TEST(RogueVm, UnauthorizedTvmBlockedByFilter)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());

    // The compromised hypervisor issues MMIO on behalf of a rogue
    // VM (different requester ID).
    p.rootComplex().sendWrite(Tlp::makeMemWrite(
        wellknown::kRogueVm,
        mm::kXpuMmio.base + mm::xpureg::kDoorbell, Bytes(8, 0)));
    Bytes loot;
    p.rootComplex().sendRead(
        Tlp::makeMemRead(wellknown::kRogueVm, mm::kXpuVram.base, 64,
                         0),
        [&](const TlpPtr &cpl) { loot = cpl->data; });
    p.run();

    EXPECT_TRUE(loot.empty());
    EXPECT_GE(p.pcieSc()->filter().blocked(), 2u);
    EXPECT_EQ(p.xpu().stats().counterHandle("mmio_writes").value(), 0u);
}

TEST(ConfigInjection, ForgedPolicyUpdateRejected)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());

    // Adversary crafts a permissive policy without the config key
    // and writes it from the (authorized) TVM requester ID — e.g. a
    // compromised co-tenant process replaying the config path.
    backend::RuleTables evil;
    backend::L1Rule allow;
    allow.verdict = backend::L1Verdict::ToL2Table;
    evil.addL1(allow);
    sim::Rng rng(9);
    crypto::AesGcm wrong_key(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    auto sealed = wrong_key.seal(iv, evil.serialize());
    Bytes payload = iv;
    payload.insert(payload.end(), sealed.tag.begin(), sealed.tag.end());
    payload.insert(payload.end(), sealed.ciphertext.begin(),
                   sealed.ciphertext.end());
    p.tvm().mmioWrite(mm::kScRuleTable.base, std::move(payload));
    p.run();

    EXPECT_EQ(p.pcieSc()->filter().rejectedConfigs(), 1u);
    // Policy unchanged: rogue traffic still blocked.
    p.rootComplex().sendWrite(Tlp::makeMemWrite(
        wellknown::kRogueVm, mm::kXpuMmio.base, Bytes(8, 0)));
    p.run();
    EXPECT_GT(p.pcieSc()->filter().blocked(), 0u);
}

TEST(EnvGuardAttack, MaliciousPageTableRedirectBlocked)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());

    // A compromised driver pointing the device MMU at host memory
    // would let the device exfiltrate other tenants' data. The
    // guard pins the register inside device VRAM.
    Bytes host_addr(8);
    for (int i = 0; i < 8; ++i)
        host_addr[i] = static_cast<std::uint8_t>(
            mm::kTvmPrivate.base >> (8 * i));
    p.adaptor()->writeSigned(
        mm::kXpuMmio.base + mm::xpureg::kPageTableBase, host_addr);
    p.run();

    EXPECT_GT(p.pcieSc()->envGuard().violations(), 0u);
    EXPECT_EQ(p.xpu().readRegister(mm::xpureg::kPageTableBase), 0u);
}

TEST(FaultedBus, CorruptionPlusReplayNeverLeaksPlaintext)
{
    // Combine the snooping adversary with a lossy, tampering fabric:
    // the tap replays protected packets while the fault injector
    // corrupts (some silently) and drops traffic on the same
    // segment. The retry machinery must heal the round trip without
    // ever putting plaintext on the exposed bus.
    TappedPlatform rig;
    rig.tap.setMode(TapMode::Replay);
    rig.tap.setTargetFilter([](const Tlp &tlp) {
        return tlp.ackRequired || FaultInjector::carriesCiphertext(tlp);
    });

    FaultConfig faults;
    faults.seed = rig.platform.seed();
    faults.dropRate = 0.01;
    faults.corruptRate = 0.01;
    faults.corruptSilentFraction = 0.5;
    rig.platform.setHostLinkFaults(faults);

    sim::Rng rng(7);
    Bytes secret = rng.bytes(8 * 1024);
    rig.platform.runtime().memcpyH2D(mm::kXpuVram.base, secret,
                                     secret.size(), [] {});
    rig.platform.run();
    Bytes got;
    rig.platform.runtime().memcpyD2H(mm::kXpuVram.base, secret.size(),
                                     false,
                                     [&](Bytes d) { got = std::move(d); });
    rig.platform.run();

    // The data made it through the hostile segment bit-identically.
    EXPECT_EQ(got, secret);
    EXPECT_EQ(rig.platform.xpu().vram().read(0, secret.size()), secret);

    // Nothing the attacker captured contains any window of the
    // plaintext, replayed or corrupted copies included.
    Bytes probe(secret.begin(), secret.begin() + 16);
    for (const Tlp &tlp : rig.tap.capturedWithData()) {
        EXPECT_FALSE(containsSubsequence(tlp.data, probe))
            << "plaintext leaked in " << tlp.toString();
    }
}

TEST(Droppping, DroppedPacketsDoNotCorruptState)
{
    TappedPlatform rig;
    rig.tap.setMode(TapMode::Drop);
    rig.tap.setTargetFilter([](const Tlp &tlp) {
        return tlp.type == TlpType::Message; // suppress interrupts
    });

    bool synced = false;
    rig.platform.runtime().launchKernel(1 * kTicksPerMs);
    rig.platform.runtime().synchronize([&] { synced = true; });
    rig.platform.run();

    // Denial of service succeeds (out of scope per the threat
    // model) but nothing leaks and the device state is intact.
    EXPECT_FALSE(synced);
    EXPECT_GT(rig.tap.dropped(), 0u);
    EXPECT_EQ(rig.platform.xpu().stats().counterHandle("kernels").value(),
              1u);
}

// ---------------------------------------------------------------------
// Residual data across crash recovery (§4.2)
// ---------------------------------------------------------------------

TEST(CrashResidue, RecoveryScrubsVictimDataBeforeNextTenant)
{
    // A tenant's H2D is aborted mid-flight by an xPU wedge; the
    // recovery path must scrub the device before anyone else attaches
    // — the next tenant reading the same VRAM must see zeroes, not
    // the victim's plaintext (the residual-data attack of §4.2).
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.maxTenants = 2;
    Platform p(cfg);
    ASSERT_TRUE(p.establishTrust().ok());

    sim::Rng rng(p.seed() ^ 0x0E51D);
    Bytes secret = rng.bytes(64 * kKiB);
    const Addr kVictimOff = 0x1000;

    // First transfer lands fully: the secret is resident in VRAM.
    p.runtime().memcpyH2D(mm::kXpuVram.base + kVictimOff, secret,
                          secret.size(), [] {});
    p.run();
    ASSERT_EQ(p.xpu().vram().read(kVictimOff, secret.size()), secret);

    // Second transfer is cut down mid-flight: wedge the device while
    // its DMA engine is still pulling bounce-buffer chunks. 1 MiB
    // takes a few ms end to end, so a wedge 100 us in is guaranteed
    // to interrupt it.
    bool secondDone = false;
    p.runtime().memcpyH2D(mm::kXpuVram.base + kVictimOff,
                          std::nullopt, 1 * kMiB,
                          [&] { secondDone = true; });
    p.system().eventq().schedule(p.system().now() + 100 * kTicksPerUs,
                                 [&] {
                                     p.recovery()->injectCrash(
                                         FaultDomain::Xpu);
                                 });
    p.run();

    // The watchdog detected the wedge and the episode resolved; the
    // interrupted transfer's completion never fired.
    ASSERT_FALSE(p.recovery()->episodes().empty());
    EXPECT_EQ(p.recovery()->episodes().back().finalState,
              RecoveryState::Resuming);
    EXPECT_FALSE(secondDone);
    EXPECT_GT(p.metrics().sumCounter("env_guard_cleans"), 0u);

    // The reset scrubbed every byte the victim ever placed there.
    Bytes resident = p.xpu().vram().read(kVictimOff, secret.size());
    EXPECT_EQ(resident, Bytes(secret.size(), 0));

    // A tenant attaching after the recovery reads the same window
    // through its own secure session: zeroes, no residue.
    Platform::Tenant *intruder =
        p.tryAddTenant(pcie::Bdf{0x00, 0x04, 0x0});
    ASSERT_NE(intruder, nullptr);
    Bytes seen;
    intruder->runtime->memcpyD2H(mm::kXpuVram.base + kVictimOff,
                                 secret.size(), false,
                                 [&](Bytes d) { seen = std::move(d); });
    p.run();
    ASSERT_EQ(seen.size(), secret.size());
    EXPECT_EQ(seen, Bytes(secret.size(), 0));
    Bytes probe(secret.begin(), secret.begin() + 16);
    EXPECT_FALSE(containsSubsequence(seen, probe));
}
