/**
 * @file
 * PCIe-SC component tests: Packet Filter with encrypted dynamic
 * configuration, control panels, the crypto/integrity engines, the
 * environment guard, and the FPGA resource model.
 */

#include <gtest/gtest.h>

#include "common/bytes_util.hh"
#include "crypto/sha256.hh"
#include "sc/control_panels.hh"
#include "sc/engines.hh"
#include "sc/env_guard.hh"
#include "sc/packet_filter.hh"
#include "sc/resource_model.hh"
#include "sim/rng.hh"

using namespace ccai;
using namespace ccai::sc;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

// ---------------------------------------------------------------------
// Packet Filter + encrypted configuration (§4.1)
// ---------------------------------------------------------------------

TEST(PacketFilter, CountsClassificationsAndBlocks)
{
    PacketFilter filter;
    filter.install(backend::defaultPolicy(wellknown::kTvm, wellknown::kXpu,
                                          wellknown::kPcieSc));
    filter.classify(
        Tlp::makeMemWrite(wellknown::kTvm,
                          mm::kXpuMmio.base + mm::xpureg::kCmdQueueBase,
                          Bytes(64, 0)));
    filter.classify(
        Tlp::makeMemWrite(wellknown::kRogueVm, mm::kXpuMmio.base,
                          Bytes{1}));
    EXPECT_EQ(filter.classified(), 2u);
    EXPECT_EQ(filter.blocked(), 1u);
}

TEST(PacketFilter, LookupDelayIsPipelineLatencyNotOccupancy)
{
    // The filter inspects headers in parallel with payload
    // streaming: a burst TLP pays the same fill latency as a small
    // one, so the filter never becomes a bulk-throughput bottleneck.
    PacketFilter filter;
    Tlp small = Tlp::makeMemWriteSynthetic(wellknown::kTvm, 0, 128);
    Tlp burst = Tlp::makeMemWriteSynthetic(wellknown::kTvm, 0,
                                           64 * kKiB);
    EXPECT_EQ(filter.lookupDelay(burst), filter.lookupDelay(small));
    EXPECT_GT(filter.lookupDelay(small), 0u);
}

TEST(PacketFilter, EncryptedConfigApplies)
{
    sim::Rng rng(1);
    Bytes key = rng.bytes(16);
    PacketFilter filter;
    filter.setConfigKey(key);

    backend::RuleTables tables = backend::defaultPolicy(
        wellknown::kTvm, wellknown::kXpu, wellknown::kPcieSc);
    crypto::AesGcm gcm(key);
    Bytes iv = rng.bytes(12);
    auto sealed = gcm.seal(iv, tables.serialize());
    EXPECT_TRUE(
        filter.applyEncryptedConfig(iv, sealed.ciphertext, sealed.tag));
    EXPECT_EQ(filter.tables().l1Size(), tables.l1Size());
}

TEST(PacketFilter, InjectedConfigRejected)
{
    sim::Rng rng(2);
    PacketFilter filter;
    filter.setConfigKey(rng.bytes(16));

    // Adversary without the config key forges a permissive policy.
    backend::RuleTables evil;
    backend::L1Rule allow_all;
    allow_all.verdict = backend::L1Verdict::ToL2Table;
    evil.addL1(allow_all);
    crypto::AesGcm wrong_key(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    auto sealed = wrong_key.seal(iv, evil.serialize());

    EXPECT_FALSE(
        filter.applyEncryptedConfig(iv, sealed.ciphertext, sealed.tag));
    EXPECT_EQ(filter.rejectedConfigs(), 1u);
    // Original (deny-all) behaviour intact.
    EXPECT_EQ(filter.classify(Tlp::makeMemWrite(wellknown::kRogueVm,
                                                0x1, Bytes{1})),
              backend::SecurityAction::A1_Disallow);
}

TEST(PacketFilter, TamperedConfigCiphertextRejected)
{
    sim::Rng rng(3);
    Bytes key = rng.bytes(16);
    PacketFilter filter;
    filter.setConfigKey(key);

    backend::RuleTables tables = backend::defaultPolicy(
        wellknown::kTvm, wellknown::kXpu, wellknown::kPcieSc);
    crypto::AesGcm gcm(key);
    Bytes iv = rng.bytes(12);
    auto sealed = gcm.seal(iv, tables.serialize());
    sealed.ciphertext[10] ^= 0x1;
    EXPECT_FALSE(
        filter.applyEncryptedConfig(iv, sealed.ciphertext, sealed.tag));
}

// ---------------------------------------------------------------------
// Control panels (§4.2)
// ---------------------------------------------------------------------

TEST(ChunkRecord, SerializeRoundTrip)
{
    sim::Rng rng(4);
    ChunkRecord rec;
    rec.chunkId = 99;
    rec.dir = trust::StreamDir::DeviceToHost;
    rec.addr = mm::kBounceD2h.base + 0x40000;
    rec.length = 256 * kKiB;
    rec.epoch = 3;
    rec.iv = rng.bytes(12);
    rec.tag = rng.bytes(16);
    rec.synthetic = true;

    Bytes wire = rec.serialize();
    EXPECT_EQ(wire.size(), ChunkRecord::kWireBytes);
    ChunkRecord back = ChunkRecord::deserialize(wire);
    EXPECT_EQ(back.chunkId, rec.chunkId);
    EXPECT_EQ(back.dir, rec.dir);
    EXPECT_EQ(back.addr, rec.addr);
    EXPECT_EQ(back.length, rec.length);
    EXPECT_EQ(back.epoch, rec.epoch);
    EXPECT_EQ(back.iv, rec.iv);
    EXPECT_EQ(back.tag, rec.tag);
    EXPECT_EQ(back.synthetic, rec.synthetic);
}

TEST(ChunkRecord, BatchRoundTrip)
{
    sim::Rng rng(5);
    std::vector<ChunkRecord> recs(5);
    for (size_t i = 0; i < recs.size(); ++i) {
        recs[i].chunkId = i + 1;
        recs[i].addr = 0x1000 * i;
        recs[i].length = 64;
        recs[i].iv = rng.bytes(12);
        recs[i].tag = rng.bytes(16);
    }
    Bytes blob = ChunkRecord::serializeBatch(recs);
    auto back = ChunkRecord::deserializeBatch(blob);
    ASSERT_EQ(back.size(), recs.size());
    for (size_t i = 0; i < recs.size(); ++i)
        EXPECT_EQ(back[i].chunkId, recs[i].chunkId);
}

TEST(DecryptParamsManager, LookupCoversChunkWindow)
{
    DecryptParamsManager mgr;
    ChunkRecord rec;
    rec.chunkId = 1;
    rec.addr = 0x1000;
    rec.length = 0x100;
    mgr.registerChunk(rec);

    EXPECT_TRUE(mgr.lookup(0x1000).has_value());
    EXPECT_TRUE(mgr.lookup(0x10ff).has_value());
    EXPECT_FALSE(mgr.lookup(0x1100).has_value());
    EXPECT_FALSE(mgr.lookup(0xfff).has_value());
}

TEST(DecryptParamsManager, MultipleChunksResolveCorrectly)
{
    DecryptParamsManager mgr;
    for (std::uint64_t i = 0; i < 4; ++i) {
        ChunkRecord rec;
        rec.chunkId = i + 1;
        rec.addr = 0x1000 + i * 0x100;
        rec.length = 0x100;
        mgr.registerChunk(rec);
    }
    EXPECT_EQ(mgr.lookup(0x1250)->chunkId, 3u);
    mgr.consume(3);
    EXPECT_FALSE(mgr.lookup(0x1250).has_value());
    EXPECT_EQ(mgr.pending(), 3u);
}

// ---------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------

TEST(AesGcmShaEngine, DelayHasSetupPlusThroughput)
{
    AesGcmShaEngine engine;
    Tick zero = engine.cryptDelay(0);
    EXPECT_EQ(zero, engine.timing().gcmSetupLatency);
    Tick one_mb = engine.cryptDelay(1 * kMiB);
    double expected_s = double(1 * kMiB) / engine.timing().gcmBytesPerSec;
    EXPECT_NEAR(double(one_mb - zero), expected_s * kTicksPerSec,
                kTicksPerNs * 10.0);
}

TEST(SignIntegrityEngine, MacVerifies)
{
    SignIntegrityEngine signer, verifier;
    Bytes key(32, 0x13);
    signer.setKey(key);
    verifier.setKey(key);

    Tlp tlp = Tlp::makeMemWrite(wellknown::kTvm, mm::kXpuMmio.base,
                                Bytes{1, 2, 3, 4});
    tlp.seqNo = 1;
    tlp.integrityTag = signer.computeMac(tlp);
    EXPECT_TRUE(verifier.verify(tlp));
}

TEST(SignIntegrityEngine, TamperedPayloadFails)
{
    SignIntegrityEngine signer, verifier;
    Bytes key(32, 0x14);
    signer.setKey(key);
    verifier.setKey(key);

    Tlp tlp = Tlp::makeMemWrite(wellknown::kTvm, mm::kXpuMmio.base,
                                Bytes{1, 2, 3, 4});
    tlp.seqNo = 1;
    tlp.integrityTag = signer.computeMac(tlp);
    tlp.data[0] = 0xff;
    EXPECT_FALSE(verifier.verify(tlp));
    EXPECT_EQ(verifier.failures(), 1u);
}

TEST(SignIntegrityEngine, ReplayDetectedBySequence)
{
    SignIntegrityEngine signer, verifier;
    Bytes key(32, 0x15);
    signer.setKey(key);
    verifier.setKey(key);

    Tlp tlp = Tlp::makeMemWrite(wellknown::kTvm, mm::kXpuMmio.base,
                                Bytes{9});
    tlp.seqNo = 5;
    tlp.integrityTag = signer.computeMac(tlp);
    EXPECT_TRUE(verifier.verify(tlp));
    EXPECT_FALSE(verifier.verify(tlp)) << "replay must fail";
}

TEST(SignIntegrityEngine, ReorderDetectedBySequence)
{
    SignIntegrityEngine signer, verifier;
    Bytes key(32, 0x16);
    signer.setKey(key);
    verifier.setKey(key);

    Tlp first = Tlp::makeMemWrite(wellknown::kTvm, mm::kXpuMmio.base,
                                  Bytes{1});
    first.seqNo = 1;
    first.integrityTag = signer.computeMac(first);
    Tlp second = first;
    second.seqNo = 2;
    second.integrityTag = signer.computeMac(second);

    EXPECT_TRUE(verifier.verify(second));
    EXPECT_FALSE(verifier.verify(first)) << "stale seqNo must fail";
}

TEST(SignIntegrityEngine, HeaderFieldsBound)
{
    SignIntegrityEngine signer, verifier;
    Bytes key(32, 0x17);
    signer.setKey(key);
    verifier.setKey(key);

    Tlp tlp = Tlp::makeMemWrite(wellknown::kTvm, mm::kXpuMmio.base,
                                Bytes{1});
    tlp.seqNo = 1;
    tlp.integrityTag = signer.computeMac(tlp);
    tlp.address += 8; // redirect attack
    EXPECT_FALSE(verifier.verify(tlp));
}

TEST(SignIntegrityEngine, NoKeyFailsClosed)
{
    SignIntegrityEngine verifier;
    Tlp tlp = Tlp::makeMemWrite(wellknown::kTvm, 0x0, Bytes{1});
    EXPECT_FALSE(verifier.verify(tlp));
}

// The wire codec carries `synthetic`, but serializeHeader() does not:
// a bus attacker who flips a signed write to a length-only one must
// still face the MAC.
TEST(SignIntegrityEngine, SyntheticFlagDoesNotSkipTheMac)
{
    SignIntegrityEngine signer, verifier;
    Bytes key(32, 0x18);
    signer.setKey(key);
    verifier.setKey(key);

    Tlp tlp = Tlp::makeMemWrite(wellknown::kTvm, mm::kXpuMmio.base,
                                Bytes{1, 2, 3, 4});
    tlp.seqNo = 1;
    tlp.integrityTag = signer.computeMac(tlp);
    tlp.synthetic = true;
    tlp.data.clear();
    tlp.address += 8;
    EXPECT_FALSE(verifier.verifyMac(tlp));
    EXPECT_FALSE(verifier.verify(tlp));
    EXPECT_EQ(verifier.failures(), 1u);
}

// Pins the A3 tag bytes (HMAC-SHA256 over header || payload,
// truncated to 16 bytes) for a real and a length-only write.
TEST(SignIntegrityEngine, MacGolden)
{
    SignIntegrityEngine signer;
    signer.setKey(Bytes(32, 0x13));

    Tlp real = Tlp::makeMemWrite(wellknown::kTvm, mm::kXpuMmio.base,
                                 Bytes{1, 2, 3, 4});
    real.seqNo = 1;
    EXPECT_EQ(toHex(signer.computeMac(real)),
              "b20a54ed7893bc68c88c72c15400c3e3");

    Tlp synthetic = Tlp::makeMemWriteSynthetic(wellknown::kTvm,
                                               mm::kXpuMmio.base, 4096);
    synthetic.seqNo = 2;
    EXPECT_EQ(toHex(signer.computeMac(synthetic)),
              "bb09ff4e14fe86094d7039fc493f53d9");
}

// ---------------------------------------------------------------------
// Environment guard
// ---------------------------------------------------------------------

TEST(EnvGuard, ConstrainedRegisterEnforced)
{
    EnvGuard guard;
    guard.addConstraint({mm::xpureg::kPageTableBase, 0x1000, 0x2000});

    auto write = [&](std::uint64_t value) {
        Bytes data(8);
        for (int i = 0; i < 8; ++i)
            data[i] = static_cast<std::uint8_t>(value >> (8 * i));
        Tlp tlp = Tlp::makeMemWrite(
            wellknown::kTvm,
            mm::kXpuMmio.base + mm::xpureg::kPageTableBase, data);
        return guard.checkMmioWrite(tlp);
    };

    EXPECT_TRUE(write(0x1800));
    EXPECT_FALSE(write(0x3000)) << "page table outside window";
    EXPECT_EQ(guard.violations(), 1u);
}

// The device latches 0 for a synthetic (length-only) MMIO write, so
// the guard must check 0 against the constraint instead of passing
// the write unchecked: a page-table root of 0 lies outside the window.
TEST(EnvGuard, SyntheticWriteToConstrainedRegisterIsChecked)
{
    EnvGuard guard;
    guard.addConstraint({mm::xpureg::kPageTableBase, 0x1000, 0x2000});
    Tlp tlp = Tlp::makeMemWriteSynthetic(
        wellknown::kTvm, mm::kXpuMmio.base + mm::xpureg::kPageTableBase,
        8);
    EXPECT_FALSE(guard.checkMmioWrite(tlp));
    EXPECT_EQ(guard.violations(), 1u);

    // A register whose range admits 0 still takes the write.
    EnvGuard lenient;
    lenient.addConstraint({mm::xpureg::kPageTableBase, 0, 0x2000});
    EXPECT_TRUE(lenient.checkMmioWrite(tlp));
    EXPECT_EQ(lenient.violations(), 0u);
}

// A write shorter than 8 bytes also latches 0 on the device.
TEST(EnvGuard, ShortWriteToConstrainedRegisterIsChecked)
{
    EnvGuard guard;
    guard.addConstraint({mm::xpureg::kPageTableBase, 0x1000, 0x2000});
    // 0x1800 in the low four bytes: in range if the guard read it, but
    // the device latches 0.
    Tlp tlp = Tlp::makeMemWrite(
        wellknown::kTvm, mm::kXpuMmio.base + mm::xpureg::kPageTableBase,
        Bytes{0x00, 0x18, 0x00, 0x00});
    EXPECT_FALSE(guard.checkMmioWrite(tlp));
    EXPECT_EQ(guard.violations(), 1u);
}

TEST(EnvGuard, UnconstrainedRegistersPass)
{
    EnvGuard guard;
    Tlp tlp = Tlp::makeMemWrite(
        wellknown::kTvm, mm::kXpuMmio.base + mm::xpureg::kDoorbell,
        Bytes(8, 0xff));
    EXPECT_TRUE(guard.checkMmioWrite(tlp));
}

TEST(EnvGuard, CleanPrefersSoftResetWhenSupported)
{
    EnvGuard guard;
    int cold = 0, soft = 0;
    guard.setColdResetHook([&] { ++cold; });
    guard.setSoftResetHook([&] { ++soft; });

    guard.cleanEnvironment(true);
    EXPECT_EQ(soft, 1);
    EXPECT_EQ(cold, 0);

    guard.cleanEnvironment(false);
    EXPECT_EQ(cold, 1);
    EXPECT_EQ(guard.cleans(), 2u);
    EXPECT_EQ(guard.scrubsSkipped(), 0u);
}

TEST(EnvGuard, ScrubWithoutResetHooksIsCountedAsSkipped)
{
    // A guard with no reset hooks cannot actually clean the device:
    // the request must be counted as skipped (each one is a tenant
    // whose residue stayed on the xPU), not silently swallowed.
    EnvGuard guard;
    guard.cleanEnvironment(false);
    guard.cleanEnvironment(true);
    EXPECT_EQ(guard.cleans(), 2u);
    EXPECT_EQ(guard.scrubsSkipped(), 2u);

    // Soft-reset-only guard asked for a cold scrub: the soft hook
    // does not qualify, so the fallback is still a skip.
    EnvGuard softOnly;
    int soft = 0;
    softOnly.setSoftResetHook([&] { ++soft; });
    softOnly.cleanEnvironment(false);
    EXPECT_EQ(soft, 0);
    EXPECT_EQ(softOnly.scrubsSkipped(), 1u);

    // Once a cold-reset hook exists, nothing is skipped any more.
    int cold = 0;
    softOnly.setColdResetHook([&] { ++cold; });
    softOnly.cleanEnvironment(false);
    EXPECT_EQ(cold, 1);
    EXPECT_EQ(softOnly.scrubsSkipped(), 1u);
}

// ---------------------------------------------------------------------
// Resource model (Table 3)
// ---------------------------------------------------------------------

TEST(ResourceModel, PrototypeTotalsNearPaperNumbers)
{
    ResourceModel model;
    auto breakdown = model.prototypeBreakdown();
    ASSERT_EQ(breakdown.size(), 4u);
    ResourceUsage total = ResourceModel::total(breakdown);

    // Paper Table 3: 218.6K ALUTs, 195.7K Regs, 630 BRAMs. The
    // derived model should land within ~15% of each.
    EXPECT_NEAR(double(total.aluts), 218600.0, 218600.0 * 0.15);
    EXPECT_NEAR(double(total.regs), 195700.0, 195700.0 * 0.15);
    EXPECT_NEAR(double(total.brams), 630.0, 630.0 * 0.15);
}

TEST(ResourceModel, HrotBladeUsesNoFabric)
{
    ResourceModel model;
    ResourceUsage hrot = model.hrotBlade();
    EXPECT_EQ(hrot.aluts, 0u);
    EXPECT_EQ(hrot.regs, 0u);
    EXPECT_EQ(hrot.brams, 0u);
}

TEST(ResourceModel, FilterScalesWithRuleSlots)
{
    ResourceModel model;
    EXPECT_GT(model.packetFilter(256).aluts,
              model.packetFilter(128).aluts);
}
