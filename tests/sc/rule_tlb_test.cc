/**
 * @file
 * Packet Filter rule-TLB tests: hit/miss accounting on streaming
 * traffic, direct-mapped aliasing/eviction correctness, and the
 * generation-based invalidation rule — a policy update must be
 * visible on the very next TLP, and a rejected (forged) update must
 * not perturb the cache at all.
 */

#include <gtest/gtest.h>

#include "crypto/gcm.hh"
#include "pcie/memory_map.hh"
#include "sc/packet_filter.hh"
#include "sim/rng.hh"

using namespace ccai;
using namespace ccai::sc;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

namespace
{

/** Allow-all L1 plus one any-match L2 rule with @p action. */
backend::RuleTables
uniformPolicy(backend::SecurityAction action)
{
    backend::RuleTables tables;
    backend::L1Rule to_l2;
    to_l2.verdict = backend::L1Verdict::ToL2Table;
    tables.addL1(to_l2);
    backend::L2Rule rule;
    rule.type = TlpType::MemWrite;
    rule.anyRequester = true;
    rule.anyCompleter = true;
    rule.addrHi = 0; // any address
    rule.action = action;
    tables.addL2(rule);
    return tables;
}

} // namespace

TEST(RuleTlb, SteadyStateStreamingHits)
{
    PacketFilter filter;
    filter.install(backend::defaultPolicy(wellknown::kTvm, wellknown::kXpu,
                                          wellknown::kPcieSc));

    // A 4 KiB-chunk transfer mix as the xPU's DMA engines emit it:
    // reads walking the H2D bounce window, writes walking the D2H
    // window. Every chunk lands at a fresh address, but each stream
    // falls between the same two rule boundaries, so after the
    // compulsory misses the mix runs from the TLB.
    const int kChunks = 500;
    for (int i = 0; i < kChunks; ++i) {
        Addr off = std::uint64_t(i) * 4096;
        backend::SecurityAction rd = filter.classify(Tlp::makeMemRead(
            wellknown::kXpu, mm::kBounceH2d.base + off, 4096,
            static_cast<std::uint8_t>(i)));
        EXPECT_EQ(rd, backend::SecurityAction::A4_Transparent);
        backend::SecurityAction wr =
            filter.classify(Tlp::makeMemWriteSynthetic(
                wellknown::kXpu, mm::kBounceD2h.base + off, 4096));
        EXPECT_EQ(wr, backend::SecurityAction::A2_CryptIntegrity);
    }
    EXPECT_EQ(filter.tlbHits() + filter.tlbMisses(),
              std::uint64_t(2 * kChunks));
    EXPECT_GE(filter.tlbHitRate(), 0.9);
    EXPECT_EQ(filter.blocked(), 0u);
}

TEST(RuleTlb, CachedVerdictMatchesTableWalk)
{
    // Every cached classification must equal what the full walk
    // produces — sweep a mixed TLP population twice and compare the
    // second (warm) pass against a TLB-less reference filter.
    backend::RuleTables policy = backend::defaultPolicy(
        wellknown::kTvm, wellknown::kXpu, wellknown::kPcieSc);
    PacketFilter warm;
    warm.install(policy);

    std::vector<Tlp> tlps;
    for (std::uint64_t i = 0; i < 64; ++i) {
        tlps.push_back(Tlp::makeMemWriteSynthetic(
            wellknown::kTvm, mm::kBounceH2d.base + i * 64 * kKiB,
            4096));
        tlps.push_back(Tlp::makeMemRead(
            wellknown::kXpu, mm::kBounceD2h.base + i * 64 * kKiB, 4096,
            static_cast<std::uint8_t>(i)));
        tlps.push_back(Tlp::makeMemWrite(
            wellknown::kRogueVm, mm::kXpuMmio.base + i * 8, Bytes{1}));
    }
    for (const Tlp &tlp : tlps)
        warm.classify(tlp); // fill pass
    for (const Tlp &tlp : tlps)
        EXPECT_EQ(warm.classify(tlp), policy.classify(tlp));
    EXPECT_GT(warm.tlbHits(), 0u);
}

TEST(RuleTlb, AliasingRequestersEvictButStayCorrect)
{
    // 4096 distinct rogue requester IDs map onto 64 direct-mapped
    // entries: massive eviction pressure, yet every verdict must
    // still be the deny default.
    PacketFilter filter;
    filter.install(backend::defaultPolicy(wellknown::kTvm, wellknown::kXpu,
                                          wellknown::kPcieSc));
    std::uint64_t rogues = 0;
    for (std::uint32_t raw = 1; raw <= 4096; ++raw) {
        Bdf bdf = Bdf::fromRaw(static_cast<std::uint16_t>(raw));
        if (bdf == wellknown::kTvm || bdf == wellknown::kXpu ||
            bdf == wellknown::kPcieSc)
            continue; // authorized parties are not rogues
        ++rogues;
        Tlp probe =
            Tlp::makeMemWriteSynthetic(bdf, mm::kXpuMmio.base, 64);
        EXPECT_EQ(filter.classify(probe),
                  backend::SecurityAction::A1_Disallow);
    }
    EXPECT_EQ(filter.blocked(), rogues);
    // Re-walking the same population aliases through the same 64
    // slots; correctness held above, and at least the final stride
    // of keys is still resident.
    EXPECT_LE(filter.tlbHits(), filter.tlbMisses());
}

TEST(RuleTlb, PolicyFlipVisibleOnNextTlp)
{
    sim::Rng rng(7);
    Bytes key = rng.bytes(16);
    PacketFilter filter;
    filter.setConfigKey(key);
    filter.install(uniformPolicy(backend::SecurityAction::A4_Transparent));

    Tlp probe = Tlp::makeMemWriteSynthetic(wellknown::kRogueVm,
                                           mm::kXpuVram.base, 4096);
    EXPECT_EQ(filter.classify(probe), backend::SecurityAction::A4_Transparent);
    EXPECT_EQ(filter.classify(probe), backend::SecurityAction::A4_Transparent);
    EXPECT_EQ(filter.tlbHits(), 1u);

    // Authenticated flip to deny-everything: the very next TLP must
    // see the new policy — a stale TLB entry here would be a
    // security hole, not a performance bug.
    std::uint32_t genBefore = filter.policyGeneration();
    backend::RuleTables deny =
        uniformPolicy(backend::SecurityAction::A1_Disallow);
    crypto::AesGcm gcm(key);
    Bytes iv = rng.bytes(12);
    auto sealed = gcm.seal(iv, deny.serialize());
    ASSERT_TRUE(
        filter.applyEncryptedConfig(iv, sealed.ciphertext, sealed.tag));
    EXPECT_GT(filter.policyGeneration(), genBefore);
    EXPECT_EQ(filter.lookupDelay(probe),
              kL1LookupLatency + kL2LookupLatency);
    EXPECT_EQ(filter.classify(probe), backend::SecurityAction::A1_Disallow);
    EXPECT_EQ(filter.blocked(), 1u);
}

TEST(RuleTlb, RejectedConfigLeavesCacheWarm)
{
    sim::Rng rng(8);
    Bytes key = rng.bytes(16);
    PacketFilter filter;
    filter.setConfigKey(key);
    filter.install(uniformPolicy(backend::SecurityAction::A4_Transparent));

    Tlp probe = Tlp::makeMemWriteSynthetic(wellknown::kTvm,
                                           mm::kXpuVram.base, 4096);
    filter.classify(probe);
    std::uint32_t gen = filter.policyGeneration();

    // Forged config (wrong key) is rejected and must neither change
    // the verdict nor invalidate the warm entry.
    crypto::AesGcm wrongKey(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    auto sealed = wrongKey.seal(
        iv, uniformPolicy(backend::SecurityAction::A1_Disallow).serialize());
    EXPECT_FALSE(
        filter.applyEncryptedConfig(iv, sealed.ciphertext, sealed.tag));
    EXPECT_EQ(filter.policyGeneration(), gen);
    EXPECT_EQ(filter.lookupDelay(probe), kTlbHitLatency);
    EXPECT_EQ(filter.classify(probe), backend::SecurityAction::A4_Transparent);
    EXPECT_EQ(filter.tlbHits(), 1u);
}

TEST(RuleTlb, BurstAmortizationExposedViaUnitCounter)
{
    // A burst TLP resolves once in the filter pipeline (one
    // classify, one lookupDelay) but stands for many wire units;
    // unitsClassified() exposes the amortization so the per-unit
    // filter cost can be computed.
    PacketFilter filter;
    filter.install(backend::defaultPolicy(wellknown::kTvm, wellknown::kXpu,
                                          wellknown::kPcieSc));
    Tlp small = Tlp::makeMemWriteSynthetic(wellknown::kTvm,
                                           mm::kBounceH2d.base, 128);
    Tlp burst = Tlp::makeMemWriteSynthetic(
        wellknown::kTvm, mm::kBounceH2d.base, 64 * kKiB);
    filter.classify(small);
    filter.classify(burst);
    EXPECT_EQ(filter.classified(), 2u);
    EXPECT_EQ(filter.unitsClassified(), 1u + (64 * kKiB) / 256);

    // First TLP of the stream pays the walk, the rest of the burst
    // rides it: the warm delay is the TLB hit latency regardless of
    // payload size.
    EXPECT_EQ(filter.lookupDelay(burst), kTlbHitLatency);
    EXPECT_EQ(filter.lookupDelay(burst), filter.lookupDelay(small));
}
