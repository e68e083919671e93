/**
 * @file
 * Adversarial peripheral tests: the curated attack catalog is fully
 * blocked by the default policy, HostileEndpoint's raw emissions
 * carry the intended structural defects, Thunderclap-style forged
 * completions work mechanically (and are only useful against an
 * unprotected segment), and an end-to-end hostile session against a
 * secure Platform leaks nothing while lighting up the per-reason
 * blocked counters.
 */

#include <gtest/gtest.h>

#include <set>

#include "attack/hostile_endpoint.hh"
#include "attack/tlp_fuzzer.hh"
#include "backend/policy.hh"
#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::pcie;
using namespace ccai::attack;
namespace mm = ccai::pcie::memmap;

namespace
{

/** Sink that records everything it receives. */
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

TEST(SeedCatalog, EveryClassBlockedByDefaultPolicy)
{
    sc::PacketFilter filter;
    filter.install(backend::defaultPolicy(wellknown::kTvm, wellknown::kXpu,
                                          wellknown::kPcieSc));
    std::set<std::string> names;
    std::set<backend::BlockReason> reasons;
    const auto seeds = adversarialSeedTlps();
    ASSERT_GE(seeds.size(), 25u);
    for (const auto &seed : seeds) {
        const backend::FilterVerdict verdict = filter.classifyEx(seed.tlp);
        EXPECT_TRUE(verdict.blocked())
            << seed.name << " was admitted with action "
            << backend::securityActionName(verdict.action);
        EXPECT_NE(verdict.reason, backend::BlockReason::None) << seed.name;
        EXPECT_TRUE(names.insert(seed.name).second)
            << "duplicate catalog name " << seed.name;
        reasons.insert(verdict.reason);
    }
    // The catalog must span the reason taxonomy, not hammer one rule.
    EXPECT_GE(reasons.size(), 6u);
}

TEST(SeedCatalog, EntriesRoundTripThroughCodec)
{
    for (const auto &seed : adversarialSeedTlps()) {
        const Bytes encoded = encodeTlp(seed.tlp);
        auto decoded = decodeTlp(encoded);
        ASSERT_TRUE(decoded.has_value()) << seed.name;
        EXPECT_EQ(encodeTlp(*decoded), encoded) << seed.name;
    }
}

TEST(HostileEndpoint, MalformedEmissionsCarryTheirAnomaly)
{
    sim::System sys;
    HostileEndpoint evil(sys, "evil");
    SinkNode sink("sink");
    Link wire(sys, "wire", LinkConfig{});
    wire.connect(&evil, &sink);
    evil.connectUpstream(&wire);

    constexpr TlpAnomaly kKinds[] = {
        TlpAnomaly::PayloadFmtMismatch, TlpAnomaly::FmtForType,
        TlpAnomaly::LengthZero,         TlpAnomaly::LengthOverflow,
        TlpAnomaly::LengthMismatch,     TlpAnomaly::AddrWidthMismatch,
    };
    for (TlpAnomaly kind : kKinds)
        evil.sendMalformed(kind);
    sys.run();

    ASSERT_EQ(sink.received.size(), std::size(kKinds));
    for (std::size_t i = 0; i < std::size(kKinds); ++i)
        EXPECT_EQ(sink.received[i].headerAnomaly(), kKinds[i])
            << "emission " << i;
    EXPECT_EQ(evil.sent(), std::size(kKinds));
}

TEST(HostileEndpoint, ForgesCompletionsForOutstandingTags)
{
    // Victim -- tap -- evil: the victim's read crosses the tap and
    // is never answered; the hostile endpoint mines the capture for
    // the outstanding tag and injects a successful-looking reply.
    // This is the raw Thunderclap mechanic on an unprotected segment
    // — the Platform-level tests show the SC-protected path rejects
    // the same forgery.
    sim::System sys;
    HostileEndpoint victim(sys, "victim", wellknown::kTvm);
    HostileEndpoint evil(sys, "evil");
    BusTap tap(sys, "tap");
    DuplexLink vt(sys, "v_tap", &victim, &tap, LinkConfig{});
    DuplexLink et(sys, "e_tap", &evil, &tap, LinkConfig{});
    victim.connectUpstream(&vt.downstream());
    evil.connectUpstream(&et.downstream());
    tap.connect(&vt.upstream(), &victim, &et.upstream(), &evil);

    victim.spoofedRead(wellknown::kTvm, 0x1000, 64);
    sys.run();
    ASSERT_EQ(tap.captured().size(), 1u);
    EXPECT_TRUE(victim.loot().empty());

    EXPECT_EQ(evil.forgeCompletionsFromTap(tap, Bytes(64, 0x5a)), 1u);
    sys.run();
    ASSERT_EQ(victim.loot().size(), 1u);
    EXPECT_EQ(victim.loot()[0].data, Bytes(64, 0x5a));

    // The forged completion is now in the capture too, so the tag no
    // longer reads as outstanding.
    EXPECT_EQ(evil.forgeCompletionsFromTap(tap, Bytes(64, 0x5a)), 0u);
}

TEST(HostileEndpoint, AtsTranslatedWriteDiesAtTheIommu)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());

    HostileEndpoint evil(p.system(), "evil");
    auto link = std::make_unique<DuplexLink>(
        p.system(), "sw_evil", &p.rootSwitch(), &evil, LinkConfig{});
    int port = p.rootSwitch().addPort(&link->downstream());
    p.rootSwitch().mapRoutingId(wellknown::kMaliciousDevice, port);
    evil.connectUpstream(&link->upstream());

    const Addr victim = mm::kTvmPrivate.base + 0x1000;
    p.hostMemory().write(victim, Bytes(64, 0x42));
    auto blocked = p.rootComplex().stats().counterHandle("iommu_blocked");
    const std::uint64_t before = blocked.value();

    // Wearing the xPU's ID, as if ATS had granted the translation.
    evil.atsTranslatedWrite(victim, Bytes(64, 0x66));
    p.run();

    EXPECT_EQ(blocked.value(), before + 1);
    EXPECT_EQ(p.hostMemory().read(victim, 64), Bytes(64, 0x42));
}

TEST(HostileEndpoint, EndToEndSessionBlockedAndCounted)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());

    HostileEndpoint evil(p.system(), "evil");
    auto link = std::make_unique<DuplexLink>(
        p.system(), "sw_evil", &p.rootSwitch(), &evil, LinkConfig{});
    int port = p.rootSwitch().addPort(&link->downstream());
    p.rootSwitch().mapRoutingId(wellknown::kMaliciousDevice, port);
    evil.connectUpstream(&link->upstream());

    p.xpu().vram().write(0, Bytes(64, 0x42));

    // Spoofed-identity probes of SC-guarded windows.
    evil.spoofedRead(wellknown::kTvm, mm::kXpuVram.base, 64);
    evil.spoofedRead(wellknown::kTvm, mm::kScRuleTable.base, 64);
    evil.spoofedWrite(wellknown::kXpu, mm::kScMmio.base,
                      Bytes(64, 0x11));
    // ATS-style translated access to TEE memory dies at the IOMMU.
    evil.atsTranslatedRead(mm::kTvmPrivate.base, 64);
    // Boundary walk: the in-range probes reach the SC under the
    // endpoint's own (unauthorized) ID; out-of-range ones are
    // unroutable and dropped by the switch.
    evil.probeWindowBoundaries(mm::kXpuVram, 256);
    // Structurally broken headers aimed at SC-routed windows.
    evil.sendMalformed(TlpAnomaly::FmtForType);
    evil.sendMalformed(TlpAnomaly::LengthZero);
    evil.sendMalformed(TlpAnomaly::LengthMismatch);
    p.run();

    EXPECT_TRUE(evil.loot().empty()) << "no data may leak";
    EXPECT_GE(evil.aborts(), 1u);

    auto &filter = p.pcieSc()->filter();
    EXPECT_GE(filter.blockedFor(backend::BlockReason::L2DenyRule), 2u);
    EXPECT_GE(filter.blockedFor(backend::BlockReason::L2NoMatch), 1u);
    EXPECT_GE(filter.blockedFor(backend::BlockReason::L1DenyDefault), 1u);
    EXPECT_GE(filter.blockedFor(backend::BlockReason::MalformedFmt), 1u);
    EXPECT_GE(filter.blockedFor(backend::BlockReason::MalformedLength), 2u);

    // The same tallies surface as schema-validated obs counters.
    auto &stats = p.pcieSc()->stats();
    EXPECT_EQ(stats.counterHandle("blocked_l2_deny_rule").value(),
              filter.blockedFor(backend::BlockReason::L2DenyRule));
    EXPECT_EQ(stats.counterHandle("blocked_malformed_fmt").value(),
              filter.blockedFor(backend::BlockReason::MalformedFmt));
    const std::string json = p.exportMetricsJson(false);
    EXPECT_NE(json.find("blocked_l2_deny_rule"), std::string::npos);
    EXPECT_NE(json.find("blocked_malformed_length"),
              std::string::npos);
}
