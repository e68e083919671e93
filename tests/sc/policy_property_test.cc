/**
 * @file
 * Property-style sweeps over the Packet Filter policy: a grid of
 * (requester, type, address-region) combinations must satisfy the
 * security invariants regardless of the specific cell:
 *
 *  I1. No requester other than the TVM and the protected xPU ever
 *      gets anything but A1.
 *  I2. No packet reading sensitive plaintext locations (xPU VRAM,
 *      SC rule table) is ever allowed for anyone.
 *  I3. Everything entering the xPU as data (VRAM/bounce payloads)
 *      is Write-Read Protected.
 *  I4. Serialization round-trips preserve classification for every
 *      cell of the grid.
 */

#include <gtest/gtest.h>

#include "backend/policy.hh"
#include "pcie/memory_map.hh"

using namespace ccai;
using namespace ccai::backend;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

namespace
{

struct Region
{
    const char *name;
    Addr addr;
};

const Region kRegions[] = {
    {"tvm_private", mm::kTvmPrivate.base + 0x1000},
    {"bounce_h2d", mm::kBounceH2d.base + 0x2000},
    {"bounce_d2h", mm::kBounceD2h.base + 0x3000},
    {"metadata", mm::kMetadataBuffer.base + 0x100},
    {"sc_mmio", mm::kScMmio.base + 0x10},
    {"sc_rules", mm::kScRuleTable.base},
    {"xpu_mmio", mm::kXpuMmio.base + 0x20},
    {"xpu_vram", mm::kXpuVram.base + 0x4000},
};

const Bdf kRequesters[] = {
    wellknown::kTvm,
    wellknown::kXpu,
    wellknown::kRogueVm,
    wellknown::kMaliciousDevice,
    Bdf{0x7, 0x3, 0x1}, // arbitrary unknown device
};

const TlpType kTypes[] = {TlpType::MemRead, TlpType::MemWrite};

Tlp
makeTlp(Bdf requester, TlpType type, Addr addr)
{
    if (type == TlpType::MemRead)
        return Tlp::makeMemRead(requester, addr, 64, 0);
    return Tlp::makeMemWrite(requester, addr, Bytes(64, 0));
}

} // namespace

/** Index into the (requester, type, region) grid. */
class PolicyGrid : public ::testing::TestWithParam<int>
{
  protected:
    static constexpr int kNumRegions = std::size(kRegions);
    static constexpr int kNumTypes = std::size(kTypes);

    RuleTables tables = defaultPolicy(wellknown::kTvm, wellknown::kXpu,
                                      wellknown::kPcieSc);

    Bdf requester() const
    {
        return kRequesters[GetParam() / (kNumRegions * kNumTypes)];
    }
    TlpType type() const
    {
        return kTypes[(GetParam() / kNumRegions) % kNumTypes];
    }
    const Region &region() const
    {
        return kRegions[GetParam() % kNumRegions];
    }
};

TEST_P(PolicyGrid, UnauthorizedRequestersAlwaysProhibited)
{
    Bdf req = requester();
    if (req == wellknown::kTvm || req == wellknown::kXpu)
        return; // covered by the other invariants
    Tlp tlp = makeTlp(req, type(), region().addr);
    EXPECT_EQ(tables.classify(tlp), SecurityAction::A1_Disallow)
        << req.toString() << " " << tlp.toString();
}

TEST_P(PolicyGrid, PlaintextExfiltrationPathsClosed)
{
    if (type() != TlpType::MemRead)
        return;
    // Reading device VRAM (plaintext results) or the rule table is
    // prohibited for every requester.
    if (region().addr != mm::kXpuVram.base + 0x4000 &&
        region().addr != mm::kScRuleTable.base)
        return;
    Tlp tlp = makeTlp(requester(), type(), region().addr);
    EXPECT_EQ(tables.classify(tlp), SecurityAction::A1_Disallow)
        << tlp.toString();
}

TEST_P(PolicyGrid, SensitiveWritesNeverTransparent)
{
    if (type() != TlpType::MemWrite)
        return;
    bool sensitive_target =
        mm::kXpuVram.contains(region().addr) ||
        mm::kBounceD2h.contains(region().addr) ||
        mm::kScRuleTable.contains(region().addr);
    if (!sensitive_target)
        return;
    Tlp tlp = makeTlp(requester(), type(), region().addr);
    SecurityAction action = tables.classify(tlp);
    EXPECT_NE(action, SecurityAction::A4_Transparent)
        << tlp.toString();
    EXPECT_NE(action, SecurityAction::A3_PlainIntegrity)
        << "payload-bearing sensitive writes need encryption: "
        << tlp.toString();
}

TEST_P(PolicyGrid, SerializationPreservesClassification)
{
    Tlp tlp = makeTlp(requester(), type(), region().addr);
    RuleTables back = RuleTables::deserialize(tables.serialize());
    EXPECT_EQ(back.classify(tlp), tables.classify(tlp))
        << tlp.toString();
}

INSTANTIATE_TEST_SUITE_P(
    FullGrid, PolicyGrid,
    ::testing::Range(0, int(std::size(kRequesters) *
                            std::size(kTypes) * std::size(kRegions))));

// ---------------------------------------------------------------------
// Mask sweep: every single-bit mask behaves as documented.
// ---------------------------------------------------------------------

class MaskSweep : public ::testing::TestWithParam<std::uint16_t>
{
};

TEST_P(MaskSweep, OnlyMaskedFieldsParticipate)
{
    std::uint16_t mask = GetParam();
    L1Rule rule;
    rule.mask = mask;
    rule.type = TlpType::MemWrite;
    rule.requester = wellknown::kTvm;
    rule.completer = wellknown::kXpu;
    rule.addrLo = 0x1000;
    rule.addrHi = 0x2000;
    rule.verdict = L1Verdict::ToL2Table;

    // Reference packet matching all fields.
    Tlp match = Tlp::makeMemWrite(wellknown::kTvm, 0x1800, Bytes{1});
    match.completer = wellknown::kXpu;
    EXPECT_TRUE(rule.matches(match));

    // Perturb each field; the rule must reject iff that field's
    // mask bit is set.
    Tlp wrong_type = match;
    wrong_type.type = TlpType::MemRead;
    EXPECT_EQ(rule.matches(wrong_type), !(mask & kMatchType));

    Tlp wrong_req = match;
    wrong_req.requester = wellknown::kRogueVm;
    EXPECT_EQ(rule.matches(wrong_req), !(mask & kMatchRequester));

    Tlp wrong_cpl = match;
    wrong_cpl.completer = wellknown::kMaliciousDevice;
    EXPECT_EQ(rule.matches(wrong_cpl), !(mask & kMatchCompleter));

    Tlp wrong_addr = match;
    wrong_addr.address = 0x9000;
    EXPECT_EQ(rule.matches(wrong_addr), !(mask & kMatchAddress));
}

INSTANTIATE_TEST_SUITE_P(AllMaskCombinations, MaskSweep,
                         ::testing::Range<std::uint16_t>(0, 16));
