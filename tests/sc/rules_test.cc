/**
 * @file
 * Packet Filter rule tests: Table 1 action mapping, L1 masked
 * matching, L2 permission classification, 32-byte serialization, and
 * the default policy's full classification matrix (Figure 5).
 */

#include <gtest/gtest.h>

#include "backend/policy.hh"
#include "pcie/memory_map.hh"

using namespace ccai;
using namespace ccai::backend;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

TEST(Table1, PermissionToActionMapping)
{
    EXPECT_EQ(actionFor(AccessPermission::Prohibited),
              SecurityAction::A1_Disallow);
    EXPECT_EQ(actionFor(AccessPermission::WriteReadProtected),
              SecurityAction::A2_CryptIntegrity);
    EXPECT_EQ(actionFor(AccessPermission::WriteProtected),
              SecurityAction::A3_PlainIntegrity);
    EXPECT_EQ(actionFor(AccessPermission::FullAccessible),
              SecurityAction::A4_Transparent);
}

TEST(Table1, ActionToPermissionInverse)
{
    for (auto action :
         {SecurityAction::A1_Disallow, SecurityAction::A2_CryptIntegrity,
          SecurityAction::A3_PlainIntegrity,
          SecurityAction::A4_Transparent}) {
        EXPECT_EQ(actionFor(permissionFor(action)), action);
    }
}

TEST(L1Rule, EmptyMaskMatchesEverything)
{
    L1Rule rule; // mask = 0, verdict = A1
    Tlp any = Tlp::makeMemWrite(wellknown::kRogueVm, 0xdead, Bytes{1});
    EXPECT_TRUE(rule.matches(any));
    Tlp msg = Tlp::makeMessage(wellknown::kXpu, MsgCode::MsiInterrupt);
    EXPECT_TRUE(rule.matches(msg));
}

TEST(L1Rule, MaskedFieldsChecked)
{
    L1Rule rule;
    rule.mask = kMatchType | kMatchRequester;
    rule.type = TlpType::MemWrite;
    rule.requester = wellknown::kTvm;

    EXPECT_TRUE(rule.matches(
        Tlp::makeMemWrite(wellknown::kTvm, 0x1, Bytes{1})));
    EXPECT_FALSE(rule.matches(
        Tlp::makeMemWrite(wellknown::kRogueVm, 0x1, Bytes{1})));
    EXPECT_FALSE(
        rule.matches(Tlp::makeMemRead(wellknown::kTvm, 0x1, 4, 0)));
}

TEST(L1Rule, AddressMask)
{
    L1Rule rule;
    rule.mask = kMatchAddress;
    rule.addrLo = 0x1000;
    rule.addrHi = 0x2000;
    EXPECT_TRUE(rule.matches(
        Tlp::makeMemWrite(wellknown::kTvm, 0x1800, Bytes{1})));
    EXPECT_FALSE(rule.matches(
        Tlp::makeMemWrite(wellknown::kTvm, 0x2000, Bytes{1})));
}

TEST(L1Rule, SerializeRoundTrip)
{
    L1Rule rule;
    rule.mask = kMatchType | kMatchAddress;
    rule.type = TlpType::Completion;
    rule.requester = wellknown::kXpu;
    rule.addrLo = 0x123400;
    rule.addrHi = 0x125600;
    rule.verdict = L1Verdict::ToL2Table;

    Bytes wire = rule.serialize();
    EXPECT_EQ(wire.size(), kRuleBytes);
    L1Rule back = L1Rule::deserialize(wire);
    EXPECT_EQ(back.mask, rule.mask);
    EXPECT_EQ(back.type, rule.type);
    EXPECT_EQ(back.requester, rule.requester);
    EXPECT_EQ(back.addrLo, rule.addrLo);
    EXPECT_EQ(back.addrHi, rule.addrHi);
    EXPECT_EQ(back.verdict, rule.verdict);
}

TEST(L2Rule, SerializeRoundTrip)
{
    L2Rule rule;
    rule.type = TlpType::MemWrite;
    rule.anyRequester = false;
    rule.requester = wellknown::kTvm;
    rule.anyCompleter = true;
    rule.addrLo = mm::kBounceD2h.base;
    rule.addrHi = mm::kBounceD2h.base + mm::kBounceD2h.size;
    rule.action = SecurityAction::A2_CryptIntegrity;

    L2Rule back = L2Rule::deserialize(rule.serialize());
    EXPECT_EQ(back.type, rule.type);
    EXPECT_EQ(back.anyRequester, rule.anyRequester);
    EXPECT_EQ(back.requester, rule.requester);
    EXPECT_EQ(back.anyCompleter, rule.anyCompleter);
    EXPECT_EQ(back.addrLo, rule.addrLo);
    EXPECT_EQ(back.addrHi, rule.addrHi);
    EXPECT_EQ(back.action, rule.action);
}

TEST(RuleTables, SerializeBatchRoundTrip)
{
    RuleTables tables = defaultPolicy(wellknown::kTvm, wellknown::kXpu,
                                      wellknown::kPcieSc);
    Bytes blob = tables.serialize();
    EXPECT_EQ(blob.size(),
              (tables.l1Size() + tables.l2Size()) * kRuleBytes);

    RuleTables back = RuleTables::deserialize(blob);
    EXPECT_EQ(back.l1Size(), tables.l1Size());
    EXPECT_EQ(back.l2Size(), tables.l2Size());

    // Behavioural equivalence on a traffic sample.
    std::vector<Tlp> sample = {
        Tlp::makeMemWrite(wellknown::kTvm,
                          mm::kXpuMmio.base + 0x1000, Bytes(64, 1)),
        Tlp::makeMemRead(wellknown::kXpu, mm::kBounceH2d.base, 256, 1),
        Tlp::makeMemWrite(wellknown::kRogueVm, mm::kXpuMmio.base,
                          Bytes{1}),
        Tlp::makeMessage(wellknown::kXpu, MsgCode::MsiInterrupt),
    };
    for (const Tlp &tlp : sample)
        EXPECT_EQ(back.classify(tlp), tables.classify(tlp));
}

TEST(RuleTables, EmptyTablesDenyEverything)
{
    RuleTables empty;
    EXPECT_EQ(empty.classify(Tlp::makeMemWrite(wellknown::kTvm, 0x1,
                                               Bytes{1})),
              SecurityAction::A1_Disallow);
}

// ---------------------------------------------------------------------
// Default policy classification matrix (the Figure 5 behaviour).
// ---------------------------------------------------------------------

class DefaultPolicyTest : public ::testing::Test
{
  protected:
    RuleTables tables = defaultPolicy(wellknown::kTvm, wellknown::kXpu,
                                      wellknown::kPcieSc);

    SecurityAction
    classify(const Tlp &tlp)
    {
        return tables.classify(tlp);
    }
};

TEST_F(DefaultPolicyTest, TvmCommandsAreWriteProtected)
{
    // MWr (cmd) TVM -> xPU MMIO ring: A3 (Figure 5 row 2).
    EXPECT_EQ(classify(Tlp::makeMemWrite(
                  wellknown::kTvm,
                  mm::kXpuMmio.base + mm::xpureg::kCmdQueueBase,
                  Bytes(64, 0))),
              SecurityAction::A3_PlainIntegrity);
}

TEST_F(DefaultPolicyTest, TvmStatusReadsAreFullAccessible)
{
    EXPECT_EQ(classify(Tlp::makeMemRead(
                  wellknown::kTvm,
                  mm::kXpuMmio.base + mm::xpureg::kIntStatus, 8, 0)),
              SecurityAction::A4_Transparent);
}

TEST_F(DefaultPolicyTest, TvmVramWritesAreWriteReadProtected)
{
    EXPECT_EQ(classify(Tlp::makeMemWrite(wellknown::kTvm,
                                         mm::kXpuVram.base + 0x1000,
                                         Bytes(128, 0))),
              SecurityAction::A2_CryptIntegrity);
}

TEST_F(DefaultPolicyTest, TvmVramReadsProhibited)
{
    // Plaintext results must never leave via direct VRAM reads.
    EXPECT_EQ(classify(Tlp::makeMemRead(wellknown::kTvm,
                                        mm::kXpuVram.base, 4096, 0)),
              SecurityAction::A1_Disallow);
}

TEST_F(DefaultPolicyTest, ScConfigWritesAreEncrypted)
{
    // MWr (cmd) TVM -> ccAI HW rule table: A2 (Figure 5 row 1).
    EXPECT_EQ(classify(Tlp::makeMemWrite(wellknown::kTvm,
                                         mm::kScRuleTable.base,
                                         Bytes(64, 0))),
              SecurityAction::A2_CryptIntegrity);
}

TEST_F(DefaultPolicyTest, ScDoorbellsAreWriteProtected)
{
    EXPECT_EQ(classify(Tlp::makeMemWrite(
                  wellknown::kTvm,
                  mm::kScMmio.base + mm::screg::kNotifyTransfer,
                  Bytes(8, 1))),
              SecurityAction::A3_PlainIntegrity);
}

TEST_F(DefaultPolicyTest, XpuDmaReadOfBounceAllowed)
{
    EXPECT_EQ(classify(Tlp::makeMemRead(wellknown::kXpu,
                                        mm::kBounceH2d.base, 4096, 0)),
              SecurityAction::A4_Transparent);
}

TEST_F(DefaultPolicyTest, XpuResultWritesAreWriteReadProtected)
{
    EXPECT_EQ(classify(Tlp::makeMemWrite(wellknown::kXpu,
                                         mm::kBounceD2h.base,
                                         Bytes(256, 0))),
              SecurityAction::A2_CryptIntegrity);
}

TEST_F(DefaultPolicyTest, XpuCannotTouchTvmPrivateMemory)
{
    EXPECT_EQ(classify(Tlp::makeMemRead(wellknown::kXpu,
                                        mm::kTvmPrivate.base, 4096,
                                        0)),
              SecurityAction::A1_Disallow);
    EXPECT_EQ(classify(Tlp::makeMemWrite(wellknown::kXpu,
                                         mm::kTvmPrivate.base,
                                         Bytes(64, 0))),
              SecurityAction::A1_Disallow);
}

TEST_F(DefaultPolicyTest, XpuCannotTouchMetadataBuffer)
{
    EXPECT_EQ(classify(Tlp::makeMemRead(wellknown::kXpu,
                                        mm::kMetadataBuffer.base, 64,
                                        0)),
              SecurityAction::A1_Disallow);
    EXPECT_EQ(classify(Tlp::makeMemWrite(wellknown::kXpu,
                                         mm::kMetadataBuffer.base,
                                         Bytes(64, 0))),
              SecurityAction::A1_Disallow);
}

TEST_F(DefaultPolicyTest, InterruptsAreFullAccessible)
{
    EXPECT_EQ(classify(Tlp::makeMessage(wellknown::kXpu,
                                        MsgCode::MsiInterrupt)),
              SecurityAction::A4_Transparent);
}

TEST_F(DefaultPolicyTest, RogueVmProhibitedEverywhere)
{
    for (Addr addr : {mm::kXpuMmio.base, mm::kXpuVram.base,
                      mm::kScMmio.base, mm::kScRuleTable.base}) {
        EXPECT_EQ(classify(Tlp::makeMemWrite(wellknown::kRogueVm, addr,
                                             Bytes{1})),
                  SecurityAction::A1_Disallow)
            << "addr 0x" << std::hex << addr;
        EXPECT_EQ(classify(Tlp::makeMemRead(wellknown::kRogueVm, addr,
                                            8, 0)),
                  SecurityAction::A1_Disallow);
    }
}

TEST_F(DefaultPolicyTest, MaliciousDeviceProhibited)
{
    EXPECT_EQ(classify(Tlp::makeMemRead(wellknown::kMaliciousDevice,
                                        mm::kBounceH2d.base, 4096, 0)),
              SecurityAction::A1_Disallow);
    EXPECT_EQ(classify(Tlp::makeMemWrite(wellknown::kMaliciousDevice,
                                         mm::kXpuMmio.base,
                                         Bytes(8, 0))),
              SecurityAction::A1_Disallow);
}

TEST_F(DefaultPolicyTest, RuleTableReadbackProhibited)
{
    EXPECT_EQ(classify(Tlp::makeMemRead(wellknown::kTvm,
                                        mm::kScRuleTable.base, 64, 0)),
              SecurityAction::A1_Disallow);
}

TEST_F(DefaultPolicyTest, CompletionsTransparentByDefault)
{
    EXPECT_EQ(classify(Tlp::makeCompletion(wellknown::kRootComplex,
                                           wellknown::kXpu, 1,
                                           Bytes(64, 0))),
              SecurityAction::A4_Transparent);
}
