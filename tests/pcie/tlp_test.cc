/**
 * @file
 * TLP model tests: constructors, header fields, wire-unit math, and
 * header serialization for integrity binding.
 */

#include <gtest/gtest.h>

#include "pcie/memory_map.hh"
#include "pcie/tlp.hh"

using namespace ccai;
using namespace ccai::pcie;

TEST(Bdf, PackUnpack)
{
    Bdf id(0x12, 0x1f, 0x7);
    EXPECT_EQ(id.raw(), (0x12 << 8) | (0x1f << 3) | 0x7);
    Bdf back = Bdf::fromRaw(id.raw());
    EXPECT_EQ(back, id);
    EXPECT_EQ(back.bus, 0x12);
    EXPECT_EQ(back.device, 0x1f);
    EXPECT_EQ(back.function, 0x7);
}

TEST(Bdf, FieldsMasked)
{
    Bdf id(0, 0xff, 0xff); // overlong device/function get masked
    EXPECT_EQ(id.device, 0x1f);
    EXPECT_EQ(id.function, 0x7);
}

TEST(Bdf, ToString)
{
    EXPECT_EQ(Bdf(0x02, 0x00, 0x0).toString(), "02:00.0");
}

TEST(Tlp, MemReadShape)
{
    Tlp tlp = Tlp::makeMemRead(wellknown::kTvm, 0x1000, 256, 7);
    EXPECT_EQ(tlp.type, TlpType::MemRead);
    EXPECT_EQ(tlp.fmt, TlpFmt::ThreeDwNoData);
    EXPECT_EQ(tlp.tag, 7);
    EXPECT_FALSE(tlp.hasData());
    EXPECT_EQ(tlp.headerBytes(), 12u);
    EXPECT_EQ(tlp.unitCount(), 1u);
}

TEST(Tlp, HighAddressUses4DwHeader)
{
    Tlp tlp = Tlp::makeMemRead(wellknown::kTvm, 0x10'0000'0000ull, 64,
                               1);
    EXPECT_EQ(tlp.fmt, TlpFmt::FourDwNoData);
    EXPECT_EQ(tlp.headerBytes(), 16u);
}

TEST(Tlp, MemWriteCarriesData)
{
    Tlp tlp = Tlp::makeMemWrite(wellknown::kTvm, 0x2000,
                                Bytes{1, 2, 3, 4});
    EXPECT_TRUE(tlp.hasData());
    EXPECT_EQ(tlp.lengthBytes, 4u);
    EXPECT_EQ(tlp.payloadBytes(), 4u);
    EXPECT_FALSE(tlp.synthetic);
}

TEST(Tlp, SyntheticWritePayloadBytes)
{
    Tlp tlp =
        Tlp::makeMemWriteSynthetic(wellknown::kXpu, 0x3000, 1 * kMiB);
    EXPECT_TRUE(tlp.synthetic);
    EXPECT_TRUE(tlp.data.empty());
    EXPECT_EQ(tlp.payloadBytes(), 1 * kMiB);
}

TEST(Tlp, BurstUnitCount)
{
    // <= max payload: one wire TLP.
    Tlp small = Tlp::makeMemWriteSynthetic(wellknown::kXpu, 0, 256);
    EXPECT_EQ(small.unitCount(), 1u);
    // 1 KiB at 256-B max payload: 4 wire TLPs.
    Tlp medium = Tlp::makeMemWriteSynthetic(wellknown::kXpu, 0, 1024);
    EXPECT_EQ(medium.unitCount(), 4u);
    // Non-multiple rounds up.
    Tlp odd = Tlp::makeMemWriteSynthetic(wellknown::kXpu, 0, 1025);
    EXPECT_EQ(odd.unitCount(), 5u);
    // Reads have no payload on the wire.
    Tlp read = Tlp::makeMemRead(wellknown::kXpu, 0, 64 * 1024, 0);
    EXPECT_EQ(read.unitCount(), 1u);
}

TEST(Tlp, CompletionRoutesByRequester)
{
    Tlp cpl = Tlp::makeCompletion(wellknown::kRootComplex,
                                  wellknown::kXpu, 9, Bytes{1});
    EXPECT_EQ(cpl.type, TlpType::Completion);
    EXPECT_EQ(cpl.requester, wellknown::kXpu);
    EXPECT_EQ(cpl.completer, wellknown::kRootComplex);
    EXPECT_EQ(cpl.tag, 9);
    EXPECT_EQ(cpl.cplStatus, CplStatus::SuccessfulCompletion);
}

TEST(Tlp, AbortCompletionHasNoData)
{
    Tlp cpl = Tlp::makeCompletion(wellknown::kPcieSc, wellknown::kTvm,
                                  3, {}, CplStatus::CompleterAbort);
    EXPECT_FALSE(cpl.hasData());
    EXPECT_EQ(cpl.cplStatus, CplStatus::CompleterAbort);
}

TEST(Tlp, HeaderSerializationBindsAllFilterFields)
{
    Tlp a = Tlp::makeMemWrite(wellknown::kTvm, 0x1234, Bytes{1});
    a.seqNo = 77;
    const auto base = a.serializeHeader();

    Tlp b = a;
    b.address = 0x1235;
    EXPECT_NE(b.serializeHeader(), base);

    b = a;
    b.requester = wellknown::kRogueVm;
    EXPECT_NE(b.serializeHeader(), base);

    b = a;
    b.seqNo = 78;
    EXPECT_NE(b.serializeHeader(), base);

    b = a;
    b.type = TlpType::MemRead;
    EXPECT_NE(b.serializeHeader(), base);

    EXPECT_EQ(a.serializeHeader(), base); // deterministic
}

TEST(Tlp, ToStringMentionsTypeAndFlags)
{
    Tlp tlp = Tlp::makeMemWriteSynthetic(wellknown::kXpu, 0xabc, 512);
    tlp.encrypted = true;
    std::string s = tlp.toString();
    EXPECT_NE(s.find("MWr"), std::string::npos);
    EXPECT_NE(s.find("[enc]"), std::string::npos);
    EXPECT_NE(s.find("[syn]"), std::string::npos);
}

TEST(MemoryMap, RangesDoNotOverlap)
{
    using namespace pcie::memmap;
    const AddrRange ranges[] = {kScMmio, kScRuleTable, kXpuMmio,
                                kXpuVram};
    for (size_t i = 0; i < std::size(ranges); ++i) {
        for (size_t j = i + 1; j < std::size(ranges); ++j) {
            bool disjoint =
                ranges[i].base + ranges[i].size <= ranges[j].base ||
                ranges[j].base + ranges[j].size <= ranges[i].base;
            EXPECT_TRUE(disjoint) << i << " vs " << j;
        }
    }
}

TEST(MemoryMap, BounceBuffersInsideHighHostDram)
{
    using namespace pcie::memmap;
    EXPECT_TRUE(kHostDramHigh.contains(kBounceH2d.base));
    EXPECT_TRUE(kHostDramHigh.contains(kBounceD2h.base));
    EXPECT_TRUE(kHostDramHigh.contains(kMetadataBuffer.base));
    EXPECT_TRUE(kHostDramLow.contains(kTvmPrivate.base));
}

TEST(MemoryMap, DeviceBarsOutsideHostDram)
{
    using namespace pcie::memmap;
    for (Addr a : {kScMmio.base, kScRuleTable.base, kXpuMmio.base,
                   kXpuVram.base}) {
        EXPECT_FALSE(kHostDramLow.contains(a));
        EXPECT_FALSE(kHostDramHigh.contains(a));
    }
}

TEST(AddrRange, ContainsSemantics)
{
    AddrRange r{100, 50};
    EXPECT_TRUE(r.contains(100));
    EXPECT_TRUE(r.contains(149));
    EXPECT_FALSE(r.contains(150));
    EXPECT_FALSE(r.contains(99));
    EXPECT_TRUE(r.contains(100, 50));
    EXPECT_FALSE(r.contains(100, 51));
    EXPECT_FALSE(r.contains(149, 2));
}
