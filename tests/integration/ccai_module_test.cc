/**
 * @file
 * Tests for the top-level ccai module helpers: the compatibility
 * matrix (Table 2) invariants, TCB accounting (Table 3), the
 * experiment harness, large-transfer splitting, and trust-failure
 * reporting.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "ccai/compat_matrix.hh"
#include "ccai/experiment.hh"
#include "ccai/tcb_report.hh"

using namespace ccai;
namespace mm = ccai::pcie::memmap;

TEST(CompatMatrix, HasAllEighteenPriorDesignsPlusCcai)
{
    EXPECT_EQ(compatMatrix().size(), 18u);
}

TEST(CompatMatrix, OnlyCcaiIsFullyCompatible)
{
    int fully = 0;
    for (const CompatRow &row : compatMatrix()) {
        if (row.fullyCompatible()) {
            ++fully;
            EXPECT_EQ(row.name, "ccAI");
        }
    }
    EXPECT_EQ(fully, 1);
}

TEST(CompatMatrix, EveryPriorDesignFailsSomeDimension)
{
    for (const CompatRow &row : compatMatrix()) {
        if (row.name == "ccAI")
            continue;
        EXPECT_FALSE(row.fullyCompatible()) << row.name;
    }
}

TEST(CompatMatrix, HardwareDesignsRequireHardwareChanges)
{
    for (const CompatRow &row : compatMatrix()) {
        if (row.type == DesignType::Hardware)
            EXPECT_EQ(row.xpuHwChanges, ChangeReq::Yes) << row.name;
    }
}

TEST(CompatMatrix, RenderContainsEveryRow)
{
    std::string table = renderCompatMatrix();
    for (const CompatRow &row : compatMatrix())
        EXPECT_NE(table.find(row.name), std::string::npos) << row.name;
}

TEST(TcbReport, LiveLocCountsThisRepo)
{
    std::uint64_t tvm_loc = countSourceLines(CCAI_TEST_SOURCE_ROOT
                                             "/src/tvm");
    std::uint64_t trust_loc = countSourceLines(CCAI_TEST_SOURCE_ROOT
                                               "/src/trust");
    EXPECT_GT(tvm_loc, 500u);
    EXPECT_GT(trust_loc, 500u);
    EXPECT_EQ(countSourceLines("/nonexistent/dir"), 0u);
}

TEST(TcbReport, BreakdownShapeAndTotals)
{
    auto rows = tcbBreakdown();
    ASSERT_EQ(rows.size(), 6u); // 2 TVM + 4 PCIe-SC rows
    TcbRow total = tcbTotal(rows);
    EXPECT_GT(total.loc, 0u);
    EXPECT_GT(total.aluts, 200000u);
    EXPECT_EQ(total.brams, 630u); // matches the paper exactly
}

TEST(TcbReport, RenderIncludesTotals)
{
    auto rows = tcbBreakdown();
    std::string report = renderTcbReport(rows);
    EXPECT_NE(report.find("Total"), std::string::npos);
    EXPECT_NE(report.find("Packet Filter"), std::string::npos);
    EXPECT_NE(report.find("HRoT-Blade"), std::string::npos);
}

TEST(Experiment, ComparisonOverheadMath)
{
    ComparisonResult r;
    r.vanilla.e2eSeconds = 10.0;
    r.secure.e2eSeconds = 10.5;
    r.vanilla.ttftSeconds = 1.0;
    r.secure.ttftSeconds = 1.1;
    r.vanilla.tps = 100.0;
    r.secure.tps = 95.0;
    EXPECT_NEAR(r.e2eOverheadPct(), 5.0, 1e-9);
    EXPECT_NEAR(r.ttftOverheadPct(), 10.0, 1e-9);
    EXPECT_NEAR(r.tpsOverheadPct(), -5.0, 1e-9);
}

TEST(LargeTransfers, SplitTransferExceedingBounceWindows)
{
    // 600 MiB synthetic H2D: larger than the 512 MiB bounce region,
    // so the runtime must split it; every piece must complete and
    // no DMA may be aborted by the IOMMU.
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    bool done = false;
    p.runtime().memcpyH2D(mm::kXpuVram.base, std::nullopt,
                          600 * kMiB, [&] { done = true; });
    p.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(p.xpu().stats().counterHandle("dma_aborts").value(), 0u);
    EXPECT_EQ(p.rootComplex().stats().counterHandle("iommu_blocked").value(),
              0u);
    // 600 MiB at 256 KiB device bursts.
    EXPECT_EQ(p.rootComplex().stats().counterHandle("dma_reads").value(),
              600u * kMiB / (256 * kKiB));
}

TEST(LargeTransfers, RealDataRoundTripAcrossPieces)
{
    // Real bytes one piece boundary past the runtime's 256 MiB piece
    // limit, up and back: the second piece seals and opens its slice
    // at an offset into the caller's payload and appends to the
    // first. The expected bytes are drawn again from the same seed
    // after the run, so no second copy is live during the transfer.
    constexpr std::uint64_t kLen = 256 * kMiB + 12345;
    auto draw = [] {
        std::mt19937_64 gen(9);
        Bytes b(kLen);
        for (std::uint64_t i = 0; i < kLen; i += 8) {
            std::uint64_t w = gen();
            std::memcpy(b.data() + i, &w,
                        std::min<std::uint64_t>(8, kLen - i));
        }
        return b;
    };
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    Bytes got;
    p.runtime().memcpyH2D(mm::kXpuVram.base, draw(), kLen, [&] {
        p.runtime().memcpyD2H(mm::kXpuVram.base, kLen, false,
                              [&](Bytes d) { got = std::move(d); });
    });
    p.run();
    ASSERT_EQ(got.size(), kLen);
    // Not EXPECT_EQ: a mismatch would print 256 MiB.
    EXPECT_TRUE(got == draw());
    auto &stats = p.adaptor()->stats();
    EXPECT_EQ(stats.counterHandle("h2d_bytes").value(), kLen);
    EXPECT_EQ(stats.counterHandle("d2h_bytes").value(), kLen);
}

TEST(TrustFailure, TamperedChassisReportedNotFatal)
{
    Platform p(PlatformConfig{.secure = true});
    TrustReport report = p.establishTrust();
    ASSERT_TRUE(report.ok());
    // Trust is established; later physical tampering is detected by
    // the periodic poll and changes the sealing PCR, which a fresh
    // attestation round would expose.
    Bytes before =
        p.blade()->pcrs().value(trust::pcridx::kSealingStatus);
    p.sealing()->injectReading(2, 1.0); // intrusion sensor
    p.sealing()->pollOnce();
    EXPECT_TRUE(p.sealing()->tamperDetected());
    EXPECT_NE(p.blade()->pcrs().value(trust::pcridx::kSealingStatus),
              before);
}

TEST(TrustFailure, RogueBladeFirmwareFailsReattestation)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    ASSERT_TRUE(p.reattestTenant(0));
    // A rogue firmware measurement on the blade after boot: the
    // verifier's goldens come from the release, not from the blade.
    p.blade()->pcrs().extend(trust::pcridx::kScFirmware,
                             crypto::Sha256::digest(std::string("rogue")),
                             "rogue-firmware");
    EXPECT_FALSE(p.reattestTenant(0));
}

TEST(TrustFailure, RogueTvmImageFailsReattestation)
{
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    p.cpuHrot()->pcrs().extend(trust::pcridx::kTvmImage,
                               crypto::Sha256::digest(std::string("rogue")),
                               "rogue-tvm");
    EXPECT_FALSE(p.reattestTenant(0));
}

TEST(VanillaPlatform, TrustIsNoOp)
{
    Platform p(PlatformConfig{.secure = false});
    TrustReport report = p.establishTrust();
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(p.pcieSc(), nullptr);
    EXPECT_EQ(p.adaptor(), nullptr);
    EXPECT_EQ(p.busTap(), nullptr);
}
