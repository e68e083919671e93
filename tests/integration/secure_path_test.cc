/**
 * @file
 * End-to-end integration tests of the full ccAI platform: trust
 * establishment, the confidential H2D/D2H data path through the
 * Adaptor -> bounce buffer -> PCIe-SC -> xPU pipeline with real
 * payload bytes, environment teardown, and the optimization knobs.
 */

#include <gtest/gtest.h>

#include "ccai/experiment.hh"
#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

namespace
{

/** A secure platform with trust established. */
class SecurePlatformTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        platform = std::make_unique<Platform>(
            PlatformConfig{.secure = true});
        TrustReport report = platform->establishTrust();
        ASSERT_TRUE(report.ok()) << report.failure;
    }

    std::unique_ptr<Platform> platform;
};

} // namespace

TEST_F(SecurePlatformTest, TrustReportAllGreen)
{
    // SetUp already asserted ok(); check individual bits and the
    // measurement log's tamper evidence.
    EXPECT_TRUE(platform->blade()->pcrs().replayMatches());
    EXPECT_TRUE(platform->pcieSc()->sessionEstablished());
    EXPECT_GT(platform->blade()->pcrs().eventLog().size(), 0u);
}

TEST_F(SecurePlatformTest, SecureH2dDeliversPlaintextToVram)
{
    sim::Rng rng(1);
    Bytes secret = rng.bytes(4096);
    bool done = false;
    platform->runtime().memcpyH2D(mm::kXpuVram.base + 0x1000, secret,
                                  secret.size(), [&] { done = true; });
    platform->run();
    ASSERT_TRUE(done);
    // The device sees the decrypted plaintext.
    EXPECT_EQ(platform->xpu().vram().read(0x1000, secret.size()),
              secret);
    // The bounce buffer holds only ciphertext.
    Bytes bounce =
        platform->hostMemory().read(mm::kBounceH2d.base, secret.size());
    EXPECT_NE(bounce, secret);
    EXPECT_EQ(platform->pcieSc()
                  ->stats()
                  .counterHandle("a2_integrity_failures")
                  .value(),
              0u);
}

TEST_F(SecurePlatformTest, SecureD2hReturnsPlaintextResults)
{
    sim::Rng rng(2);
    Bytes result = rng.bytes(2048);
    platform->xpu().vram().write(0x2000, result);

    Bytes got;
    platform->runtime().memcpyD2H(mm::kXpuVram.base + 0x2000,
                                  result.size(), false,
                                  [&](Bytes d) { got = std::move(d); });
    platform->run();
    EXPECT_EQ(got, result);
    // Host bounce holds ciphertext, not the result.
    Bytes bounce =
        platform->hostMemory().read(mm::kBounceD2h.base, result.size());
    EXPECT_NE(bounce, result);
}

TEST_F(SecurePlatformTest, SecureRoundTripMultiChunk)
{
    sim::Rng rng(3);
    // > one 256 KiB chunk so chunking and record batching engage.
    Bytes data = rng.bytes(600 * kKiB);
    Bytes got;
    platform->runtime().memcpyH2D(
        mm::kXpuVram.base, data, data.size(), [&] {
            platform->runtime().memcpyD2H(
                mm::kXpuVram.base, data.size(), false,
                [&](Bytes d) { got = std::move(d); });
        });
    platform->run();
    EXPECT_EQ(got.size(), data.size());
    EXPECT_EQ(got, data);
}

TEST_F(SecurePlatformTest, KernelLaunchAndSyncWork)
{
    bool synced = false;
    platform->runtime().launchKernel(1 * kTicksPerMs);
    platform->runtime().synchronize([&] { synced = true; });
    platform->run();
    EXPECT_TRUE(synced);
    EXPECT_EQ(platform->pcieSc()
                  ->stats()
                  .counterHandle("a3_integrity_failures")
                  .value(),
              0u);
}

TEST_F(SecurePlatformTest, EndTaskScrubsDevice)
{
    platform->xpu().vram().write(0, {1, 2, 3});
    bool synced = false;
    platform->runtime().launchKernel(1000);
    platform->runtime().synchronize([&] { synced = true; });
    platform->run();
    ASSERT_TRUE(synced);
    EXPECT_FALSE(platform->xpu().envState().clean());

    platform->adaptor()->endTask(/*softResetSupported=*/true);
    platform->run();
    EXPECT_TRUE(platform->xpu().envState().clean());
    EXPECT_EQ(platform->xpu().vram().read(0, 3), (Bytes{0, 0, 0}));
    EXPECT_FALSE(platform->pcieSc()->sessionEstablished());
}

TEST_F(SecurePlatformTest, ColdResetPathForNpuWithoutSoftReset)
{
    platform->xpu().vram().write(0, {9});
    platform->adaptor()->endTask(/*softResetSupported=*/false);
    platform->run();
    EXPECT_TRUE(platform->xpu().envState().clean());
}

TEST_F(SecurePlatformTest, SyntheticBulkTransferCompletes)
{
    bool done = false;
    platform->runtime().memcpyH2D(mm::kXpuVram.base, std::nullopt,
                                  64 * kMiB, [&] { done = true; });
    platform->run();
    EXPECT_TRUE(done);
    // 64 MiB at 256 KiB chunks: 256 records registered.
    EXPECT_EQ(platform->pcieSc()->stats().counterHandle("h2d_records")
                  .value(),
              256u);
}

/**
 * A device DMA that claims length-only inside a real collection
 * leaves a D2H record with a zero tag and no replay copy at the
 * PCIe-SC. The Adaptor fails that collection at once with a counted
 * reason; kChunkRetry rounds could never mend it.
 */
TEST_F(SecurePlatformTest, LengthOnlyDeviceWriteFailsRealCollectionAtOnce)
{
    const std::uint64_t length = 64 * kKiB;
    sim::Rng rng(4);
    platform->xpu().vram().write(0x4000, rng.bytes(length));

    tvm::Adaptor &adaptor = *platform->adaptor();
    const Addr bounce = adaptor.allocD2hBounce(length);
    xpu::XpuCommand cmd;
    cmd.type = xpu::XpuCmdType::DmaToHost;
    cmd.hostAddr = bounce;
    cmd.devAddr = mm::kXpuVram.base + 0x4000;
    cmd.length = length;
    cmd.synthetic = true;
    platform->driver().submitCommand(cmd);

    bool collected = false;
    Bytes got;
    Tick start = 0, end = 0;
    platform->driver().fence([&] {
        start = platform->system().now();
        adaptor.collectD2h(bounce, length, /*synthetic=*/false,
                           [&](Bytes d) {
                               got = std::move(d);
                               end = platform->system().now();
                               collected = true;
                           });
    });
    platform->run();

    ASSERT_TRUE(collected);
    EXPECT_TRUE(got.empty());
    EXPECT_LT(end - start, 1 * kTicksPerMs);
    auto &stats = adaptor.stats();
    EXPECT_EQ(stats.counterHandle("d2h_chunk_retries").value(), 0u);
    EXPECT_EQ(stats.counterHandle("d2h_synthetic_records").value(), 1u);
    EXPECT_EQ(stats.counterHandle("faults_fatal").value(), 1u);
    EXPECT_EQ(platform->pcieSc()
                  ->stats()
                  .counterHandle("d2h_replay_misses")
                  .value(),
              0u);
}

TEST(SecureNoOpt, UnoptimizedPathStillCorrect)
{
    PlatformConfig cfg{.secure = true};
    cfg.adaptorConfig = tvm::AdaptorConfig::noOptimizations();
    Platform platform(cfg);
    ASSERT_TRUE(platform.establishTrust().ok());

    sim::Rng rng(4);
    Bytes data = rng.bytes(300 * kKiB);
    Bytes got;
    platform.runtime().memcpyH2D(
        mm::kXpuVram.base, data, data.size(), [&] {
            platform.runtime().memcpyD2H(
                mm::kXpuVram.base, data.size(), false,
                [&](Bytes d) { got = std::move(d); });
        });
    platform.run();
    EXPECT_EQ(got, data);
    // The unoptimized design generated far more I/O interactions.
    EXPECT_GT(platform.adaptor()->stats().counterHandle("io_writes").value(),
              70u);
}

TEST(SecureVsVanilla, IdenticalResultsDifferentPaths)
{
    sim::Rng rng(5);
    Bytes data = rng.bytes(128 * kKiB);

    auto round_trip = [&](bool secure) {
        Platform platform(PlatformConfig{.secure = secure});
        EXPECT_TRUE(platform.establishTrust().ok());
        Bytes got;
        platform.runtime().memcpyH2D(
            mm::kXpuVram.base, data, data.size(), [&] {
                platform.runtime().memcpyD2H(
                    mm::kXpuVram.base, data.size(), false,
                    [&](Bytes d) { got = std::move(d); });
            });
        platform.run();
        return got;
    };

    EXPECT_EQ(round_trip(false), data);
    EXPECT_EQ(round_trip(true), data);
}

TEST(SecureVsVanilla, SecureCostsMoreButModestly)
{
    auto timed_run = [&](bool secure) {
        Platform platform(PlatformConfig{.secure = secure});
        EXPECT_TRUE(platform.establishTrust().ok());
        bool done = false;
        platform.runtime().memcpyH2D(mm::kXpuVram.base, std::nullopt,
                                     16 * kMiB, [&] { done = true; });
        platform.run();
        EXPECT_TRUE(done);
        return platform.system().now();
    };

    Tick vanilla = timed_run(false);
    Tick secure = timed_run(true);
    EXPECT_GT(secure, vanilla);
    // Bulk-transfer tax stays bounded (well under 3x).
    EXPECT_LT(double(secure) / vanilla, 3.0);
}
