/**
 * @file
 * Determinism tests for the parallel secure data plane: the worker
 * pool must be an invisible execution detail. Running the same
 * seeded workload at 1, 2, 8, and 16 crypto threads must produce
 * bit-identical plaintexts, bounce-buffer ciphertexts, VRAM
 * contents, and data-plane counters — and the PR-2 chunk-retry
 * machinery must keep healing tag failures when the decrypt batch
 * runs wide.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

namespace
{

/** Everything one run produces that must not depend on threads. */
struct RunImage
{
    Bytes readBack;   ///< D2H plaintext delivered to the app
    Bytes vram;       ///< device-side plaintext after H2D
    Bytes h2dCipher;  ///< H2D bounce window (Adaptor's ciphertext)
    Bytes d2hCipher;  ///< D2H bounce window (SC's ciphertext)
    std::map<std::string, std::uint64_t> counters;
};

/**
 * Data-plane counters that must be identical at any width. Timing
 * stats are deliberately absent: thread count changes simulated
 * CPU time (that is the point of the optimization), but never what
 * moved or whether it verified.
 */
const char *const kDataPlaneCounters[] = {
    "h2d_chunks",         "h2d_bytes",
    "d2h_bytes",          "io_writes",
    "io_reads",           "signed_writes",
    "d2h_integrity_failures", "a2_integrity_failures",
    "a3_integrity_failures",  "faults_fatal",
    "a1_blocked",
};

RunImage
runMix(int width)
{
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.adaptorConfig.cryptoThreads = width;
    cfg.scConfig.dataEngineThreads = width;
    Platform p(cfg);
    TrustReport trust = p.establishTrust();
    EXPECT_TRUE(trust.ok()) << trust.failure;

    // Multi-chunk H2D (real payload), then D2H of a device-resident
    // region — both directions exercise the parallel seal/open.
    sim::Rng rng(0xD17A);
    Bytes weights = rng.bytes(600 * kKiB);
    Bytes result = rng.bytes(300 * kKiB);

    RunImage img;
    p.runtime().memcpyH2D(mm::kXpuVram.base, weights, weights.size(),
                          [] {});
    p.run();
    p.xpu().vram().write(2 * kMiB, result);
    p.runtime().memcpyD2H(mm::kXpuVram.base + 2 * kMiB, result.size(),
                          false,
                          [&](Bytes d) { img.readBack = std::move(d); });
    p.run();

    EXPECT_EQ(img.readBack, result) << "width " << width;
    img.vram = p.xpu().vram().read(0, weights.size());
    EXPECT_EQ(img.vram, weights) << "width " << width;
    img.h2dCipher =
        p.hostMemory().read(mm::kBounceH2d.base, weights.size());
    img.d2hCipher =
        p.hostMemory().read(mm::kBounceD2h.base, result.size());
    for (const char *name : kDataPlaneCounters)
        img.counters[name] = p.metrics().sumCounter(name);
    return img;
}

} // namespace

TEST(ParallelDataPlane, BitIdenticalAcrossThreadCounts)
{
    RunImage one = runMix(1);
    for (int width : {2, 8, 16}) {
        RunImage wide = runMix(width);
        EXPECT_EQ(wide.readBack, one.readBack) << "width " << width;
        EXPECT_EQ(wide.vram, one.vram) << "width " << width;
        // Same IV sequence + same keys + exact parallel GCM =>
        // byte-identical ciphertext in both bounce directions.
        EXPECT_EQ(wide.h2dCipher, one.h2dCipher) << "width " << width;
        EXPECT_EQ(wide.d2hCipher, one.d2hCipher) << "width " << width;
        EXPECT_EQ(wide.counters, one.counters) << "width " << width;
    }
}

TEST(ParallelDataPlane, RuleTlbServesSteadyStateTraffic)
{
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.adaptorConfig.cryptoThreads = 4;
    cfg.scConfig.dataEngineThreads = 4;
    Platform p(cfg);
    ASSERT_TRUE(p.establishTrust().ok());

    // Two round trips: the first warms the TLB (and pays the
    // per-stream compulsory misses), the second runs steady-state.
    sim::Rng rng(0x71B);
    Bytes data = rng.bytes(4 * kMiB);
    for (int pass = 0; pass < 2; ++pass) {
        p.runtime().memcpyH2D(mm::kXpuVram.base, data, data.size(),
                              [] {});
        p.run();
        Bytes back;
        p.runtime().memcpyD2H(mm::kXpuVram.base, data.size(), false,
                              [&](Bytes d) { back = std::move(d); });
        p.run();
        ASSERT_EQ(back, data);
    }

    // Steady-state chunk traffic resolves from the rule TLB and
    // never classifies under a stale policy (generation-checked).
    sc::PacketFilter &filter = p.pcieSc()->filter();
    EXPECT_GE(filter.tlbHitRate(), 0.9);
    EXPECT_EQ(p.metrics().sumCounter("a1_blocked"), 0u);
    EXPECT_EQ(p.metrics().sumCounter("a2_integrity_failures"), 0u);
}

TEST(ParallelDataPlane, ChunkRetryHealsTagFailuresAtFullWidth)
{
    // PR-2's D2H chunk-retry path under a wide decrypt batch: keep
    // silent (CRC-evading) corruption in the fabric and check the
    // parallel open still routes failures into kChunkRetry and every
    // fault heals.
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.adaptorConfig.cryptoThreads = 8;
    cfg.scConfig.dataEngineThreads = 8;
    Platform p(cfg);
    ASSERT_TRUE(p.establishTrust().ok());

    FaultConfig faults = FaultConfig::uniform(0x5EED, 0.05);
    faults.corruptSilentFraction = 0.5;
    p.setHostLinkFaults(faults);

    sim::Rng rng(0x5EED ^ 0x50AC);
    Bytes secret = rng.bytes(64 * kKiB);
    p.runtime().memcpyH2D(mm::kXpuVram.base, secret, secret.size(),
                          [] {});
    p.run();
    Bytes got;
    p.runtime().memcpyD2H(mm::kXpuVram.base, secret.size(), false,
                          [&](Bytes d) { got = std::move(d); });
    p.run();

    EXPECT_EQ(p.xpu().vram().read(0, secret.size()), secret);
    EXPECT_EQ(got, secret);
    EXPECT_GT(p.metrics().sumCounter("faults_injected"), 0u);
    EXPECT_EQ(p.metrics().sumCounter("faults_fatal"), 0u);
}
