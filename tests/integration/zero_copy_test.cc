/**
 * @file
 * Zero-copy guarantee of the secure data plane: the Platform pins the
 * DMA windows, and seal and open run in place in the bounce arenas,
 * so a mixed H2D/D2H workload round-trips without one payload byte
 * landing in sparse (unpinned) host memory.
 */

#include <gtest/gtest.h>

#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

namespace
{

/** Multi-chunk H2D, compute-free D2H readback, plus a small tail
 * transfer so both directions see more than one collect batch. */
void
runMixedTraffic(Platform &p)
{
    sim::Rng rng(0x2C0);
    Bytes weights = rng.bytes(600 * kKiB);
    p.runtime().memcpyH2D(mm::kXpuVram.base, weights, weights.size(),
                          [] {});
    p.run();

    Bytes back;
    p.runtime().memcpyD2H(mm::kXpuVram.base, 300 * kKiB, false,
                          [&](Bytes d) { back = std::move(d); });
    p.run();
    ASSERT_EQ(back,
              Bytes(weights.begin(), weights.begin() + 300 * kKiB));

    Bytes logits = rng.bytes(48 * kKiB);
    p.runtime().memcpyH2D(mm::kXpuVram.base + 1 * kMiB, logits,
                          logits.size(), [] {});
    p.run();
    Bytes tail;
    p.runtime().memcpyD2H(mm::kXpuVram.base + 1 * kMiB,
                          logits.size(), false,
                          [&](Bytes d) { tail = std::move(d); });
    p.run();
    ASSERT_EQ(tail, logits);
}

Platform
makePlatform(int threads)
{
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.adaptorConfig.cryptoThreads = threads;
    cfg.scConfig.dataEngineThreads = threads;
    return Platform(cfg);
}

} // namespace

TEST(ZeroCopy, PinnedWindowsTakeZeroStagedCopies)
{
    for (int threads : {1, 4}) {
        Platform p = makePlatform(threads);
        ASSERT_TRUE(p.establishTrust().ok());
        EXPECT_TRUE(
            p.hostMemory().pinned(mm::kBounceH2d.base, 4 * kKiB));
        EXPECT_TRUE(
            p.hostMemory().pinned(mm::kBounceD2h.base, 4 * kKiB));

        runMixedTraffic(p);

        // The transfers really ran chunked...
        EXPECT_GT(p.metrics().sumCounter("h2d_chunks"), 1u)
            << "threads " << threads;
        EXPECT_GT(p.metrics().sumCounter("d2h_bytes"), 0u);
        // ...and not one payload byte went through sparse host
        // memory: every seal/open happened in the DMA arenas.
        EXPECT_EQ(p.hostMemory().residentPages(), 0u)
            << "threads " << threads;
    }
}
