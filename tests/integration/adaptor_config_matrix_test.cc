/**
 * @file
 * Property sweep over the Adaptor's optimization matrix: every
 * combination of the §5 optimization switches must preserve
 * functional correctness (the secure H2D/D2H round trip delivers
 * identical bytes), while timing strictly improves as optimizations
 * are enabled.
 */

#include <gtest/gtest.h>

#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

namespace
{

/** Bit-encoded optimization combination. */
struct Combo
{
    bool batchMetadata;
    bool batchNotify;
    bool hwCrypto;
    int threads;

    static Combo
    fromBits(int bits)
    {
        return Combo{(bits & 1) != 0, (bits & 2) != 0,
                     (bits & 4) != 0, (bits & 8) ? 2 : 1};
    }

    tvm::AdaptorConfig
    toConfig() const
    {
        tvm::AdaptorConfig cfg;
        cfg.batchMetadataReads = batchMetadata;
        cfg.batchNotify = batchNotify;
        cfg.hardwareCrypto = hwCrypto;
        cfg.cryptoThreads = threads;
        return cfg;
    }
};

struct RunOutcome
{
    Bytes data;
    Tick duration;
};

RunOutcome
roundTrip(const Combo &combo, const Bytes &payload)
{
    PlatformConfig cfg{.secure = true};
    cfg.adaptorConfig = combo.toConfig();
    Platform platform(cfg);
    EXPECT_TRUE(platform.establishTrust().ok());

    RunOutcome outcome;
    Tick start = platform.system().now();
    platform.runtime().memcpyH2D(
        mm::kXpuVram.base, payload, payload.size(), [&] {
            platform.runtime().memcpyD2H(
                mm::kXpuVram.base, payload.size(), false,
                [&](Bytes d) { outcome.data = std::move(d); });
        });
    platform.run();
    outcome.duration = platform.system().now() - start;
    return outcome;
}

} // namespace

class AdaptorConfigMatrix : public ::testing::TestWithParam<int>
{
};

TEST_P(AdaptorConfigMatrix, RoundTripCorrectUnderAnyCombination)
{
    Combo combo = Combo::fromBits(GetParam());
    sim::Rng rng(1000 + GetParam());
    Bytes payload = rng.bytes(300 * kKiB);
    RunOutcome outcome = roundTrip(combo, payload);
    EXPECT_EQ(outcome.data, payload)
        << "meta=" << combo.batchMetadata
        << " notify=" << combo.batchNotify << " hw=" << combo.hwCrypto
        << " threads=" << combo.threads;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, AdaptorConfigMatrix,
                         ::testing::Range(0, 16));

TEST(AdaptorConfigOrdering, EachOptimizationHelps)
{
    sim::Rng rng(7);
    Bytes payload = rng.bytes(512 * kKiB);

    Combo none{false, false, false, 1};
    Tick t_none = roundTrip(none, payload).duration;

    // Enable one optimization at a time on top of the baseline.
    Combo meta = none;
    meta.batchMetadata = true;
    Combo notify = none;
    notify.batchNotify = true;
    Combo hw = none;
    hw.hwCrypto = true;
    Combo threads = none;
    threads.threads = 2;

    EXPECT_LT(roundTrip(meta, payload).duration, t_none)
        << "metadata batching must reduce latency";
    EXPECT_LT(roundTrip(notify, payload).duration, t_none)
        << "notify batching must reduce latency";
    EXPECT_LT(roundTrip(hw, payload).duration, t_none)
        << "hardware crypto must reduce latency";
    EXPECT_LT(roundTrip(threads, payload).duration, t_none)
        << "parallel crypto threads must reduce latency";

    // Everything on beats everything off, by a wide margin.
    Combo all{true, true, true, 2};
    Tick t_all = roundTrip(all, payload).duration;
    EXPECT_LT(t_all * 3, t_none)
        << "full optimization should be >3x faster on this shape";
}
