/**
 * @file
 * Seeded fuzz/soak suite for the secure path under fabric faults:
 * sweep fault rates over full TVM -> PCIe-SC -> xPU round trips and
 * assert that the end-to-end retry machinery preserves plaintext
 * fidelity with zero fatal faults, and that a fixed seed reproduces
 * the exact same fault schedule and statistics.
 *
 * The base seed honours --seed / CCAI_SEED (CI rotates it per run);
 * per-case seeds are derived from it so the log line
 * "rng: seed=..." is enough to replay any failure locally.
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

/** Everything one soak run produces, for fidelity + replay checks. */
struct SoakOutcome
{
    Bytes readBack;
    Bytes vram;
    std::map<std::string, std::uint64_t> counters;

    bool
    operator==(const SoakOutcome &o) const
    {
        return readBack == o.readBack && vram == o.vram &&
               counters == o.counters;
    }
};

/** The aggregate counters a replayed run must reproduce exactly. */
const char *const kScheduleCounters[] = {
    "faults_injected",      "fault_drops",
    "crc_discards",         "fault_corrupt_silent",
    "fault_duplicates",     "fault_delays",
    "fault_reorders",       "fault_flap_drops",
    "faults_recovered",     "faults_fatal",
    "transport_retransmits", "transport_rx_duplicates",
    "transport_rx_ooo",     "a2_integrity_failures",
    "a2_read_retries",      "d2h_chunk_retries",
    "record_fetch_retries",
};

/**
 * One full secure round trip (H2D into VRAM, D2H back out) with a
 * uniform fault schedule of @p rate on the host<->SC segment.
 */
SoakOutcome
runSoak(std::uint64_t caseSeed, double rate,
        std::uint64_t bytes = 16 * kKiB)
{
    PlatformConfig cfg;
    cfg.secure = true;
    Platform p(cfg);
    TrustReport trust = p.establishTrust();
    if (!trust.ok())
        fatal("soak: trust failed: %s", trust.failure.c_str());

    if (rate > 0) {
        FaultConfig faults = FaultConfig::uniform(caseSeed, rate);
        // A quarter of corruptions evade the CRC: exercises the
        // GCM-failure re-request path, not just drop healing.
        faults.corruptSilentFraction = 0.25;
        p.setHostLinkFaults(faults);
    }

    sim::Rng rng(caseSeed ^ 0x50AC);
    Bytes secret = rng.bytes(bytes);
    p.runtime().memcpyH2D(mm::kXpuVram.base, secret, secret.size(),
                          [] {});
    p.run();
    SoakOutcome out;
    p.runtime().memcpyD2H(mm::kXpuVram.base, secret.size(), false,
                          [&](Bytes d) { out.readBack = std::move(d); });
    p.run();

    out.vram = p.xpu().vram().read(0, secret.size());
    EXPECT_EQ(out.vram, secret)
        << "H2D corrupted at seed=" << caseSeed << " rate=" << rate;
    EXPECT_EQ(out.readBack, secret)
        << "D2H corrupted at seed=" << caseSeed << " rate=" << rate;

    for (const char *name : kScheduleCounters)
        out.counters[name] = p.metrics().sumCounter(name);
    return out;
}

} // namespace

class FaultSoak : public ::testing::Test
{
  protected:
    /** CI rotates CCAI_SEED; local runs default to 0x5EED. */
    std::uint64_t baseSeed_ = sim::resolveSeed(0x5EED);
};

TEST_F(FaultSoak, RateSweepKeepsPlaintextFidelityWithZeroFatals)
{
    const double kRates[] = {0.0, 0.001, 0.01, 0.05};
    const int kSeedsPerRate = 3;

    for (double rate : kRates) {
        std::uint64_t injectedAcrossSeeds = 0;
        for (int i = 0; i < kSeedsPerRate; ++i) {
            std::uint64_t seed = baseSeed_ + 1000 * i + 1;
            SoakOutcome out = runSoak(seed, rate);
            // Fidelity asserted inside runSoak; here: every injected
            // fault stayed below the retry budget.
            EXPECT_EQ(out.counters["faults_fatal"], 0u)
                << "seed=" << seed << " rate=" << rate;
            injectedAcrossSeeds += out.counters["faults_injected"];
        }
        if (rate == 0.0) {
            EXPECT_EQ(injectedAcrossSeeds, 0u);
        } else if (rate >= 0.01) {
            // A round trip is only ~10^2 TLPs, so at 0.1% a single
            // seed can legitimately draw zero faults; across three
            // seeds at >= 1% a zero-fault sweep means the injector
            // is not wired up.
            EXPECT_GT(injectedAcrossSeeds, 0u) << "rate=" << rate;
        }
    }
}

TEST_F(FaultSoak, AcceptanceOnePercentDropAndCorrupt)
{
    // The ISSUE acceptance case: 1% drop + 1% corruption on the
    // host<->SC link; the secure path must finish with bit-identical
    // plaintext and visibly non-zero injected/recovered counts.
    // Sixteen round trips push enough TLPs through the lossy segment
    // that a fault-free schedule is astronomically unlikely for any
    // rotating CI seed.
    FaultConfig faults;
    faults.seed = baseSeed_;
    faults.dropRate = 0.01;
    faults.corruptRate = 0.01;
    faults.corruptSilentFraction = 0.25;

    PlatformConfig cfg;
    cfg.secure = true;
    cfg.hostLinkFaults = faults;

    Platform p(cfg);
    ASSERT_TRUE(p.establishTrust().ok());

    sim::Rng rng(baseSeed_);
    for (int iter = 0; iter < 16; ++iter) {
        Bytes secret = rng.bytes(16 * kKiB);
        Addr dst = mm::kXpuVram.base + iter * 16 * kKiB;
        p.runtime().memcpyH2D(dst, secret, secret.size(), [] {});
        p.run();
        Bytes got;
        p.runtime().memcpyD2H(dst, secret.size(), false,
                              [&](Bytes d) { got = std::move(d); });
        p.run();
        ASSERT_EQ(got, secret) << "iter " << iter;
    }

    EXPECT_GT(p.metrics().sumCounter("faults_injected"), 0u);
    EXPECT_GT(p.metrics().sumCounter("faults_recovered"), 0u);
    EXPECT_EQ(p.metrics().sumCounter("faults_fatal"), 0u);
}

TEST_F(FaultSoak, IdenticalSeedsProduceIdenticalSchedulesAndStats)
{
    SoakOutcome a = runSoak(baseSeed_ + 7, 0.02);
    SoakOutcome b = runSoak(baseSeed_ + 7, 0.02);
    EXPECT_TRUE(a == b) << "same seed must replay bit-identically";

    SoakOutcome c = runSoak(baseSeed_ + 8, 0.02);
    EXPECT_NE(a.counters, c.counters)
        << "different seeds should produce different schedules";
}

TEST_F(FaultSoak, KernelLaunchSurvivesLossyFabric)
{
    // Beyond memcpy: the doorbell/command/interrupt control path
    // also heals — a kernel launch plus synchronize completes.
    PlatformConfig cfg;
    cfg.secure = true;
    Platform p(cfg);
    ASSERT_TRUE(p.establishTrust().ok());
    p.setHostLinkFaults(FaultConfig::uniform(baseSeed_ + 21, 0.01));

    bool synced = false;
    p.runtime().launchKernel(1 * kTicksPerMs);
    p.runtime().synchronize([&] { synced = true; });
    p.run();

    EXPECT_TRUE(synced);
    EXPECT_EQ(p.xpu().stats().counterHandle("kernels").value(), 1u);
    EXPECT_EQ(p.metrics().sumCounter("faults_fatal"), 0u);
}
