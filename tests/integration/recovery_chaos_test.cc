/**
 * @file
 * Chaos-soak suite for the crash-recovery subsystem: sweep seeded
 * component-crash rates (PCIe-SC firmware hang, xPU wedge, HRoT
 * reboot) over guarded round trips and kernels on a two-tenant
 * platform and assert that
 *
 *   - every injected crash ends in Resuming or Quarantined — the
 *     event loop always drains, nothing hangs;
 *   - every guarded round trip completes with bit-identical payload
 *     to a crash-free run of the same workload;
 *   - a fixed seed replays the identical crash schedule, recovery
 *     trace (episode list) and counters;
 *   - a repeatedly-failing tenant is quarantined without affecting
 *     the other tenant, and its re-admission is rejected.
 *
 * The base seed honours --seed / CCAI_SEED (CI rotates it per run);
 * per-case seeds derive from it so the "rng: seed=..." log line is
 * enough to replay any failure locally.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

namespace
{

constexpr Bdf kTenantB{0x00, 0x04, 0x0};

/** Guarded workload shape: per slot, interleaved transfers+kernels. */
constexpr int kRoundTripsPerSlot = 4;
constexpr std::uint64_t kOpBytes = 16 * kKiB;
constexpr Tick kKernelDuration = 5 * kTicksPerMs;

/** Counters a same-seed replay must reproduce exactly. */
const char *const kReplayCounters[] = {
    "crashes_injected",   "crashes_injected_pcie_sc",
    "crashes_injected_xpu", "crashes_injected_hrot",
    "probe_rounds",       "probe_timeouts",
    "episodes_started",   "episodes_resolved",
    "resets",             "reattests",
    "reattest_failures",  "ops_submitted",
    "ops_completed",      "ops_failed",
    "op_replays",         "op_deadlines",
    "quarantines",        "env_guard_cleans",
};

/** Everything one chaos run produces, for fidelity + replay checks. */
struct ChaosOutcome
{
    /** Round-trip readbacks, indexed [slot][op]. */
    std::vector<std::vector<Bytes>> readbacks;
    std::vector<CrashEvent> schedule;
    std::vector<RecoveryManager::Episode> episodes;
    std::map<std::string, std::uint64_t> counters;

    bool
    operator==(const ChaosOutcome &o) const
    {
        return readbacks == o.readbacks && schedule == o.schedule &&
               episodes == o.episodes && counters == o.counters;
    }
};

/** The payloads the workload writes, a pure function of the seed. */
std::vector<std::vector<Bytes>>
expectedPayloads(std::uint64_t caseSeed, std::uint32_t slots)
{
    std::vector<std::vector<Bytes>> out(slots);
    for (std::uint32_t slot = 0; slot < slots; ++slot) {
        sim::Rng rng(caseSeed ^ (0xDA7Aull + slot));
        for (int i = 0; i < kRoundTripsPerSlot; ++i)
            out[slot].push_back(rng.bytes(kOpBytes));
    }
    return out;
}

/**
 * Run a two-tenant platform with all three crash domains armed at
 * @p perSec crashes per simulated second over @p horizon, while both
 * slots push guarded round trips interleaved with long guarded
 * kernels through the recovery journal.
 */
ChaosOutcome
runChaos(std::uint64_t caseSeed, double perSec, Tick horizon)
{
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.maxTenants = 2;
    // The xPU runs one command at a time, so a tenant's op can wait
    // behind the other tenant's kernels; the completion deadline must
    // stay above that worst-case queueing or healthy ops get
    // reissued (the deadline is a lost-op backstop, not the crash
    // detector — the heartbeat is).
    cfg.recovery.opDeadlineMargin = 100 * kTicksPerMs;
    Platform p(cfg);
    // Span tracing is compiled in but off by default; the CI soak
    // turns it on so a failing run's trace can be uploaded.
    if (std::getenv("CCAI_CHAOS_TRACE_DIR"))
        p.setTracingEnabled(true);
    if (!p.establishTrust().ok())
        fatal("chaos: trust establishment failed");
    p.addTenant(kTenantB);

    RecoveryManager &rec = *p.recovery();
    const std::uint32_t kSlots = 2;
    auto payloads = expectedPayloads(caseSeed, kSlots);

    ChaosOutcome out;
    out.readbacks.resize(kSlots);
    int kernelsOk = 0;
    int failures = 0;
    for (std::uint32_t slot = 0; slot < kSlots; ++slot) {
        for (int i = 0; i < kRoundTripsPerSlot; ++i) {
            // Disjoint VRAM windows per (slot, op): a replayed write
            // can never mask a neighbour's corruption.
            Addr dst = mm::kXpuVram.base +
                       (slot * kRoundTripsPerSlot + i) * kOpBytes;
            rec.roundTrip(slot, dst, payloads[slot][i],
                          [&out, &failures, slot](bool ok,
                                                  const Bytes &d) {
                              if (ok)
                                  out.readbacks[slot].push_back(d);
                              else
                                  ++failures;
                          });
            // A long kernel behind every other transfer keeps guarded
            // work in flight across most of the crash schedule.
            if (i % 2 == 1) {
                rec.guardedKernel(slot, kKernelDuration,
                                  [&kernelsOk, &failures](bool ok) {
                                      ok ? ++kernelsOk : ++failures;
                                  });
            }
        }
    }

    rec.armChaos({.seed = caseSeed,
                  .pcieScPerSec = perSec,
                  .xpuPerSec = perSec,
                  .hrotPerSec = perSec,
                  .horizon = horizon});
    p.run();

    // The event loop drained: nothing may still be journaled, armed
    // or mid-episode.
    EXPECT_EQ(rec.pendingOps(), 0u) << "seed=" << caseSeed;
    EXPECT_FALSE(rec.episodeActive()) << "seed=" << caseSeed;
    EXPECT_EQ(failures, 0) << "seed=" << caseSeed;
    EXPECT_EQ(kernelsOk, kSlots * kRoundTripsPerSlot / 2);

    // Bit-identical fidelity: replayed or not, every round trip must
    // return exactly the journaled plaintext, in submission order.
    for (std::uint32_t slot = 0; slot < kSlots; ++slot) {
        EXPECT_EQ(out.readbacks[slot], payloads[slot])
            << "slot " << slot << " seed=" << caseSeed;
    }

    out.schedule = rec.injector().schedule();
    out.episodes = rec.episodes();
    for (const char *name : kReplayCounters)
        out.counters[name] = p.metrics().sumCounter(name);

    // The CI chaos soak sets CCAI_CHAOS_TRACE_DIR; each run then
    // leaves a Perfetto-loadable span trace behind, uploaded as a
    // build artifact when the soak fails.
    if (const char *dir = std::getenv("CCAI_CHAOS_TRACE_DIR")) {
        std::string path = std::string(dir) + "/chaos_trace_" +
                           std::to_string(caseSeed) + ".json";
        EXPECT_TRUE(p.exportTrace(path)) << path;
    }
    return out;
}

} // namespace

class RecoveryChaos : public ::testing::Test
{
  protected:
    /** CI rotates CCAI_SEED; local runs default to 0x5EED. */
    std::uint64_t baseSeed_ = sim::resolveSeed(0x5EED);
};

TEST_F(RecoveryChaos, CrashFreeBaselineCompletesEverything)
{
    ChaosOutcome out = runChaos(baseSeed_ + 1, 0.0, 2 * kTicksPerSec);
    EXPECT_TRUE(out.schedule.empty());
    EXPECT_TRUE(out.episodes.empty());
    EXPECT_EQ(out.counters["crashes_injected"], 0u);
    EXPECT_EQ(out.counters["episodes_started"], 0u);
    EXPECT_EQ(out.counters["quarantines"], 0u);
    // The watchdog probed throughout without a single false alarm.
    EXPECT_GT(out.counters["probe_rounds"], 0u);
    EXPECT_EQ(out.counters["probe_timeouts"], 0u);
}

TEST_F(RecoveryChaos, SoakOneCrashPerTenSecondsAllDomains)
{
    // Mean inter-arrival 10 s per domain over a 10 s horizon: some
    // seeds draw crashes, some don't — either way every episode must
    // resolve and fidelity must hold (asserted inside runChaos).
    ChaosOutcome out =
        runChaos(baseSeed_ + 2, 0.1, 10 * kTicksPerSec);
    EXPECT_EQ(out.counters["crashes_injected"], out.schedule.size());
    EXPECT_EQ(out.counters["episodes_started"],
              out.counters["episodes_resolved"]);
    EXPECT_EQ(out.counters["reattest_failures"], 0u);
    for (const auto &ep : out.episodes) {
        EXPECT_TRUE(ep.finalState == RecoveryState::Resuming ||
                    ep.finalState == RecoveryState::Quarantined)
            << recoveryStateName(ep.finalState);
        EXPECT_GE(ep.resolvedAt, ep.detectedAt);
    }
}

TEST_F(RecoveryChaos, SoakOneCrashPerSecondAllDomains)
{
    // ~4 crashes per domain across the horizon; recoveries overlap
    // the guarded workload constantly.
    ChaosOutcome out = runChaos(baseSeed_ + 3, 1.0, 4 * kTicksPerSec);
    EXPECT_GT(out.schedule.size(), 0u);
    EXPECT_EQ(out.counters["crashes_injected"], out.schedule.size());
    EXPECT_GT(out.counters["episodes_started"], 0u);
    EXPECT_EQ(out.counters["episodes_started"],
              out.counters["episodes_resolved"]);
    // Each detected crash ran the full scrub + re-attest pipeline.
    EXPECT_GT(out.counters["resets"], 0u);
    EXPECT_GT(out.counters["reattests"], 0u);
    // A rebooted blade keeps its PCRs, so every re-attestation matches
    // the release's goldens.
    EXPECT_EQ(out.counters["reattest_failures"], 0u);
    EXPECT_GT(out.counters["env_guard_cleans"], 0u);
    for (const auto &ep : out.episodes) {
        EXPECT_TRUE(ep.finalState == RecoveryState::Resuming ||
                    ep.finalState == RecoveryState::Quarantined)
            << recoveryStateName(ep.finalState);
    }
}

TEST_F(RecoveryChaos, SameSeedReplaysScheduleEpisodesAndCounters)
{
    ChaosOutcome a = runChaos(baseSeed_ + 4, 1.0, 3 * kTicksPerSec);
    ChaosOutcome b = runChaos(baseSeed_ + 4, 1.0, 3 * kTicksPerSec);
    EXPECT_TRUE(a == b)
        << "same seed must replay the same crashes and recoveries";

    ChaosOutcome c = runChaos(baseSeed_ + 5, 1.0, 3 * kTicksPerSec);
    EXPECT_NE(a.schedule, c.schedule)
        << "different seeds should draw different crash schedules";
}

TEST_F(RecoveryChaos, EachDomainAloneIsDetectedAndRecovered)
{
    // One forced crash per domain, no Poisson stream: pins down the
    // blame assignment (heartbeat -> SC, command deadline -> xPU,
    // keep-alive -> HRoT) without sampling noise.
    for (FaultDomain domain : {FaultDomain::PcieSc, FaultDomain::Xpu,
                               FaultDomain::Hrot}) {
        PlatformConfig cfg;
        cfg.secure = true;
        Platform p(cfg);
        ASSERT_TRUE(p.establishTrust().ok());
        RecoveryManager &rec = *p.recovery();

        sim::Rng rng(baseSeed_ ^ 0xD0D0);
        Bytes payload = rng.bytes(kOpBytes);
        Bytes got;
        bool ok = false;
        rec.roundTrip(0, mm::kXpuVram.base, payload,
                      [&](bool o, const Bytes &d) {
                          ok = o;
                          got = d;
                      });
        rec.injectCrash(domain);
        p.run();

        EXPECT_TRUE(ok) << faultDomainName(domain);
        EXPECT_EQ(got, payload) << faultDomainName(domain);
        ASSERT_EQ(rec.episodes().size(), 1u)
            << faultDomainName(domain);
        EXPECT_EQ(rec.episodes()[0].domain, domain);
        EXPECT_EQ(rec.episodes()[0].finalState,
                  RecoveryState::Resuming);
        EXPECT_EQ(rec.platformState(), RecoveryState::Healthy);
    }
}

TEST_F(RecoveryChaos, ReplayBudgetQuarantinesOnlyTheFailingTenant)
{
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.maxTenants = 2;
    // Any tenant whose in-flight work needs even one replay episode
    // is treated as repeatedly-failing.
    cfg.recovery.tenantReplayBudget = 0;
    Platform p(cfg);
    ASSERT_TRUE(p.establishTrust().ok());
    p.addTenant(kTenantB);
    RecoveryManager &rec = *p.recovery();

    // Only tenant B has guarded work in flight when the xPU wedges,
    // so only tenant B exceeds its replay budget.
    bool bFailed = false;
    rec.guardedKernel(1, kKernelDuration,
                      [&](bool ok) { bFailed = !ok; });
    rec.injectCrash(FaultDomain::Xpu);
    p.run();

    EXPECT_TRUE(bFailed);
    EXPECT_TRUE(rec.quarantined(1));
    EXPECT_FALSE(rec.quarantined(0));
    EXPECT_EQ(rec.tenantState(1), RecoveryState::Quarantined);
    ASSERT_FALSE(rec.episodes().empty());
    EXPECT_EQ(rec.episodes().back().finalState,
              RecoveryState::Resuming)
        << "the platform as a whole keeps serving";

    // The quarantined requester ID is rejected at admission...
    EXPECT_EQ(p.tryAddTenant(kTenantB), nullptr);

    // ...while the owner's guarded path still works end to end.
    sim::Rng rng(baseSeed_ ^ 0xA11E);
    Bytes payload = rng.bytes(kOpBytes);
    Bytes got;
    rec.roundTrip(0, mm::kXpuVram.base, payload,
                  [&](bool ok, const Bytes &d) {
                      if (ok)
                          got = d;
                  });
    p.run();
    EXPECT_EQ(got, payload);

    // New guarded work for the quarantined slot fails fast.
    bool rejected = false;
    rec.roundTrip(1, mm::kXpuVram.base + kGiB, payload,
                  [&](bool ok, const Bytes &) { rejected = !ok; });
    p.run();
    EXPECT_TRUE(rejected);
}
