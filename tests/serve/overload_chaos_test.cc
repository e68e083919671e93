/**
 * @file
 * Overload + chaos determinism suite for the serving control plane.
 *
 * Pins the robustness contracts of the admission/retry/re-route
 * pipeline: at 1.0x and 3.0x offered load — with shedding, retries
 * and a mid-run xPU crash all active — the same seed must reproduce
 * every ledger counter and a byte-identical metrics snapshot across
 * fresh runs. A crash may delay admitted requests but never lose
 * them: admitted == completed + shedOnDeadline always balances, and
 * the victim rejoins the fleet Healthy after its reset -> re-attest
 * walk.
 */

#include <gtest/gtest.h>

#include <string>

#include "serve/load_generator.hh"
#include "sim/metrics_snapshot.hh"
#include "sim/sim_object.hh"

using namespace ccai;
using namespace ccai::serve;

namespace
{

/** Roofline fleet capacity (req/s) of @p cfg's fleet. */
double
fleetCapacityPerSec(const ServeConfig &cfg)
{
    sim::System sys;
    LoadGenerator probe(sys, "capacity_probe", cfg);
    double perSec = 0.0;
    for (std::uint32_t d = 0;
         d < static_cast<std::uint32_t>(cfg.fleet.size()); ++d) {
        const double service =
            ticksToSeconds(probe.serviceEstimate(d));
        if (service > 0.0)
            perSec += 1.0 / service;
    }
    return perSec;
}

/**
 * A small two-device fleet driven at @p overload times its roofline
 * capacity with the full control plane on; @p chaos kills one device
 * a third of the way through the horizon.
 */
ServeConfig
overloadConfig(double overload, bool chaos)
{
    ServeConfig cfg;
    cfg.tenants = 8;
    cfg.seed = 0xc4a05;
    cfg.horizon = 3 * kTicksPerSec;
    cfg.fleet.assign(2, xpu::XpuSpec::a100());
    cfg.profile.promptTokens = 64;
    cfg.profile.genTokens = 8;
    cfg.profile.sloDeadline = 2 * kTicksPerSec;
    cfg.leastLoadedRouting = true;

    const double capacity = fleetCapacityPerSec(cfg);
    cfg.profile.aggregateRatePerSec = overload * capacity;

    cfg.admission.enabled = true;
    cfg.admission.tokenRatePerSec = 1.2 * capacity / cfg.tenants;
    cfg.admission.tokenBurst = 2.0;
    cfg.admission.maxQueueDepth = 2;
    cfg.admission.deadlineShedding = true;

    cfg.retry.enabled = true;
    cfg.retry.maxAttempts = 3;
    cfg.retry.baseBackoff = kTicksPerSec / 100;
    cfg.retry.maxBackoff = kTicksPerSec / 5;

    if (chaos) {
        cfg.chaos.enabled = true;
        cfg.chaos.crashAt = {cfg.horizon / 3};
        cfg.chaos.resetTicks = kTicksPerSec / 20;
        cfg.chaos.reattestTicks = kTicksPerSec / 10;
    }
    return cfg;
}

struct ChaosRun
{
    ServeReport report;
    std::uint64_t dispatched = 0;
    std::string metricsJson;
};

std::string
snapshot(sim::System &sys, const ServeConfig &cfg)
{
    sim::MetricsSnapshotInfo info;
    info.source = "serve_chaos_test";
    info.seed = cfg.seed;
    info.secure = cfg.secure;
    return sim::exportMetricsSnapshot(sys, info);
}

ChaosRun
runFresh(const ServeConfig &cfg)
{
    sim::System sys;
    LoadGenerator gen(sys, "serve", cfg);
    gen.start();
    sys.eventq().run();
    return {gen.report(), sys.eventq().statDispatched(),
            snapshot(sys, cfg)};
}

void
expectLedgerEqual(const ServeReport &a, const ServeReport &b)
{
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.sloMisses, b.sloMisses);
    EXPECT_EQ(a.shedOnAdmit, b.shedOnAdmit);
    EXPECT_EQ(a.shedOnDeadline, b.shedOnDeadline);
    EXPECT_EQ(a.shedRate, b.shedRate);
    EXPECT_EQ(a.shedQueueFull, b.shedQueueFull);
    EXPECT_EQ(a.shedNoDevice, b.shedNoDevice);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.retriesExhausted, b.retriesExhausted);
    EXPECT_EQ(a.rerouted, b.rerouted);
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.simSeconds, b.simSeconds);
    EXPECT_EQ(a.ttftP99, b.ttftP99);
    EXPECT_EQ(a.e2eP99, b.e2eP99);
}

void
expectLedgerBalanced(const ServeReport &r)
{
    EXPECT_EQ(r.arrivals, r.admitted + r.shedOnAdmit);
    EXPECT_EQ(r.issued, r.arrivals + r.retries);
    // The zero-lost guarantee: every admitted request completed or
    // was explicitly shed at dispatch — crashes included.
    EXPECT_EQ(r.admitted, r.completed + r.shedOnDeadline);
    EXPECT_LE(r.sloMisses, r.completed);
}

class OverloadChaosTest : public ::testing::TestWithParam<double>
{};

} // namespace

TEST_P(OverloadChaosTest, FreshRunsReplayByteIdentically)
{
    const ServeConfig cfg = overloadConfig(GetParam(), true);
    const ChaosRun a = runFresh(cfg);
    const ChaosRun b = runFresh(cfg);

    EXPECT_GT(a.report.arrivals, 0u);
    EXPECT_GE(a.report.crashes, 1u);
    expectLedgerEqual(a.report, b.report);
    EXPECT_EQ(a.dispatched, b.dispatched);
    // The full metrics snapshot — every counter, histogram and
    // event-core stat — is byte-identical across same-seed runs.
    EXPECT_EQ(a.metricsJson, b.metricsJson);
    expectLedgerBalanced(a.report);
}

TEST_P(OverloadChaosTest, CrashLosesNoAdmittedRequest)
{
    const ChaosRun r = runFresh(overloadConfig(GetParam(), true));
    EXPECT_GE(r.report.crashes, 1u);
    expectLedgerBalanced(r.report);
}

INSTANTIATE_TEST_SUITE_P(OverloadFactors, OverloadChaosTest,
                         ::testing::Values(1.0, 3.0));

TEST(OverloadChaos, OverloadShedsInsteadOfCollapsing)
{
    // At 3x capacity the bounded plane rejects the excess at arrival
    // and keeps retry amplification finite.
    const ChaosRun r = runFresh(overloadConfig(3.0, false));
    EXPECT_GT(r.report.shedOnAdmit, 0u);
    EXPECT_GT(r.report.retries, 0u);
    EXPECT_GT(r.report.retriesExhausted, 0u);
    EXPECT_LE(r.report.issued,
              r.report.arrivals * 3); // maxAttempts caps amplification
    expectLedgerBalanced(r.report);
}

TEST(OverloadChaos, AtCapacityAdmitsNearlyEverything)
{
    const ChaosRun r = runFresh(overloadConfig(1.0, false));
    EXPECT_GT(r.report.arrivals, 0u);
    // Token rate is provisioned 20% above the fair share: the vast
    // majority of at-capacity traffic gets through.
    EXPECT_GE(r.report.admitted * 10, r.report.arrivals * 7);
    expectLedgerBalanced(r.report);
}

TEST(OverloadChaos, VictimWalksRecoveryAndRejoins)
{
    const ServeConfig cfg = overloadConfig(1.0, true);
    sim::System sys;
    LoadGenerator gen(sys, "serve", cfg);
    gen.start();
    sys.eventq().run();

    ASSERT_EQ(gen.report().crashes, 1u);
    ASSERT_EQ(gen.crashTicks().size(), 1u);
    // Reset + re-attest both fit well inside the post-crash horizon,
    // so by drain time the victim is Healthy again.
    for (std::uint32_t d = 0; d < 2; ++d)
        EXPECT_TRUE(gen.router().healthy(d));
}

TEST(OverloadChaos, DifferentSeedsDiverge)
{
    ServeConfig cfg = overloadConfig(3.0, true);
    const ChaosRun a = runFresh(cfg);
    cfg.seed ^= 0x9e3779b97f4a7c15ull;
    const ChaosRun b = runFresh(cfg);
    // A different root seed reshuffles the Poisson arrival streams,
    // the backoff jitter and the crash victim draw.
    EXPECT_TRUE(a.report.arrivals != b.report.arrivals ||
                a.report.ttftP50 != b.report.ttftP50 ||
                a.report.simSeconds != b.report.simSeconds);
}
