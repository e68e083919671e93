/**
 * @file
 * Load-generator tests: deterministic replay, SLO accounting,
 * trace-driven arrivals, per-tenant stream isolation, drain
 * semantics on the heterogeneous fleet, and a cross-check of the
 * serve roofline against the packet-level inference engine.
 */

#include <gtest/gtest.h>

#include "ccai/experiment.hh"
#include "serve/arrival.hh"
#include "serve/load_generator.hh"
#include "sim/sim_object.hh"

using namespace ccai;
using namespace ccai::serve;

namespace
{

ServeConfig
smallConfig()
{
    ServeConfig cfg;
    cfg.tenants = 20;
    cfg.seed = 0x5e12e;
    cfg.horizon = 5 * kTicksPerSec;
    cfg.profile.aggregateRatePerSec = 40.0;
    cfg.profile.promptTokens = 64;
    cfg.profile.genTokens = 8;
    const auto &specs = xpu::XpuSpec::all();
    cfg.fleet.assign(specs.begin(), specs.end());
    return cfg;
}

struct RunResult
{
    ServeReport report;
    std::uint64_t dispatched = 0;
};

RunResult
runOnce(const ServeConfig &cfg)
{
    sim::System sys;
    LoadGenerator gen(sys, "serve", cfg);
    gen.start();
    sys.eventq().run();
    return {gen.report(), sys.eventq().statDispatched()};
}

} // namespace

TEST(LoadGenerator, DeterministicReplay)
{
    const ServeConfig cfg = smallConfig();
    const RunResult a = runOnce(cfg);
    const RunResult b = runOnce(cfg);

    EXPECT_GT(a.report.issued, 0u);
    EXPECT_EQ(a.report.issued, b.report.issued);
    EXPECT_EQ(a.report.completed, b.report.completed);
    EXPECT_EQ(a.report.sloMisses, b.report.sloMisses);
    EXPECT_EQ(a.dispatched, b.dispatched);
    // Percentiles are derived from sim ticks: bit-exact on replay.
    EXPECT_EQ(a.report.ttftP50, b.report.ttftP50);
    EXPECT_EQ(a.report.ttftP99, b.report.ttftP99);
    EXPECT_EQ(a.report.e2eP99, b.report.e2eP99);
    EXPECT_EQ(a.report.tpsP50, b.report.tpsP50);
    EXPECT_EQ(a.report.simSeconds, b.report.simSeconds);
}

TEST(LoadGenerator, SeedChangesArrivalPattern)
{
    ServeConfig cfg = smallConfig();
    const RunResult a = runOnce(cfg);
    cfg.seed ^= 0x9e3779b97f4a7c15ull;
    const RunResult b = runOnce(cfg);
    // Different root seed -> different per-tenant Poisson streams.
    // With ~dozens of arrivals, identical TTFT medians would require
    // an identical arrival schedule.
    EXPECT_TRUE(a.report.issued != b.report.issued ||
                a.report.ttftP50 != b.report.ttftP50 ||
                a.report.simSeconds != b.report.simSeconds);
}

TEST(LoadGenerator, DrainsEveryAdmittedRequest)
{
    // Arrivals stop at the horizon; running the queue dry completes
    // everything that was admitted.
    const RunResult r = runOnce(smallConfig());
    EXPECT_GT(r.report.issued, 0u);
    EXPECT_EQ(r.report.completed, r.report.issued);
    EXPECT_LE(r.report.sloMisses, r.report.issued);
    // With the control plane off, every arrival is admitted and the
    // ledger is trivial: no sheds, no retries, no crashes.
    EXPECT_EQ(r.report.arrivals, r.report.issued);
    EXPECT_EQ(r.report.admitted, r.report.arrivals);
    EXPECT_EQ(r.report.shedOnAdmit, 0u);
    EXPECT_EQ(r.report.shedOnDeadline, 0u);
    EXPECT_EQ(r.report.retries, 0u);
    EXPECT_EQ(r.report.rerouted, 0u);
    EXPECT_EQ(r.report.crashes, 0u);
    EXPECT_GT(r.report.goodputPerSec, 0.0);
    EXPECT_GT(r.report.simSeconds, 0.0);
    // Percentiles are ordered.
    EXPECT_LE(r.report.ttftP50, r.report.ttftP95);
    EXPECT_LE(r.report.ttftP95, r.report.ttftP99);
    EXPECT_LE(r.report.e2eP50, r.report.e2eP95);
    EXPECT_LE(r.report.e2eP95, r.report.e2eP99);
    EXPECT_GE(r.report.tpsP50, r.report.tpsP5);
}

TEST(LoadGenerator, SloDeadlineAccounting)
{
    // An absurdly tight deadline flags every request; a generous one
    // flags none (the small fleet drains this load in well under a
    // minute of simulated time per request).
    ServeConfig tight = smallConfig();
    tight.profile.sloDeadline = 1; // one picosecond
    const RunResult t = runOnce(tight);
    EXPECT_EQ(t.report.sloMisses, t.report.issued);

    ServeConfig loose = smallConfig();
    loose.profile.sloDeadline = 3600 * kTicksPerSec;
    const RunResult l = runOnce(loose);
    EXPECT_EQ(l.report.sloMisses, 0u);
}

TEST(LoadGenerator, EveryLateRequestIsCounted)
{
    // Regression for the shared per-tenant deadline timer: with one
    // timer per tenant, a second arrival re-armed (or lost) the
    // first one's deadline, undercounting misses. Deadlines are now
    // carried per request, so back-to-back arrivals from ONE tenant
    // that both finish late are both charged.
    ServeConfig cfg = smallConfig();
    cfg.tenants = 1;
    cfg.fleet.assign(1, xpu::XpuSpec::a100());

    sim::System probeSys;
    LoadGenerator probe(probeSys, "probe", cfg);
    const Tick est = probe.serviceEstimate(0);
    ASSERT_GT(est, 0u);

    // Three near-simultaneous arrivals on one device: request k
    // completes around (k+1)*est. A deadline of 1.5*est lets the
    // first finish in time and flags the queued two.
    cfg.profile.traceGaps = {10, 10, 10, 100 * kTicksPerSec};
    cfg.profile.sloDeadline = est + est / 2;
    const RunResult r = runOnce(cfg);
    EXPECT_EQ(r.report.issued, 3u);
    EXPECT_EQ(r.report.completed, 3u);
    EXPECT_EQ(r.report.sloMisses, 2u);
}

TEST(LoadGenerator, SecureModeCostsMore)
{
    ServeConfig secure = smallConfig();
    secure.secure = true;
    ServeConfig vanilla = smallConfig();
    vanilla.secure = false;
    const RunResult s = runOnce(secure);
    const RunResult v = runOnce(vanilla);
    // Same seed -> same arrival schedule; the secure data path only
    // inflates service time.
    EXPECT_EQ(s.report.issued, v.report.issued);
    EXPECT_GT(s.report.ttftP50, v.report.ttftP50);
    EXPECT_GT(s.report.e2eP50, v.report.e2eP50);
}

TEST(LoadGenerator, TraceDrivenArrivalsAreExact)
{
    ServeConfig cfg = smallConfig();
    cfg.tenants = 1;
    cfg.fleet.assign(1, xpu::XpuSpec::a100());
    // Three arrivals inside the horizon, then a gap pushing the
    // fourth past it.
    cfg.profile.traceGaps = {kTicksPerSec, kTicksPerSec, kTicksPerSec,
                             100 * kTicksPerSec};
    const RunResult r = runOnce(cfg);
    EXPECT_EQ(r.report.issued, 3u);
    EXPECT_EQ(r.report.completed, 3u);
}

TEST(LoadGenerator, MaxRequestsPerTenantCapsLoad)
{
    ServeConfig cfg = smallConfig();
    cfg.maxRequestsPerTenant = 1;
    const RunResult r = runOnce(cfg);
    EXPECT_LE(r.report.issued, cfg.tenants);
    EXPECT_EQ(r.report.completed, r.report.issued);
}

TEST(ServeRoofline, MatchesPacketPathOnAnIdleDevice)
{
    // One vanilla request on an idle device, priced by the packet-
    // level engine and by a one-tenant fleet. Both use the shared
    // roofline; the engine pays a launch for every kernel of every
    // layer where serve pays one per pass, and the rest of the gap
    // is the engine's PCIe transfers (prompt, logits, token ids).
    struct Case
    {
        xpu::XpuSpec device;
        llm::ModelSpec model;
    };
    const Case cases[] = {
        {xpu::XpuSpec::a100(), llm::ModelSpec::llama2_7b()},
        {xpu::XpuSpec::t4(), llm::ModelSpec::opt1b3()},
    };
    constexpr std::uint32_t kPrompt = 128;
    constexpr std::uint32_t kGen = 32;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.device.name + " / " + c.model.name);
        llm::InferenceConfig inf;
        inf.model = c.model;
        inf.batch = 1;
        inf.inTokens = kPrompt;
        inf.outTokens = kGen;
        PlatformConfig platform;
        platform.secure = false;
        platform.xpuSpec = c.device;
        const double engineE2e = runInference(platform, inf).e2eSeconds;

        ServeConfig cfg;
        cfg.tenants = 1;
        cfg.maxRequestsPerTenant = 1;
        cfg.secure = false;
        cfg.model = c.model;
        cfg.fleet = {c.device};
        cfg.profile.traceGaps = {kTicksPerSec};
        cfg.profile.promptTokens = kPrompt;
        cfg.profile.genTokens = kGen;
        const RunResult r = runOnce(cfg);
        ASSERT_EQ(r.report.completed, 1u);
        const double serveE2e = r.report.e2eP50;

        const Tick launchGap =
            Tick(c.model.layers * c.model.kernelsPerLayer - 1) *
            c.device.kernelLaunchOverhead * (1 + kGen);
        const double rest =
            engineE2e - serveE2e - ticksToSeconds(launchGap);
        EXPECT_GE(rest, 0.0);
        EXPECT_LE(rest, 0.01 * engineE2e);
    }
}

TEST(ArrivalProcess, PoissonGapsArePositiveAndDeterministic)
{
    ArrivalProcess a = ArrivalProcess::poisson(100.0);
    ArrivalProcess b = ArrivalProcess::poisson(100.0);
    sim::Rng ra(7), rb(7);
    for (int i = 0; i < 1000; ++i) {
        const Tick ga = a.nextGap(ra);
        EXPECT_GT(ga, 0u);
        EXPECT_EQ(ga, b.nextGap(rb));
        EXPECT_FALSE(a.done());
    }
}

TEST(ArrivalProcess, TraceDrainsThenDone)
{
    ArrivalProcess t = ArrivalProcess::trace({10, 20, 30});
    sim::Rng rng(1);
    EXPECT_EQ(t.nextGap(rng), 10u);
    EXPECT_EQ(t.nextGap(rng), 20u);
    EXPECT_FALSE(t.done());
    EXPECT_EQ(t.nextGap(rng), 30u);
    EXPECT_TRUE(t.done());
}
