/**
 * @file
 * Fleet-scale serving benchmark with an event-kernel gate.
 *
 * Phase A (kernel gate) replays the SAME logical multi-tenant timer
 * mix — periodic heartbeats plus ARQ-style deadline timers that are
 * re-armed many times before they ever fire — through the seed
 * priority-queue kernel (LegacyEventQueue) and the hierarchical
 * timer wheel (EventQueue), and reports wall-clock events/sec for
 * both. The legacy kernel has no cancellation, so every re-arm
 * leaves a generation-guarded no-op in the heap that must still be
 * popped, allocated and dispatched; the wheel deschedules in O(1).
 * The speedup at the 10k-tenant mix is the optimisation's headline
 * gate: the binary exits 1 below 10x.
 *
 * Phase B runs the serve::LoadGenerator SLO sweep: open-loop Poisson
 * arrivals from {100, 1k, 10k} tenants over a heterogeneous xPU
 * fleet, reporting simulated TTFT/TPS/E2E percentiles and the
 * wall-clock events/sec the wheel kernel sustains end-to-end.
 * Latency percentiles cover admitted requests only; the ledger
 * columns (arrivals/admitted/shed_*) document the denominator.
 * --chaos layers the overload control plane plus seeded xPU crash
 * injection onto the sweep (see bench_serve_chaos for the dedicated
 * overload/crash gates).
 *
 * Emits BENCH_serve.json.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "serve/load_generator.hh"
#include "sim/event_queue.hh"
#include "sim/legacy_event_queue.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "xpu/xpu_spec.hh"

using namespace ccai;

namespace
{

double
wallSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Shape of the Phase A timer mix (identical for both kernels). */
struct MixConfig
{
    std::uint32_t tenants = 0;
    std::uint32_t beats = 0;    ///< heartbeats per tenant
    std::uint32_t rearms = 8;   ///< ARQ re-arms per beat
    std::uint64_t seed = 0x5eedu;
};

struct MixResult
{
    std::uint64_t logicalBeats = 0;
    std::uint64_t arqFires = 0;
    std::uint64_t dispatched = 0;
    double wallSeconds = 0.0;
    double eventsPerSec() const
    {
        return wallSeconds > 0 ? dispatched / wallSeconds : 0.0;
    }
};

/** Per-tenant heartbeat periods, shared by both kernel drivers so
 * the schedules are tick-identical. */
std::vector<Tick>
mixPeriods(const MixConfig &cfg)
{
    sim::Rng rng(cfg.seed);
    std::vector<Tick> periods(cfg.tenants);
    for (auto &p : periods)
        p = 50 * kTicksPerUs +
            rng.uniform(0, 4950) * kTicksPerUs;
    return periods;
}

/** ARQ timeout: long enough that each beat's re-arms always land
 * before expiry, so the deadline only fires once, at drain. */
Tick
arqTimeout(Tick period)
{
    return 12 * period;
}

/** The wheel side: owned intrusive events, O(1) reschedule. */
MixResult
runMixWheel(const MixConfig &cfg)
{
    struct Tenant
    {
        sim::EventFunctionWrapper beat;
        sim::EventFunctionWrapper arq;
        Tick period = 0;
        std::uint32_t beatsLeft = 0;
    };

    sim::EventQueue q;
    MixResult r;
    std::vector<Tick> periods = mixPeriods(cfg);
    std::vector<std::unique_ptr<Tenant>> tenants;
    tenants.reserve(cfg.tenants);
    for (std::uint32_t i = 0; i < cfg.tenants; ++i) {
        auto t = std::make_unique<Tenant>();
        t->period = periods[i];
        t->beatsLeft = cfg.beats;
        Tenant *tp = t.get();
        t->arq.setCallback([&r] { ++r.arqFires; }, "mix-arq");
        t->beat.setCallback(
            [&q, &r, tp, &cfg] {
                ++r.logicalBeats;
                // One ack per window slot, each re-arming the
                // deadline: the wheel deschedules the stale arm in
                // O(1) instead of leaving it queued.
                for (std::uint32_t w = 0; w < cfg.rearms; ++w)
                    q.reschedule(&tp->arq, q.now() +
                                               arqTimeout(tp->period) +
                                               w);
                if (--tp->beatsLeft > 0)
                    q.rescheduleIn(&tp->beat, tp->period);
            },
            "mix-beat");
        tenants.push_back(std::move(t));
    }
    auto t0 = std::chrono::steady_clock::now();
    for (auto &t : tenants)
        q.scheduleIn(&t->beat, t->period);
    r.dispatched = q.run();
    r.wallSeconds = wallSince(t0);
    return r;
}

/** The seed kernel side: closure events guarded by generation
 * counters, exactly how the seed components emulated cancellation. */
MixResult
runMixLegacy(const MixConfig &cfg)
{
    struct Tenant
    {
        Tick period = 0;
        std::uint32_t beatsLeft = 0;
        std::uint64_t gen = 0;
    };

    sim::LegacyEventQueue q;
    MixResult r;
    std::vector<Tick> periods = mixPeriods(cfg);
    std::vector<Tenant> tenants(cfg.tenants);
    for (std::uint32_t i = 0; i < cfg.tenants; ++i) {
        tenants[i].period = periods[i];
        tenants[i].beatsLeft = cfg.beats;
    }

    std::function<void(std::uint32_t)> onBeat =
        [&](std::uint32_t i) {
            Tenant &t = tenants[i];
            ++r.logicalBeats;
            for (std::uint32_t w = 0; w < cfg.rearms; ++w) {
                const std::uint64_t g = ++t.gen;
                q.schedule(q.now() + arqTimeout(t.period) + w,
                           [&, i, g] {
                               if (g == tenants[i].gen)
                                   ++r.arqFires;
                           });
            }
            if (--t.beatsLeft > 0)
                q.scheduleIn(t.period, [&, i] { onBeat(i); });
        };

    auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < cfg.tenants; ++i)
        q.scheduleIn(tenants[i].period, [&, i] { onBeat(i); });
    r.dispatched = q.run();
    r.wallSeconds = wallSince(t0);
    return r;
}

struct ServeRow
{
    std::uint32_t tenants = 0;
    serve::ServeReport report;
    std::uint64_t dispatched = 0;
    double wallSeconds = 0.0;
    double eventsPerSec() const
    {
        return wallSeconds > 0 ? dispatched / wallSeconds : 0.0;
    }
};

ServeRow
runServe(std::uint32_t tenants, bool quick, bool chaos,
         ccai::backend::Kind protection)
{
    sim::System sys;
    serve::ServeConfig cfg;
    cfg.tenants = tenants;
    cfg.protection = protection;
    cfg.seed = 0xcca1u;
    // Fleet-scale sizing: every tenant offers the same load and the
    // heterogeneous fleet grows with the tenant population (one
    // 5-device group per 50 tenants), so the sweep varies timer
    // pressure, not saturation. The per-tenant rate keeps the
    // slowest fleet member (T4) hot but stable: queueing shows up
    // in the tails, not in unbounded backlog growth.
    cfg.horizon = (quick ? 10 : 30) * kTicksPerSec;
    const double perTenantRate = quick ? 0.04 : 0.015;
    cfg.profile.aggregateRatePerSec = perTenantRate * tenants;
    cfg.profile.promptTokens = 128;
    cfg.profile.genTokens = quick ? 24 : 64;
    const auto &specs = xpu::XpuSpec::all();
    const std::uint32_t groups = tenants < 50 ? 1 : tenants / 50;
    cfg.fleet.reserve(groups * specs.size());
    for (std::uint32_t g = 0; g < groups; ++g)
        cfg.fleet.insert(cfg.fleet.end(), specs.begin(),
                         specs.end());

    if (chaos) {
        // Chaos mode: the full control plane plus one injected xPU
        // crash per 10 simulated seconds; crash drain re-routes the
        // victim's queue through the least-loaded router.
        cfg.admission.enabled = true;
        cfg.admission.tokenRatePerSec = 2.0 * perTenantRate;
        cfg.admission.tokenBurst = 4.0;
        cfg.admission.maxQueueDepth = 8;
        cfg.retry.enabled = true;
        cfg.chaos.enabled = true;
        cfg.chaos.xpuCrashesPerSec = 0.1;
    }

    serve::LoadGenerator gen(sys, "serve", cfg);
    auto t0 = std::chrono::steady_clock::now();
    gen.start();
    sys.eventq().run();
    ServeRow row;
    row.wallSeconds = wallSince(t0);
    row.tenants = tenants;
    row.report = gen.report();
    row.dispatched = sys.eventq().statDispatched();
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool chaos = false;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--chaos") == 0)
            chaos = true;
        else if (std::strcmp(argv[i], "--json") == 0 &&
                 i + 1 < argc)
            jsonPath = argv[++i];
    }
    sim::applySeedFlag(argc, argv);
    const backend::Kind backendKind =
        bench::parseBackendFlag(argc, argv);
    if (jsonPath.empty())
        jsonPath = bench::benchOutputPath("BENCH_serve.json",
                                          backendKind);

    const std::vector<std::uint32_t> tenantCounts = {100, 1000,
                                                     10000};

    std::printf("Event-kernel gate (legacy heap vs timer wheel)\n");
    std::printf("%-8s %14s %14s %14s %9s\n", "tenants",
                "legacy disp", "legacy ev/s", "wheel ev/s",
                "speedup");

    struct GateRow
    {
        std::uint32_t tenants;
        MixResult legacy, wheel;
    };
    std::vector<GateRow> gate;
    double speedup10k = 0.0;
    for (std::uint32_t t : tenantCounts) {
        MixConfig mix;
        mix.tenants = t;
        mix.beats = quick ? 10 : 25;
        MixResult lg = runMixLegacy(mix);
        MixResult wh = runMixWheel(mix);
        if (lg.logicalBeats != wh.logicalBeats ||
            lg.arqFires != wh.arqFires) {
            std::fprintf(stderr,
                         "kernel gate mismatch: legacy "
                         "(%llu beats, %llu fires) vs wheel "
                         "(%llu beats, %llu fires)\n",
                         (unsigned long long)lg.logicalBeats,
                         (unsigned long long)lg.arqFires,
                         (unsigned long long)wh.logicalBeats,
                         (unsigned long long)wh.arqFires);
            return 1;
        }
        // Speedup = wall-clock ratio for the same logical work.
        double speedup = wh.wallSeconds > 0
                             ? lg.wallSeconds / wh.wallSeconds
                             : 0.0;
        if (t == 10000)
            speedup10k = speedup;
        std::printf("%-8u %14llu %14.0f %14.0f %8.1fx\n", t,
                    (unsigned long long)lg.dispatched,
                    lg.eventsPerSec(), wh.eventsPerSec(), speedup);
        gate.push_back({t, lg, wh});
    }

    std::printf("\nServe SLO sweep (%s%s)\n",
                quick ? "quick" : "full",
                chaos ? ", chaos" : "");
    std::printf("%-8s %9s %9s %8s %9s %9s %9s %10s\n", "tenants",
                "issued", "done", "misses", "ttft_p50", "ttft_p99",
                "e2e_p95", "ev/s");
    std::vector<ServeRow> rows;
    for (std::uint32_t t : tenantCounts) {
        ServeRow row = runServe(t, quick, chaos, backendKind);
        std::printf("%-8u %9llu %9llu %8llu %8.3fs %8.3fs %8.3fs "
                    "%10.0f\n",
                    t, (unsigned long long)row.report.issued,
                    (unsigned long long)row.report.completed,
                    (unsigned long long)row.report.sloMisses,
                    row.report.ttftP50, row.report.ttftP99,
                    row.report.e2eP95, row.eventsPerSec());
        rows.push_back(std::move(row));
    }

    bench::BenchJson out(jsonPath, "serve_fleet");
    auto &json = out.json();
    if (backendKind != backend::Kind::CcaiSc)
        json.field("backend", backend::kindName(backendKind));
    json.field("quick", quick);
    json.field("chaos", chaos);
    // Latency percentiles below are over admitted requests that
    // completed; shed requests never enter the samples.
    json.field("latency_denominator", "admitted_completed");
    json.field("speedup_10k", speedup10k);
    json.key("kernel_gate");
    json.beginArray();
    for (const auto &g : gate) {
        json.beginObject();
        json.field("tenants", std::uint64_t(g.tenants));
        json.field("legacy_dispatched", g.legacy.dispatched);
        json.field("legacy_wall_seconds", g.legacy.wallSeconds);
        json.field("legacy_events_per_sec",
                   g.legacy.eventsPerSec());
        json.field("wheel_dispatched", g.wheel.dispatched);
        json.field("wheel_wall_seconds", g.wheel.wallSeconds);
        json.field("wheel_events_per_sec", g.wheel.eventsPerSec());
        json.field("speedup", g.wheel.wallSeconds > 0
                                  ? g.legacy.wallSeconds /
                                        g.wheel.wallSeconds
                                  : 0.0);
        json.endObject();
    }
    json.endArray();
    json.key("serve");
    json.beginArray();
    for (const auto &row : rows) {
        json.beginObject();
        json.field("tenants", std::uint64_t(row.tenants));
        json.field("issued", row.report.issued);
        json.field("arrivals", row.report.arrivals);
        json.field("admitted", row.report.admitted);
        json.field("completed", row.report.completed);
        json.field("slo_misses", row.report.sloMisses);
        json.field("shed_on_admit", row.report.shedOnAdmit);
        json.field("shed_on_deadline", row.report.shedOnDeadline);
        json.field("retries", row.report.retries);
        json.field("rerouted", row.report.rerouted);
        json.field("crashes", row.report.crashes);
        json.field("goodput_per_sec", row.report.goodputPerSec);
        json.field("sim_seconds", row.report.simSeconds);
        json.field("ttft_p50_s", row.report.ttftP50);
        json.field("ttft_p95_s", row.report.ttftP95);
        json.field("ttft_p99_s", row.report.ttftP99);
        json.field("tps_p50", row.report.tpsP50);
        json.field("tps_p5", row.report.tpsP5);
        json.field("e2e_p50_s", row.report.e2eP50);
        json.field("e2e_p95_s", row.report.e2eP95);
        json.field("e2e_p99_s", row.report.e2eP99);
        json.field("events_dispatched", row.dispatched);
        json.field("wall_seconds", row.wallSeconds);
        json.field("events_per_sec", row.eventsPerSec());
        json.endObject();
    }
    json.endArray();
    if (!out.ok()) {
        std::fprintf(stderr, "failed to write %s\n",
                     jsonPath.c_str());
        return 1;
    }
    std::printf("\nwrote %s\n", jsonPath.c_str());

    const bool kernelOk = speedup10k >= 10.0;
    std::printf("speedup at 10k tenants: %.1fx (target >= 10.0x)\n\n"
                "%s\n",
                speedup10k, kernelOk ? "PASS" : "FAIL");
    return kernelOk ? 0 : 1;
}
