/**
 * @file
 * Crash-recovery benchmark, two questions:
 *
 *  1. What does the armed watchdog cost in steady state? The same
 *     guarded transfer stream runs with the health monitor disarmed
 *     and armed; the sim-time throughput delta is the watchdog tax
 *     (heartbeat MMIO probes sharing the fabric with bulk data).
 *     Gate: < 2% overhead.
 *
 *  2. How fast is recovery? A seeded chaos schedule (all three fault
 *     domains) runs against a continuous guarded workload; the
 *     detect/recovery latency histograms and the recovered-vs-
 *     quarantined episode table go to BENCH_recovery.json — the
 *     numbers EXPERIMENTS.md §recovery quotes.
 *
 * Results: stdout + BENCH_recovery.json (working directory).
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hh"
#include "ccai/platform.hh"
#include "sim/rng.hh"

using namespace ccai;
namespace mm = ccai::pcie::memmap;

namespace
{

constexpr std::uint64_t kOpBytes = 512 * kKiB;
constexpr Tick kKernelTicks = 2 * kTicksPerMs;

struct SteadyResult
{
    double simSeconds = 0;
    double mibPerSec = 0;
    std::uint64_t probeRounds = 0;
    bool dataOk = true;
};

/**
 * Push @p ops guarded round trips through the owner slot and report
 * sim-time throughput from submission to the last completion. The
 * watchdog horizon ends with the workload, so armed and disarmed
 * runs drain the same events apart from the probe traffic itself.
 */
SteadyResult
runSteady(bool watchdog, int ops)
{
    PlatformConfig cfg;
    cfg.secure = true;
    Platform p(cfg);
    if (!p.establishTrust().ok())
        fatal("bench_recovery: trust establishment failed");
    RecoveryManager &rec = *p.recovery();

    sim::Rng rng(p.seed() ^ 0xBE7C);
    std::vector<Bytes> payloads;
    for (int i = 0; i < ops; ++i)
        payloads.push_back(rng.bytes(kOpBytes));

    SteadyResult r;
    Tick t0 = p.system().now();
    Tick lastDone = t0;
    for (int i = 0; i < ops; ++i) {
        Addr dst = mm::kXpuVram.base + (i % 16) * kOpBytes;
        rec.roundTrip(0, dst, payloads[i],
                      [&, i](bool ok, const Bytes &d) {
                          r.dataOk = r.dataOk && ok &&
                                     d == payloads[i];
                          lastDone = p.system().now();
                      });
    }
    if (watchdog)
        rec.startWatchdog(t0 + kHeartbeatPeriod);
    p.run();

    r.simSeconds = ticksToSeconds(lastDone - t0);
    r.mibPerSec =
        double(ops) * double(kOpBytes) / double(kMiB) / r.simSeconds;
    r.probeRounds = p.metrics().sumCounter("probe_rounds");
    return r;
}

struct ChaosRow
{
    const char *label = "";
    double ratePerDomain = 0;
    double horizonSec = 0;
    std::uint32_t replayBudget = 0xffffffffu;

    std::uint64_t crashes = 0;
    std::uint64_t episodes = 0;
    std::uint64_t recovered = 0;
    std::uint64_t quarantinedEpisodes = 0;
    std::uint64_t quarantinedTenants = 0;
    std::uint64_t opsCompleted = 0;
    std::uint64_t opsFailed = 0;
    std::uint64_t opReplays = 0;
    bool drained = false;
    obs::Histogram detectLatency;
    obs::Histogram recoveryLatency;
};

/**
 * Chaos phase: a self-refilling guarded workload (round trip then
 * kernel, resubmitted from each completion) spans the whole crash
 * horizon, so most episodes interrupt work in flight.
 */
ChaosRow
runChaos(ChaosRow row)
{
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.recovery.tenantReplayBudget = row.replayBudget;
    Platform p(cfg);
    if (!p.establishTrust().ok())
        fatal("bench_recovery: trust establishment failed");
    RecoveryManager &rec = *p.recovery();

    const Tick horizon = secondsToTicks(row.horizonSec);
    const Tick tEnd = p.system().now() + horizon;
    sim::Rng rng(p.seed() ^ 0xC4A0);
    Bytes payload = rng.bytes(kOpBytes);

    // One round trip and one kernel in flight at all times until the
    // horizon passes; completions refill the pipe. Stop refilling
    // once the tenant is quarantined: rejected submissions fail in a
    // zero-delay event, so resubmitting would spin without ever
    // advancing sim time.
    std::function<void()> submitRt = [&] {
        if (p.system().now() >= tEnd || rec.quarantined(0))
            return;
        rec.roundTrip(0, mm::kXpuVram.base, payload,
                      [&](bool, const Bytes &) { submitRt(); });
    };
    std::function<void()> submitKernel = [&] {
        if (p.system().now() >= tEnd || rec.quarantined(0))
            return;
        rec.guardedKernel(0, kKernelTicks, [&](bool) {
            submitKernel();
        });
    };
    submitRt();
    submitKernel();

    rec.armChaos({.seed = p.seed() ^ 0xC4A5,
                  .pcieScPerSec = row.ratePerDomain,
                  .xpuPerSec = row.ratePerDomain,
                  .hrotPerSec = row.ratePerDomain,
                  .horizon = horizon});
    p.run();

    row.drained = rec.pendingOps() == 0 && !rec.episodeActive();
    row.crashes = p.metrics().sumCounter("crashes_injected");
    row.episodes = rec.episodes().size();
    for (const auto &ep : rec.episodes()) {
        if (ep.finalState == RecoveryState::Resuming)
            ++row.recovered;
        else if (ep.finalState == RecoveryState::Quarantined)
            ++row.quarantinedEpisodes;
    }
    row.quarantinedTenants = p.metrics().sumCounter("quarantines");
    row.opsCompleted = p.metrics().sumCounter("ops_completed");
    row.opsFailed = p.metrics().sumCounter("ops_failed");
    row.opReplays = p.metrics().sumCounter("op_replays");
    row.detectLatency = *rec.stats().histogramHandle("detect_latency_ticks").get();
    row.recoveryLatency =
        *rec.stats().histogramHandle("recovery_latency_ticks").get();
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    LogConfig::Quiet quiet;

    bool quick = false;
    for (int i = 1; i < argc; ++i)
        quick = quick || std::strcmp(argv[i], "--quick") == 0;

    // ~0.35 ms of fabric time per 512 KiB round trip: the armed run
    // spans dozens of heartbeat periods, so the probe traffic really
    // interleaves with bulk data instead of missing it entirely.
    const int steadyOps = quick ? 32 : 128;
    const double horizonSec = quick ? 2.0 : 6.0;

    std::printf("=== Crash recovery: watchdog tax + recovery latency "
                "===\n\n");

    // ---- Steady-state watchdog overhead --------------------------
    SteadyResult off = runSteady(false, steadyOps);
    SteadyResult on = runSteady(true, steadyOps);
    double overheadPct =
        (on.simSeconds - off.simSeconds) / off.simSeconds * 100.0;
    std::printf("%-22s %12s %14s %12s\n", "watchdog", "sim time",
                "throughput", "probe rounds");
    std::printf("%-22s %10.3fms %11.1fMiB/s %12llu\n", "disarmed",
                off.simSeconds * 1e3, off.mibPerSec,
                (unsigned long long)off.probeRounds);
    std::printf("%-22s %10.3fms %11.1fMiB/s %12llu\n", "armed",
                on.simSeconds * 1e3, on.mibPerSec,
                (unsigned long long)on.probeRounds);
    std::printf("overhead: %.3f%% (target < 2%%)\n\n", overheadPct);

    // ---- Chaos: recovery latency + episode outcomes --------------
    std::vector<ChaosRow> rows;
    rows.push_back(runChaos({.label = "calm-0.2/s",
                             .ratePerDomain = 0.2,
                             .horizonSec = horizonSec}));
    rows.push_back(runChaos({.label = "storm-2/s",
                             .ratePerDomain = 2.0,
                             .horizonSec = horizonSec}));
    rows.push_back(runChaos({.label = "storm-budget-2",
                             .ratePerDomain = 2.0,
                             .horizonSec = horizonSec,
                             .replayBudget = 2}));

    std::printf("%-16s %8s %9s %10s %12s %9s %9s\n", "scenario",
                "crashes", "episodes", "recovered", "quarantined",
                "replays", "drained");
    bool allDrained = true;
    bool allResolved = true;
    for (const ChaosRow &r : rows) {
        std::printf("%-16s %8llu %9llu %10llu %12llu %9llu %9s\n",
                    r.label, (unsigned long long)r.crashes,
                    (unsigned long long)r.episodes,
                    (unsigned long long)r.recovered,
                    (unsigned long long)r.quarantinedTenants,
                    (unsigned long long)r.opReplays,
                    r.drained ? "yes" : "NO");
        allDrained = allDrained && r.drained;
        allResolved = allResolved &&
                      r.recovered + r.quarantinedEpisodes ==
                          r.episodes;
    }
    const obs::Histogram &lat = rows[1].recoveryLatency;
    std::printf("\nstorm recovery latency: p50=%.2fms p99=%.2fms "
                "(detect p50=%.2fms)\n",
                lat.p50() / double(kTicksPerMs),
                lat.p99() / double(kTicksPerMs),
                rows[1].detectLatency.p50() / double(kTicksPerMs));

    {
        bench::BenchJson out("BENCH_recovery.json", "crash-recovery");
        obs::JsonEmitter &json = out.json();
        json.field("quick", quick);
        json.key("watchdog_tax");
        json.beginObject();
        json.field("ops", steadyOps);
        json.field("bytes_per_op", kOpBytes);
        json.field("disarmed_sim_seconds", off.simSeconds);
        json.field("armed_sim_seconds", on.simSeconds);
        json.field("armed_probe_rounds", on.probeRounds);
        json.field("overhead_pct", overheadPct);
        json.field("target_pct", 2.0);
        json.endObject();
        json.key("chaos");
        json.beginArray();
        for (const ChaosRow &r : rows) {
            json.beginObject();
            json.field("scenario", r.label);
            json.field("rate_per_domain_hz", r.ratePerDomain);
            json.field("horizon_seconds", r.horizonSec);
            json.field("tenant_replay_budget",
                       std::uint64_t(r.replayBudget));
            json.field("crashes_injected", r.crashes);
            json.field("episodes", r.episodes);
            json.field("recovered_episodes", r.recovered);
            json.field("quarantined_episodes", r.quarantinedEpisodes);
            json.field("quarantined_tenants", r.quarantinedTenants);
            json.field("ops_completed", r.opsCompleted);
            json.field("ops_failed", r.opsFailed);
            json.field("op_replays", r.opReplays);
            json.field("drained", r.drained);
            out.latency("detect_latency_ticks", r.detectLatency);
            out.latency("recovery_latency_ticks", r.recoveryLatency);
            json.endObject();
        }
        json.endArray();
        json.field("watchdog_overhead_lt_2pct", overheadPct < 2.0);
        json.field("all_runs_drained", allDrained);
        json.field("all_episodes_resolved", allResolved);
    }

    bool pass = overheadPct < 2.0 && allDrained && allResolved &&
                off.probeRounds == 0 && on.probeRounds > 0 &&
                off.dataOk && on.dataOk;
    std::printf("\nwatchdog overhead < 2%%: %s\n"
                "all chaos runs drained: %s\n"
                "all episodes resolved: %s\n\n%s\n",
                overheadPct < 2.0 ? "yes" : "NO",
                allDrained ? "yes" : "NO",
                allResolved ? "yes" : "NO", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
