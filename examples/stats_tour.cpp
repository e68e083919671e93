/**
 * @file
 * Observability tour: runs a small confidential workload with span
 * tracing enabled and shows all three output planes —
 *
 *  1. the gem5-style text dump of every component's statistics
 *     (packet counts per security class, integrity checks, records,
 *     doorbells, interrupts, wire bytes),
 *  2. a machine-readable metrics snapshot (stats_tour_metrics.json)
 *     with latency-histogram percentiles and per-tenant rollups,
 *  3. a Chrome trace_event file (stats_tour_trace.json) — load it in
 *     Perfetto (ui.perfetto.dev) or chrome://tracing to see the
 *     Adaptor seal/open stages, PCIe-SC pipeline stages, link wire
 *     spans, ARQ retries and the trust-establishment sequence on
 *     their own tracks.
 *
 *   $ ./stats_tour
 */

#include <cstdio>

#include "ccai/platform.hh"

using namespace ccai;
namespace mm = ccai::pcie::memmap;

int
main()
{
    LogConfig::Quiet quiet;
    Platform platform(PlatformConfig{.secure = true});

    // Tracing is compiled in but off by default; switch it on before
    // the phases you want recorded (trust establishment included).
    platform.setTracingEnabled(true);
    if (!platform.establishTrust().ok())
        return 1;

    sim::Rng rng(0x57A75);
    Bytes data = rng.bytes(512 * kKiB);
    platform.runtime().memcpyH2D(mm::kXpuVram.base, data, data.size(),
                                 [&] {
        platform.runtime().launchKernel(1 * kTicksPerMs);
        platform.runtime().memcpyD2H(mm::kXpuVram.base, data.size(),
                                     false, [](Bytes) {});
    });
    platform.run();

    std::printf("One 512 KiB confidential round trip + one kernel; "
                "simulated time %.3f ms.\n\n",
                ticksToSeconds(platform.system().now()) * 1e3);
    std::printf("%s", platform.metrics().dump().c_str());

    std::printf("\nPCR event log of the HRoT-Blade:\n");
    for (const trust::MeasurementEvent &ev :
         platform.blade()->pcrs().eventLog()) {
        std::printf("  PCR[%2zu] <- %s\n", ev.pcrIndex,
                    ev.description.c_str());
    }

    // Machine-readable planes.
    std::string metrics = platform.exportMetricsJson();
    std::FILE *mf = std::fopen("stats_tour_metrics.json", "w");
    bool written = mf != nullptr;
    if (mf) {
        written = std::fwrite(metrics.data(), 1, metrics.size(), mf) ==
                  metrics.size();
        written = std::fclose(mf) == 0 && written;
    }
    bool traced = platform.exportTrace("stats_tour_trace.json");

    std::printf("\nmetrics snapshot : stats_tour_metrics.json "
                "(%zu bytes%s)\n",
                metrics.size(), written ? "" : ", WRITE FAILED");
    std::printf("span trace       : stats_tour_trace.json "
                "(%zu events%s) — open in ui.perfetto.dev\n",
                platform.tracer().eventCount(),
                traced ? "" : ", WRITE FAILED");
    return written && traced ? 0 : 1;
}
