/**
 * @file
 * Cross-backend protection comparison: runs the Figure-8 workload
 * shape (Llama-2-7B on the A100 model) under all three protection
 * backends — the paper's interposed PCIe-SC (ccai), NVIDIA-style
 * GPU confidential compute (h100cc) and a CCA-extension design
 * (acai) — against the same vanilla baseline, and emits
 * BENCH_backends.json with per-backend overhead rows plus each
 * design's cost model and TCB/compatibility descriptor.
 *
 * --quick trims the sweeps for CI; the JSON is validated by
 * scripts/check_bench.py.
 */

#include <cstring>

#include "bench_util.hh"

using namespace ccai;
using namespace ccai::bench;

namespace
{

struct BackendSeries
{
    backend::Kind kind;
    std::vector<Row> rows;

    double
    meanE2eOverheadPct() const
    {
        double sum = 0.0;
        for (const Row &row : rows)
            sum += row.result.e2eOverheadPct();
        return rows.empty() ? 0.0
                            : sum / static_cast<double>(rows.size());
    }
};

double
toSecondsRate(double bytesPerSec)
{
    return bytesPerSec / 1e9; // GB/s for the report
}

} // namespace

int
main(int argc, char **argv)
{
    LogConfig::Quiet quiet;

    bool quick = false;
    for (int i = 1; i < argc; ++i)
        quick = quick || std::strcmp(argv[i], "--quick") == 0;

    std::vector<std::uint32_t> token_sweep = {64, 128, 256, 512};
    std::vector<std::uint32_t> batch_sweep = {1, 3, 6, 12};
    if (quick) {
        token_sweep.resize(2);
        batch_sweep.resize(2);
    }

    std::vector<BackendSeries> series;
    for (backend::Kind kind : backend::kAllKinds) {
        BackendSeries s;
        s.kind = kind;
        PlatformConfig base;
        base.protection = kind;
        for (std::uint32_t tokens : token_sweep) {
            llm::InferenceConfig cfg;
            cfg.model = llm::ModelSpec::llama2_7b();
            cfg.batch = 1;
            cfg.inTokens = tokens;
            s.rows.push_back({std::to_string(tokens) + "-tok",
                              runComparison(cfg, base)});
        }
        for (std::uint32_t batch : batch_sweep) {
            llm::InferenceConfig cfg;
            cfg.model = llm::ModelSpec::llama2_7b();
            cfg.batch = batch;
            cfg.inTokens = 128;
            s.rows.push_back({std::to_string(batch) + "-bat",
                              runComparison(cfg, base)});
        }
        std::fprintf(stderr, "backends: %s done\n",
                     backend::kindName(kind));
        series.push_back(std::move(s));
    }

    std::printf("=== Protection backends: E2E overhead vs vanilla "
                "(Llama-2-7B, A100) ===\n\n");
    std::printf("%-14s", "config");
    for (const BackendSeries &s : series)
        std::printf(" %12s", backend::kindName(s.kind));
    std::printf("\n%s\n",
                std::string(14 + 13 * series.size(), '-').c_str());
    for (std::size_t r = 0; r < series.front().rows.size(); ++r) {
        std::printf("%-14s", series.front().rows[r].label.c_str());
        for (const BackendSeries &s : series)
            std::printf(" %11.2f%%",
                        s.rows[r].result.e2eOverheadPct());
        std::printf("\n");
    }
    std::printf("%-14s", "mean");
    for (const BackendSeries &s : series)
        std::printf(" %11.2f%%", s.meanE2eOverheadPct());
    std::printf("\n");

    std::printf("\nOne-time session establishment:\n");
    for (const BackendSeries &s : series) {
        backend::CostModel cost = backend::costModelFor(s.kind);
        std::printf("  %-8s %8.0f ms (%s)\n",
                    backend::kindName(s.kind),
                    static_cast<double>(cost.sessionEstablishTicks) /
                        kTicksPerMs,
                    backend::tcbFor(s.kind).trustAnchor);
    }

    BenchJson out("BENCH_backends.json", "backend-comparison");
    obs::JsonEmitter &json = out.json();
    json.field("quick", quick);
    json.key("backends");
    json.beginArray();
    for (const BackendSeries &s : series) {
        const backend::CostModel cost = backend::costModelFor(s.kind);
        const backend::TcbDescriptor tcb = backend::tcbFor(s.kind);
        json.beginObject();
        json.field("backend", backend::kindName(s.kind));
        json.field("trust_anchor", tcb.trustAnchor);

        json.key("tcb");
        json.beginObject();
        json.field("interposer", tcb.interposer);
        json.field("device_crypto", tcb.deviceCrypto);
        json.field("tee_extension", tcb.teeExtension);
        json.field("packet_filter", tcb.packetFilter);
        json.field("per_tlp_crypto", tcb.perTlpCrypto);
        json.field("legacy_device_ok", tcb.legacyDeviceOk);
        json.field("stack_unmodified", tcb.stackUnmodified);
        json.field("app_unmodified", tcb.appUnmodified);
        json.field("added_tcb_kloc", tcb.addedTcbKloc);
        json.endObject();

        json.key("cost_model");
        json.beginObject();
        json.field("host_seal_gbps",
                   toSecondsRate(cost.hostSealBytesPerSec));
        json.field("host_open_gbps",
                   toSecondsRate(cost.hostOpenBytesPerSec));
        json.field("device_crypto_gbps",
                   toSecondsRate(cost.deviceCryptoBytesPerSec));
        json.field("per_transfer_setup_us",
                   static_cast<double>(cost.perTransferSetup) /
                       kTicksPerUs);
        json.field("per_request_setup_us",
                   static_cast<double>(cost.perRequestSetup) /
                       kTicksPerUs);
        json.field("session_establish_ms",
                   static_cast<double>(cost.sessionEstablishTicks) /
                       kTicksPerMs);
        json.field("compute_overhead", cost.computeOverhead);
        json.endObject();

        json.key("rows");
        json.beginArray();
        for (const Row &row : s.rows) {
            json.beginObject();
            json.field("label", row.label);
            json.field("vanilla_e2e_s", row.result.vanilla.e2eSeconds);
            json.field("secure_e2e_s", row.result.secure.e2eSeconds);
            json.field("e2e_overhead_pct",
                       row.result.e2eOverheadPct());
            json.field("vanilla_ttft_s",
                       row.result.vanilla.ttftSeconds);
            json.field("secure_ttft_s", row.result.secure.ttftSeconds);
            json.field("ttft_overhead_pct",
                       row.result.ttftOverheadPct());
            json.field("vanilla_tps", row.result.vanilla.tps);
            json.field("secure_tps", row.result.secure.tps);
            json.endObject();
        }
        json.endArray();
        json.field("mean_e2e_overhead_pct", s.meanE2eOverheadPct());
        json.endObject();
    }
    json.endArray();

    if (!out.ok()) {
        std::fprintf(stderr, "failed to write BENCH_backends.json\n");
        return 1;
    }
    std::printf("\nwrote BENCH_backends.json\n");
    return 0;
}
