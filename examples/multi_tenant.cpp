/**
 * @file
 * Multi-tenant confidential serving (the paper's §9 extension): two
 * mutually-distrusting tenants share one xPU behind one PCIe-SC.
 * The controller tells them apart by PCIe requester ID and keeps an
 * isolated secure channel per tenant — separate AES-GCM keys, chunk
 * tables, and bounce/metadata windows — so each tenant's prompts
 * and results are opaque to the other. Exits 1 when a round trip,
 * an isolation check or a scrub comes out wrong.
 *
 *   $ ./multi_tenant
 */

#include <cstdio>

#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

int
main()
{
    LogConfig::Quiet quiet;

    PlatformConfig cfg{.secure = true};
    cfg.maxTenants = 2;
    Platform platform(cfg);
    // Record the run: each tenant's Adaptor gets its own trace track.
    platform.setTracingEnabled(true);
    if (!platform.establishTrust().ok())
        return 1;

    // Tenant B joins with its own requester ID and key negotiation.
    Platform::Tenant &b = platform.addTenant(Bdf{0x00, 0x04, 0x0});
    std::printf("two tenants established (%zu sessions on the "
                "PCIe-SC)\n",
                platform.pcieSc()->tenantCount());

    sim::Rng rng(0x7E4A47);
    Bytes secret_a = rng.bytes(64 * kKiB);
    Bytes secret_b = rng.bytes(64 * kKiB);
    Bytes got_a, got_b;

    // Both tenants work the shared device concurrently.
    platform.runtime().memcpyH2D(
        mm::kXpuVram.base, secret_a, secret_a.size(), [&] {
            platform.runtime().launchKernel(1 * kTicksPerMs);
            platform.runtime().memcpyD2H(
                mm::kXpuVram.base, secret_a.size(), false,
                [&](Bytes d) { got_a = std::move(d); });
        });
    b.runtime->memcpyH2D(
        mm::kXpuVram.base + kGiB, secret_b, secret_b.size(), [&] {
            b.runtime->launchKernel(1 * kTicksPerMs);
            b.runtime->memcpyD2H(
                mm::kXpuVram.base + kGiB, secret_b.size(), false,
                [&](Bytes d) { got_b = std::move(d); });
        });
    platform.run();

    bool ok = got_a == secret_a && got_b == secret_b;
    std::printf("tenant A round trip: %s\n",
                got_a == secret_a ? "ok" : "FAILED");
    std::printf("tenant B round trip: %s\n",
                got_b == secret_b ? "ok" : "FAILED");

    // Isolation: what sits in tenant A's bounce window is
    // ciphertext under A's keys; B's keys cannot open it.
    Addr a_window = platform.adaptor()->windows().d2h.base;
    Bytes a_ciphertext =
        platform.hostMemory().read(a_window, secret_a.size());
    bool leaked = a_ciphertext == secret_a;
    auto *b_keys = b.adaptor->keyManager();
    auto opened =
        b_keys->cipherForEpoch(trust::StreamDir::DeviceToHost, 0)
            .open(b_keys->nextIv(trust::StreamDir::DeviceToHost),
                  a_ciphertext, Bytes(16, 0));
    ok = ok && !leaked && !opened.has_value();
    std::printf("tenant A's results plaintext-visible to B: %s; "
                "decryptable with B's keys: %s\n",
                leaked ? "YES" : "no",
                opened.has_value() ? "YES" : "no");

    // Tenant B leaves; A keeps running. Device scrubbed only when
    // the last tenant ends.
    b.adaptor->endTask(true);
    platform.run();
    const std::size_t left = platform.pcieSc()->tenantCount();
    const bool early_scrub = platform.xpu().envState().clean();
    ok = ok && left == 1 && !early_scrub;
    std::printf("tenant B ended; sessions left: %zu, device "
                "scrubbed: %s\n",
                left, early_scrub ? "yes" : "not yet");
    platform.adaptor()->endTask(true);
    platform.run();
    const bool scrubbed = platform.xpu().envState().clean();
    ok = ok && scrubbed;
    std::printf("owner ended; device scrubbed: %s\n",
                scrubbed ? "yes" : "NO");

    if (platform.exportTrace("multi_tenant_trace.json"))
        std::printf("trace with per-tenant tracks: "
                    "multi_tenant_trace.json (%zu events) — open in "
                    "ui.perfetto.dev\n",
                    platform.tracer().eventCount());
    return ok ? 0 : 1;
}
