/**
 * @file
 * Quickstart: the smallest complete ccAI program.
 *
 * Builds a ccAI-protected platform (TVM + Adaptor + PCIe-SC + xPU),
 * establishes trust (secure boot, remote attestation, key
 * negotiation), and runs one confidential round trip: upload a
 * secret, run a kernel, read the result back — all through the
 * standard ccrt API an application would use unchanged on a vanilla
 * machine.
 *
 *   $ ./quickstart
 */

#include <cstdio>

#include "ccai/platform.hh"

using namespace ccai;
namespace mm = ccai::pcie::memmap;

int
main()
{
    // 1. Build the machine. `secure = true` gives the ccAI topology:
    //    root complex <-> switch <-> PCIe-SC <-> xPU.
    Platform platform(PlatformConfig{.secure = true});

    // 2. Establish trust: secure-boot the PCIe-SC from encrypted
    //    flash, measure the TVM stack, seal the chassis, run remote
    //    attestation, and negotiate the workload keys.
    TrustReport trust = platform.establishTrust();
    if (!trust.ok()) {
        std::fprintf(stderr, "trust establishment failed: %s\n",
                     trust.failure.c_str());
        return 1;
    }
    std::printf("trust established: secure boot ok, attestation ok, "
                "chassis sealed\n");

    // 3. Run a confidential workload through the unchanged ccrt API.
    Bytes secret = {'m', 'y', ' ', 'm', 'o', 'd', 'e', 'l', ' ',
                    'w', 'e', 'i', 'g', 'h', 't', 's'};
    tvm::Runtime &rt = platform.runtime();

    bool matches = false;
    rt.memcpyH2D(mm::kXpuVram.base, secret, secret.size(), [&] {
        std::printf("uploaded %zu secret bytes (encrypted on the "
                    "bus, plaintext only inside the device)\n",
                    secret.size());
        rt.launchKernel(2 * kTicksPerMs);
        rt.memcpyD2H(mm::kXpuVram.base, secret.size(), false,
                     [&](Bytes result) {
                         matches = result == secret;
                         std::printf("result readback: %s\n",
                                     matches ? "matches (round trip ok)"
                                             : "MISMATCH");
                     });
    });

    // 4. Drive the simulation to completion.
    platform.run();

    // 5. Tear down: scrub the device and destroy the session keys.
    platform.adaptor()->endTask(/*softResetSupported=*/true);
    platform.run();
    const bool scrubbed = platform.xpu().envState().clean();
    std::printf("task ended: %s\n",
                scrubbed ? "device scrubbed, keys destroyed"
                         : "DEVICE NOT SCRUBBED");
    std::printf("simulated time: %.3f ms\n",
                ticksToSeconds(platform.system().now()) * 1e3);
    return matches && scrubbed ? 0 : 1;
}
