/**
 * @file
 * Table 1 reproduction: the packet access-control categorization.
 * Prints the permission-class -> security-action mapping and then
 * demonstrates it live by classifying a representative traffic mix
 * through the Packet Filter's default policy.
 */

#include <cstdio>

#include "backend/policy.hh"
#include "pcie/memory_map.hh"

using namespace ccai;
using namespace ccai::backend;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

int
main()
{
    std::printf("=== Table 1: Categorization of PCIe packet access "
                "control ===\n\n");
    std::printf("%-26s %s\n", "Packet Access Permission", "Actions");
    std::printf("%s\n", std::string(72, '-').c_str());
    std::printf("%-26s %s\n", "Prohibited", "(A1) Disallow");
    std::printf("%-26s %s\n", "Write-Read Protected",
                "(A2) Integrity Check (Crypt.) + En/Decryption");
    std::printf("%-26s %s\n", "Write Protected",
                "(A3) Integrity Check (Plain) + Security Verify");
    std::printf("%-26s %s\n", "Full Accessible",
                "(A4) Transparent Transmission");

    std::printf("\nLive classification of a representative traffic "
                "mix (default policy):\n\n");
    RuleTables policy = defaultPolicy(wellknown::kTvm, wellknown::kXpu,
                                      wellknown::kPcieSc);

    struct Sample
    {
        const char *what;
        Tlp tlp;
    };
    const Sample samples[] = {
        {"rogue VM -> xPU doorbell",
         Tlp::makeMemWrite(wellknown::kRogueVm,
                           mm::kXpuMmio.base + mm::xpureg::kDoorbell,
                           Bytes(8, 0))},
        {"malicious device -> bounce read",
         Tlp::makeMemRead(wellknown::kMaliciousDevice,
                          mm::kBounceH2d.base, 4096, 0)},
        {"TVM -> xPU VRAM write (data)",
         Tlp::makeMemWrite(wellknown::kTvm, mm::kXpuVram.base,
                           Bytes(256, 0))},
        {"xPU -> D2H bounce write (results)",
         Tlp::makeMemWrite(wellknown::kXpu, mm::kBounceD2h.base,
                           Bytes(256, 0))},
        {"TVM -> xPU command descriptor",
         Tlp::makeMemWrite(wellknown::kTvm,
                           mm::kXpuMmio.base + mm::xpureg::kCmdQueueBase,
                           Bytes(64, 0))},
        {"TVM -> SC rule-table config",
         Tlp::makeMemWrite(wellknown::kTvm, mm::kScRuleTable.base,
                           Bytes(64, 0))},
        {"TVM -> xPU status read",
         Tlp::makeMemRead(wellknown::kTvm,
                          mm::kXpuMmio.base + mm::xpureg::kIntStatus,
                          8, 0)},
        {"xPU -> MSI interrupt",
         Tlp::makeMessage(wellknown::kXpu, MsgCode::MsiInterrupt)},
    };

    std::printf("%-36s %-8s %s\n", "packet", "action", "permission");
    std::printf("%s\n", std::string(84, '-').c_str());
    for (const Sample &sample : samples) {
        SecurityAction action = policy.classify(sample.tlp);
        std::printf("%-36s %-8s %s\n", sample.what,
                    securityActionName(action),
                    accessPermissionName(permissionFor(action)));
    }
    return 0;
}
