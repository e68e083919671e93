/**
 * @file
 * Command descriptors the driver submits to an xPU's command queue.
 * A descriptor is serialized into a 64-byte MMIO write (the paper's
 * MWr command packets) targeting the device's command-ring window.
 */

#ifndef CCAI_XPU_XPU_COMMAND_HH
#define CCAI_XPU_XPU_COMMAND_HH

#include <cstdint>
#include <optional>

#include "common/types.hh"

namespace ccai::xpu
{

/** Operation requested from the device. */
enum class XpuCmdType : std::uint8_t
{
    LaunchKernel, ///< run a compute kernel for a modelled duration
    DmaFromHost,  ///< device pulls data from host memory (H2D)
    DmaToHost,    ///< device pushes data to host memory (D2H)
    Fence,        ///< raise an MSI when all prior commands retired
    MemSet,       ///< clear a VRAM range (the last type)
};

/** Serialized size of a command descriptor on the wire. */
constexpr std::uint32_t kXpuCommandBytes = 64;

/** One command-ring entry. */
struct XpuCommand
{
    XpuCmdType type = XpuCmdType::Fence;
    std::uint64_t id = 0;      ///< driver-assigned command id
    Tick duration = 0;         ///< kernel duration (LaunchKernel)
    Addr hostAddr = 0;         ///< host side of a DMA
    Addr devAddr = 0;          ///< device side of a DMA / memset base
    std::uint64_t length = 0;  ///< DMA / memset length in bytes
    /** True when DMA payloads are modelled by length only. */
    bool synthetic = false;
    /**
     * Routing ID the completion MSI targets (multi-tenant xPUs
     * deliver interrupts to the submitting tenant's vector). 0 =
     * legacy implicit routing to the root.
     */
    std::uint16_t msiTarget = 0;
    /**
     * DMA burst granularity in bytes; 0 selects the device default.
     * Secure transfers set this to the Adaptor's chunk size so each
     * device burst is one A2 chunk record — the PCIe-SC's data
     * engines crypt whole records, so bursts must not straddle them.
     */
    std::uint32_t burstBytes = 0;

    /** Serialize to the 64-byte wire format. */
    Bytes serialize() const;

    /**
     * Parse from the wire format. The bytes come from the host, so a
     * descriptor that is not kXpuCommandBytes long or whose type byte
     * names no XpuCmdType yields nullopt.
     */
    static std::optional<XpuCommand> deserialize(const Bytes &raw);
};

} // namespace ccai::xpu

#endif // CCAI_XPU_XPU_COMMAND_HH
