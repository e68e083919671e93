/**
 * @file
 * Fixed physical memory map of the simulated platform. Keeping the
 * layout in one header lets the Packet Filter rules, the Adaptor and
 * the tests agree on which address windows are sensitive.
 */

#ifndef CCAI_PCIE_MEMORY_MAP_HH
#define CCAI_PCIE_MEMORY_MAP_HH

#include "common/types.hh"
#include "pcie/switch.hh"

namespace ccai::pcie::memmap
{

// ---- Host DRAM ----
// Classic PC layout: low DRAM below the 32-bit PCIe hole (device
// BARs live at 0xc000'0000..0x1'0000'0000), high DRAM remapped
// above 16 GiB.
/** Host DRAM below the PCIe hole. */
constexpr AddrRange kHostDramLow{0x0000'0000, 3ull * kGiB};
/** Host DRAM above the PCIe hole (bounce + metadata live here). */
constexpr AddrRange kHostDramHigh{0x4'0000'0000, 16ull * kGiB};
/** TVM private (TEE-protected) region inside low host DRAM. */
constexpr AddrRange kTvmPrivate{0x1000'0000, 2ull * kGiB};
/** Shared bounce buffer for encrypted DMA payloads (H2D direction). */
constexpr AddrRange kBounceH2d{0x4'0000'0000, 512ull * kMiB};
/** Shared bounce buffer for encrypted DMA payloads (D2H direction). */
constexpr AddrRange kBounceD2h{0x4'2000'0000, 512ull * kMiB};
/** Metadata batch buffer the PCIe-SC fills for the Adaptor (§5). */
constexpr AddrRange kMetadataBuffer{0x4'4000'0000, 16ull * kMiB};

// ---- PCIe-SC BARs ----
/** 64 KiB MMIO window the Adaptor uses to talk to the PCIe-SC. */
constexpr AddrRange kScMmio{0xd000'0000, 64 * kKiB};
/** 4 KiB upstream BAR holding the encrypted L1/L2 rule tables. */
constexpr AddrRange kScRuleTable{0xd001'0000, 4 * kKiB};

// ---- xPU BARs ----
/** xPU control registers (doorbells, status, page-table base). */
constexpr AddrRange kXpuMmio{0xe000'0000, 16 * kMiB};
/** xPU VRAM aperture for direct host access. */
constexpr AddrRange kXpuVram{0x10'0000'0000, 96ull * kGiB};

// ---- xPU MMIO register offsets (within kXpuMmio) ----
namespace xpureg
{
constexpr Addr kDoorbell = 0x0000;       ///< command-queue doorbell
constexpr Addr kStatus = 0x0008;         ///< device status
constexpr Addr kIntStatus = 0x0010;      ///< interrupt status
constexpr Addr kPageTableBase = 0x0018;  ///< device MMU root pointer
constexpr Addr kDmaSrc = 0x0020;         ///< DMA source address
constexpr Addr kDmaDst = 0x0028;         ///< DMA destination address
constexpr Addr kDmaLen = 0x0030;         ///< DMA length
constexpr Addr kDmaKick = 0x0038;        ///< DMA start trigger
constexpr Addr kReset = 0x0040;          ///< software reset
constexpr Addr kCmdQueueBase = 0x1000;   ///< command ring window
} // namespace xpureg

// ---- PCIe-SC MMIO register offsets (within kScMmio) ----
namespace screg
{
constexpr Addr kControl = 0x0000;        ///< engine enable bits
constexpr Addr kStatus = 0x0008;         ///< SC status
constexpr Addr kMetaDoorbell = 0x0010;   ///< request metadata batch
constexpr Addr kNotifyTransfer = 0x0018; ///< data-ready doorbell (§5)
constexpr Addr kEnvGuardCtl = 0x0020;    ///< environment guard control
constexpr Addr kKeySlot = 0x0100;        ///< session key slot window
constexpr Addr kIvSlot = 0x0140;         ///< IV slot window
constexpr Addr kRecordCount = 0x0180;    ///< pending D2H record count
constexpr Addr kRecordAck = 0x0188;      ///< consume per-record reads
constexpr Addr kEndTask = 0x0190;        ///< task teardown doorbell
constexpr Addr kChunkRetry = 0x0198;     ///< re-request a D2H chunk
constexpr Addr kHeartbeat = 0x01a0;      ///< watchdog liveness read
constexpr Addr kRingHead = 0x01a8;       ///< consumed D2H ring index
constexpr Addr kRuleWindow = 0x1000;     ///< rule staging window
constexpr Addr kParamWindow = 0x2000;    ///< H2D chunk-record window
constexpr Addr kRecordWindow = 0x3000;   ///< per-record MMIO reads

/** kControl bit: the controller's engines are enabled. */
constexpr std::uint64_t kControlEnable = 1u << 0;
/**
 * kControl bit: the tenant collects D2H records from the completion
 * ring (§5 I/O-read optimization); clear, it reads them one by one
 * through kRecordWindow.
 */
constexpr std::uint64_t kControlRingMode = 1u << 1;
/** 64-byte records the per-record window holds before the BAR ends. */
constexpr std::uint64_t kRecordWindowSlots =
    (kScMmio.size - kRecordWindow) / 64;
} // namespace screg

// ---- D2H completion ring layout (inside a tenant's metadata
// window) ----
// The PCIe-SC is the single producer: it DMA-writes each finished
// D2H chunk record into the next slot, then advances the tail word;
// both writes ride the same ordered ARQ channel, so a tail value is
// never visible before its records. The Adaptor is the single
// consumer: it reads the tail and the slots straight out of pinned
// host memory (no MMIO round trip) and posts its consumed index via
// the posted screg::kRingHead write, which is the producer's
// backpressure signal.
namespace metaring
{
/** Little-endian produced-count word the producer advances last. */
constexpr std::uint64_t kTailOffset = 0;
/** Slots start one cache line in, clear of the tail word. */
constexpr std::uint64_t kSlotsOffset = 64;
/** One serialized chunk record per slot (ChunkRecord::kWireBytes). */
constexpr std::uint64_t kSlotStride = 64;

/** Ring capacity for a metadata window of @p windowSize bytes. */
constexpr std::uint64_t
slotCount(std::uint64_t windowSize)
{
    return (windowSize - kSlotsOffset) / kSlotStride;
}

/** Byte offset of the slot for absolute record index @p idx. */
constexpr std::uint64_t
slotOffset(std::uint64_t idx, std::uint64_t nslots)
{
    return kSlotsOffset + (idx % nslots) * kSlotStride;
}
} // namespace metaring

} // namespace ccai::pcie::memmap

#endif // CCAI_PCIE_MEMORY_MAP_HH
