/**
 * @file
 * The protection designs the simulator compares, as data. Each Kind
 * has a cost model and a TCB/compat descriptor:
 *
 *   - CcaiSc is the paper's interposed PCIe-SC. Platform builds it
 *     packet by packet, so its cost model never reaches the packet
 *     path; its entries feed the serving roofline and the
 *     comparison tables only.
 *   - H100Cc (device-side GCM with encrypted bounce buffers) and
 *     Acai (TEE extended to the accelerator over plain PCIe) are
 *     rivals that put no hardware on the bus. A rival platform
 *     builds the vanilla topology and hands its CostModel to
 *     tvm::Runtime and xpu::XpuDevice, which charge it per transfer,
 *     request and kernel.
 */

#ifndef CCAI_BACKEND_PROTECTION_BACKEND_HH
#define CCAI_BACKEND_PROTECTION_BACKEND_HH

#include <optional>
#include <string_view>

#include "common/types.hh"

namespace ccai::backend
{

/** Which protection design guards the secure path. */
enum class Kind : std::uint8_t
{
    CcaiSc = 0, ///< interposed PCIe-SC (the paper's design)
    H100Cc = 1, ///< device-side GCM + encrypted bounce buffers
    Acai = 2,   ///< TEE extended to the accelerator, plain PCIe
};

/** Stable lowercase name: "ccai" / "h100cc" / "acai". */
const char *kindName(Kind kind);

/** Parse a --backend flag value; nullopt on unknown names. */
std::optional<Kind> parseKind(std::string_view name);

/** All backend kinds, in Kind order (sweep helpers). */
inline constexpr Kind kAllKinds[] = {Kind::CcaiSc, Kind::H100Cc,
                                     Kind::Acai};

/**
 * What a backend trusts and what it changes — the compat/TCB row of
 * the cross-backend comparison (paper Table 4 vs. rivals).
 */
struct TcbDescriptor
{
    const char *trustAnchor = "";
    bool interposer = false;   ///< hardware on the PCIe path
    bool deviceCrypto = false; ///< crypto engines inside the xPU
    bool teeExtension = false; ///< host TEE spans the accelerator
    bool packetFilter = false; ///< per-TLP policy enforced on wire
    bool perTlpCrypto = false; ///< wire traffic sealed per packet
    /** Works with an unmodified (legacy) accelerator? */
    bool legacyDeviceOk = false;
    /** Works with an unmodified driver/framework stack? */
    bool stackUnmodified = false;
    /** Works with an unmodified application? */
    bool appUnmodified = false;
    /** Rough added trusted-code size (KLoC). */
    double addedTcbKloc = 0.0;
};

/**
 * Per-transfer cost model. Every rate/latency of 0 means "this
 * backend has no such cost", so the matching delay is 0.
 */
struct CostModel
{
    /** Host CPU seal throughput for H2D payloads (B/s; 0 = none). */
    double hostSealBytesPerSec = 0.0;
    /** Host CPU open throughput for D2H payloads (B/s; 0 = none). */
    double hostOpenBytesPerSec = 0.0;
    /** Device-side crypto throughput on DMA payloads (0 = none). */
    double deviceCryptoBytesPerSec = 0.0;
    /** Fixed cost per memcpy piece (bounce mgmt, world switch). */
    Tick perTransferSetup = 0;
    /** Fixed cost per inference request (session/key refresh). */
    Tick perRequestSetup = 0;
    /** One-time session establishment (attestation) cost. */
    Tick sessionEstablishTicks = 0;
    /** Kernel-compute inflation factor (1.0 = none). */
    double computeOverhead = 1.0;

    /** Host-side seal time for @p bytes of H2D payload (0 = free). */
    Tick hostSealDelay(std::uint64_t bytes) const;
    /** Host-side open time for @p bytes of D2H payload. */
    Tick hostOpenDelay(std::uint64_t bytes) const;
    /** Device-side crypto time for @p bytes of DMA payload. */
    Tick deviceCryptoDelay(std::uint64_t bytes) const;
};

/** Canonical cost model of each backend kind. */
CostModel costModelFor(Kind kind);

/** Canonical TCB/compat descriptor of each backend kind. */
TcbDescriptor tcbFor(Kind kind);

} // namespace ccai::backend

#endif // CCAI_BACKEND_PROTECTION_BACKEND_HH
