/**
 * @file
 * Transaction Layer Packet (TLP) model.
 *
 * Mirrors the PCIe Base Specification header fields ccAI's Packet
 * Filter inspects: format, type, requester/completer IDs, tag,
 * length, and address. Payloads may carry real bytes (functional
 * tests and secure data paths) or be synthetic length-only buffers
 * (bulk benchmark traffic), and a burst TLP may represent several
 * wire-level packets via unitCount() so large DMA transfers do not
 * need millions of event-queue entries while keeping the timing and
 * per-packet cost arithmetic exact.
 */

#ifndef CCAI_PCIE_TLP_HH
#define CCAI_PCIE_TLP_HH

#include <array>
#include <memory>
#include <string>

#include "common/types.hh"
#include "pcie/bdf.hh"

namespace ccai::pcie
{

/** TLP format field (header size and data presence). */
enum class TlpFmt : std::uint8_t
{
    ThreeDwNoData = 0x0, ///< 3-DW header, no payload (MRd 32-bit)
    FourDwNoData = 0x1,  ///< 4-DW header, no payload (MRd 64-bit)
    ThreeDwData = 0x2,   ///< 3-DW header + payload (MWr 32-bit, CplD)
    FourDwData = 0x3,    ///< 4-DW header + payload (MWr 64-bit)
};

/** TLP type field (subset used in the simulation). */
enum class TlpType : std::uint8_t
{
    MemRead,    ///< MRd — DMA/MMIO read request
    MemWrite,   ///< MWr — DMA/MMIO write (posted)
    Completion, ///< Cpl/CplD — read completion
    CfgRead,    ///< CfgRd0 — configuration read
    CfgWrite,   ///< CfgWr0 — configuration write
    Message,    ///< Msg — interrupts, power management
};

/** Completion status codes. */
enum class CplStatus : std::uint8_t
{
    SuccessfulCompletion = 0,
    UnsupportedRequest = 1,
    CompleterAbort = 4,
};

/** Message codes for TlpType::Message. */
enum class MsgCode : std::uint8_t
{
    MsiInterrupt,
    PowerManagement,
    VendorDefined,
    /** End-to-end transport ACK/NAK (see pcie/transport.hh). */
    TransportAck,
};

/** Maximum payload per wire-level TLP (bytes). */
constexpr std::uint32_t kMaxPayloadBytes = 256;

/**
 * Upper bound on any single TLP's request/payload length. Generous
 * enough for the largest modelled burst (a transfer piece filling a
 * whole 512 MiB bounce window travels as ONE synthetic burst TLP),
 * but small enough that length arithmetic can never wrap 32 bits
 * and a hostile length field (the classic near-UINT32_MAX wrap
 * probe) is rejected as malformed.
 */
constexpr std::uint32_t kMaxTlpLengthBytes = 1024u * 1024 * 1024;

/**
 * Structural header defects a hostile endpoint can encode but a
 * conforming device never produces (paper §4.1's "illegal packets").
 * The Packet Filter rejects these before any rule walk; the fuzzer
 * uses them as mutation targets.
 */
enum class TlpAnomaly : std::uint8_t
{
    None = 0,
    /** Payload presence contradicts the fmt data bit (e.g. a
     * ThreeDwNoData TLP arriving with payload bytes attached). */
    PayloadFmtMismatch,
    /** Header format impossible for the type (data-bearing MRd,
     * no-data MWr, 4-DW completion/config, 3-DW message). */
    FmtForType,
    /** Addressed request with zero length. */
    LengthZero,
    /** Length beyond kMaxTlpLengthBytes (the 1024-DW-wrap class). */
    LengthOverflow,
    /** Real payload size disagrees with the header length field. */
    LengthMismatch,
    /** 4-DW header carrying a 32-bit address, or a 3-DW header with
     * an address that needs 64 bits. */
    AddrWidthMismatch,
};

/** Human-readable anomaly name (stable; used in corpus headers). */
const char *tlpAnomalyName(TlpAnomaly anomaly);

/**
 * One simulated TLP. A "burst" TLP (payloadBytes > kMaxPayloadBytes)
 * stands for ceil(payloadBytes / kMaxPayloadBytes) wire packets.
 */
struct Tlp
{
    /*
     * Copies route payloads >= 4 KiB through BufferPool::global()
     * and destruction retires them there, so the A2 hot path (the
     * PCIe-SC's crypt-on-copy, retransmit queues, fault-injector
     * duplicates) recycles payload storage instead of hitting the
     * allocator once per packet. Moves transfer the pooled buffer.
     */
    Tlp() = default;
    Tlp(const Tlp &other);
    Tlp &operator=(const Tlp &other);
    Tlp(Tlp &&) noexcept = default;
    Tlp &operator=(Tlp &&) noexcept = default;
    ~Tlp();

    // ---- header fields the Packet Filter matches on ----
    TlpFmt fmt = TlpFmt::ThreeDwNoData;
    TlpType type = TlpType::MemRead;
    Bdf requester;        ///< requester ID
    Bdf completer;        ///< completer ID (completions/config)
    std::uint8_t tag = 0; ///< transaction tag for completion matching
    Addr address = 0;     ///< target address (mem/cfg requests)
    std::uint32_t lengthBytes = 0; ///< request/payload length in bytes
    CplStatus cplStatus = CplStatus::SuccessfulCompletion;
    MsgCode msgCode = MsgCode::MsiInterrupt;

    // ---- payload ----
    /** Real payload bytes; empty when synthetic. */
    Bytes data;
    /** True when the payload is modelled by length only. */
    bool synthetic = false;

    // ---- ccAI metadata ----
    /** Set by the PCIe-SC when payload is ciphertext (A2 path). */
    bool encrypted = false;
    /** Sequence number stamped by the Adaptor/SC for replay defense. */
    std::uint64_t seqNo = 0;
    /** Associated auth-tag packet ID (0 = none). */
    std::uint64_t authTagId = 0;
    /**
     * End-to-end ARQ: the receiver must acknowledge seqNo on the
     * given channel and deliver in order (see pcie/transport.hh).
     * Both fields are covered by serializeHeader() so a tampered
     * flag fails the MAC rather than changing transport semantics.
     */
    bool ackRequired = false;
    std::uint16_t txChannel = 0;
    /**
     * Inline integrity MAC carried in a vendor-defined TLP prefix
     * (the paper's sign-based integrity check for A3 packets).
     */
    Bytes integrityTag;

    /** Payload length in bytes (real or synthetic). */
    std::uint32_t
    payloadBytes() const
    {
        return synthetic ? lengthBytes
                         : static_cast<std::uint32_t>(data.size());
    }

    /** True when this TLP carries data on the wire. */
    bool
    hasData() const
    {
        return fmt == TlpFmt::ThreeDwData || fmt == TlpFmt::FourDwData;
    }

    /** Header size on the wire, in bytes. */
    std::uint32_t
    headerBytes() const
    {
        return (fmt == TlpFmt::FourDwNoData || fmt == TlpFmt::FourDwData)
                   ? 16
                   : 12;
    }

    /** Number of wire-level TLPs this simulated packet represents. */
    std::uint32_t
    unitCount() const
    {
        // 64-bit ceil-divide: a hostile lengthBytes near UINT32_MAX
        // must not wrap to a unit count of 0 (fuzzer finding; see
        // tests/attack/corpus/malformed-length-wrap.tlp).
        std::uint64_t payload = hasData() ? payloadBytes() : 0;
        if (payload <= kMaxPayloadBytes)
            return 1;
        return static_cast<std::uint32_t>(
            (payload + kMaxPayloadBytes - 1) / kMaxPayloadBytes);
    }

    /**
     * Structural header validation. TLPs built by the make*
     * constructors always return None; raw TLPs from a hostile
     * endpoint may not. The Packet Filter consults this before its
     * rule walk and maps any defect to A1 (see
     * sc::PacketFilter::classifyEx).
     */
    TlpAnomaly headerAnomaly() const;

    /** Serialize header fields for integrity binding (AAD). */
    std::array<std::uint8_t, 32> serializeHeader() const;

    std::string toString() const;

    // ---- constructors for the common shapes ----
    static Tlp makeMemRead(Bdf requester, Addr addr,
                           std::uint32_t length, std::uint8_t tag);
    static Tlp makeMemWrite(Bdf requester, Addr addr, Bytes payload);
    static Tlp makeMemWriteSynthetic(Bdf requester, Addr addr,
                                     std::uint32_t length);
    static Tlp makeCompletion(Bdf completer, Bdf requester,
                              std::uint8_t tag, Bytes payload,
                              CplStatus status =
                                  CplStatus::SuccessfulCompletion);
    static Tlp makeCompletionSynthetic(Bdf completer, Bdf requester,
                                       std::uint8_t tag,
                                       std::uint32_t length);
    static Tlp makeMessage(Bdf requester, MsgCode code);
    /** Vendor-defined message carrying a management payload (§9). */
    static Tlp makeVendorMessage(Bdf requester, Bytes payload);
    static Tlp makeCfgRead(Bdf requester, Bdf target, Addr offset,
                           std::uint8_t tag);
    static Tlp makeCfgWrite(Bdf requester, Bdf target, Addr offset,
                            Bytes payload);
};

using TlpPtr = std::shared_ptr<Tlp>;

/** Human-readable type name. */
const char *tlpTypeName(TlpType type);

} // namespace ccai::pcie

#endif // CCAI_PCIE_TLP_HH
