/**
 * @file
 * The Packet Filter (paper §4.1): classifies every TLP traversing
 * the PCIe-SC against the L1/L2 tables and supports dynamic,
 * encrypted policy updates through a dedicated configuration space.
 *
 * A small direct-mapped rule TLB sits in front of the table walk:
 * for a structurally well-formed TLP, classification is a pure
 * function of the TLP's match header (type, requester, completer,
 * msgCode) and of which inter-boundary address intervals the
 * request's first and last byte fall into, so steady-state streaming
 * traffic — thousands of chunk TLPs walking a bounce window covered
 * by one rule span — resolves from the cache instead of re-walking
 * L1+L2 per packet. Malformed TLPs are rejected before the probe
 * (their defects live outside the key). A generation counter bumped
 * on every table change (install or authenticated config update)
 * guarantees stale entries can never classify a packet under a
 * superseded policy.
 */

#ifndef CCAI_SC_PACKET_FILTER_HH
#define CCAI_SC_PACKET_FILTER_HH

#include <array>
#include <optional>
#include <vector>

#include "backend/policy.hh"
#include "crypto/gcm.hh"
#include "obs/metric_group.hh"

namespace ccai::sc
{

/** Per-TLP-unit lookup latencies of the filter pipeline. */
inline constexpr Tick kL1LookupLatency = 16 * kTicksPerNs;
inline constexpr Tick kL2LookupLatency = 24 * kTicksPerNs;
/** Service time when the rule TLB resolves the TLP. */
inline constexpr Tick kTlbHitLatency = 2 * kTicksPerNs;

/**
 * Packet Filter with encrypted dynamic configuration.
 *
 * Policies arriving through the configuration space are AES-GCM
 * sealed under the config key (negotiated during trust
 * establishment) so that an adversary with bus access cannot inject
 * rules (§4.1 "Dynamic and secure configuration").
 */
class PacketFilter
{
  public:
    /** Direct-mapped rule-TLB size (entries). */
    static constexpr size_t kTlbEntries = 64;

    /** Install plaintext tables directly (boot-time defaults). */
    void install(const backend::RuleTables &tables);

    /** Set the key protecting configuration updates. */
    void setConfigKey(const Bytes &key);

    /**
     * Apply an encrypted policy blob from the configuration space.
     * @return false when authentication fails (injected config).
     * A rejected blob leaves the tables — and the TLB generation —
     * untouched; only an authenticated update invalidates the cache.
     */
    bool applyEncryptedConfig(const Bytes &iv, const Bytes &ciphertext,
                              const Bytes &tag);

    /** Classify one TLP (TLB probe, walk + fill on miss). */
    backend::SecurityAction classify(const pcie::Tlp &tlp);

    /**
     * classify() with the full verdict: action, block reason and
     * deciding rule indices. Structurally malformed TLPs
     * (pcie::TlpAnomaly) are rejected here, BEFORE the TLB probe:
     * malformed-ness lives in fmt/length/payload fields the TLB key
     * does not cover, so letting such a packet share a cache line
     * with its well-formed twin would classify it under the twin's
     * verdict. Rejection never fills the TLB.
     */
    backend::FilterVerdict classifyEx(const pcie::Tlp &tlp);

    /**
     * Filter service time for a TLP. The match pipeline inspects
     * headers in parallel with payload streaming, so a burst TLP
     * (payload > 256 B, standing for several wire packets) pays the
     * pipeline fill once for the whole burst — the first wire unit
     * covers l1+l2 (or the TLB-hit latency) and the trailing units
     * ride the already-resolved verdict. unitsClassified() exposes
     * the wire-unit count so tests can check the amortization.
     *
     * Const peek: reports what classify() is about to experience
     * without touching TLB state or counters.
     */
    Tick lookupDelay(const pcie::Tlp &tlp) const;

    const backend::RuleTables &tables() const { return tables_; }
    std::uint64_t classified() const { return classified_.value(); }
    std::uint64_t blocked() const { return blocked_.value(); }
    std::uint64_t rejectedConfigs() const
    {
        return rejectedConfigs_.value();
    }

    /** TLB probes resolved from the cache. */
    std::uint64_t tlbHits() const { return tlbHits_.value(); }
    /** TLB probes that fell through to the L1/L2 walk. */
    std::uint64_t tlbMisses() const { return tlbMisses_.value(); }
    /** Hit fraction over all classify() calls (0 when none). */
    double tlbHitRate() const;
    /** Wire-level TLP units classified (burst = several units). */
    std::uint64_t unitsClassified() const
    {
        return unitsClassified_.value();
    }

    /** Packets blocked for one specific reason. */
    std::uint64_t
    blockedFor(backend::BlockReason reason) const
    {
        return blockedByReason_[static_cast<size_t>(reason)].value();
    }
    /** Monotonic table version; bumped per successful update. */
    std::uint32_t policyGeneration() const { return generation_; }

  private:
    /** One cached classification. */
    struct TlbEntry
    {
        std::uint64_t key = 0;
        std::uint32_t generation = 0;
        backend::FilterVerdict verdict;
        bool valid = false;
    };

    /** Rebuild the sorted rule address boundaries after a table
     * change; classification is address-invariant between them. */
    void rebuildBoundaries();
    std::uint64_t tlbKey(const pcie::Tlp &tlp) const;
    static size_t tlbIndex(std::uint64_t key);

    backend::RuleTables tables_;
    std::optional<crypto::AesGcm> configKey_;
    obs::Counter classified_;
    obs::Counter blocked_;
    obs::Counter rejectedConfigs_;

    std::array<TlbEntry, kTlbEntries> tlb_{};
    /** Sorted, deduplicated rule address edges (addrLo/addrHi). */
    std::vector<Addr> boundaries_;
    std::uint32_t generation_ = 1;
    obs::Counter tlbHits_;
    obs::Counter tlbMisses_;
    obs::Counter unitsClassified_;
    /** Indexed by BlockReason; feeds obs + fuzzer coverage. */
    std::array<obs::Counter, backend::kBlockReasonCount> blockedByReason_{};
};

} // namespace ccai::sc

#endif // CCAI_SC_PACKET_FILTER_HH
