/**
 * @file
 * L1/L2 rule tables of the Packet Filter (paper Figure 5) — the
 * protection-policy language the PCIe-SC enforces.
 *
 * The L1 table performs masked access control: each rule selects
 * which header attributes to compare (the Mask), and either forwards
 * a matching packet to the L2 table or executes A1 (disallow). The
 * final L1 rule has an empty mask and acts as the deny-all default.
 *
 * The L2 table assigns the security action for authorized packets
 * from the combination of packet type, interacting parties, and
 * address-space sensitivity.
 *
 * Rules serialize to the 32-byte policy format the prototype's
 * Adaptor writes into the PCIe-SC's 4 KiB upstream BAR. Only the
 * PCIe-SC enforces a policy; the rival designs (H100-CC, ACAI) have
 * no packet filter and install none.
 */

#ifndef CCAI_BACKEND_POLICY_HH
#define CCAI_BACKEND_POLICY_HH

#include <optional>
#include <string>
#include <vector>

#include "backend/security_action.hh"
#include "pcie/tlp.hh"

namespace ccai::backend
{

/** Which L1 match fields are active (the Mask column). */
enum L1MaskBits : std::uint16_t
{
    kMatchType = 1 << 0,
    kMatchRequester = 1 << 1,
    kMatchCompleter = 1 << 2,
    kMatchAddress = 1 << 3,
};

/** Disposition of an L1 match. */
enum class L1Verdict : std::uint8_t
{
    ToL2Table = 0,
    ExecuteA1 = 1,
};

/** One L1 rule (Figure 5, left table). */
struct L1Rule
{
    std::uint16_t mask = 0; ///< active-field bits; 0 = match all
    pcie::TlpType type = pcie::TlpType::MemRead;
    pcie::Bdf requester;
    pcie::Bdf completer;
    Addr addrLo = 0;
    Addr addrHi = 0;
    L1Verdict verdict = L1Verdict::ExecuteA1;

    bool matches(const pcie::Tlp &tlp) const;
    Bytes serialize() const;
    static L1Rule deserialize(const Bytes &raw);
};

/** One L2 rule (Figure 5, right table). */
struct L2Rule
{
    pcie::TlpType type = pcie::TlpType::MemWrite;
    /** Match any requester when true. */
    bool anyRequester = false;
    pcie::Bdf requester;
    /** Match any completer/destination when true. */
    bool anyCompleter = false;
    pcie::Bdf completer;
    Addr addrLo = 0;
    Addr addrHi = 0; ///< exclusive; 0 means "any address"
    /**
     * Message-code selector for TlpType::Message rules, enabling
     * vendor-specific policies for customized packets (paper §9):
     * e.g. pass MSIs transparently but integrity-protect
     * vendor-defined management messages.
     */
    bool anyMsgCode = true;
    pcie::MsgCode msgCode = pcie::MsgCode::MsiInterrupt;
    /**
     * Register-window semantics: match on the start address alone.
     * MMIO register files (the PCIe-SC's own BAR, the xPU command
     * space) stream arbitrarily long payloads through one register
     * address — a batched chunk-record write is 64 KiB at the
     * kParamWindow offset — so span containment is meaningless
     * there. DMA windows (bounce/metadata/VRAM/host DRAM) leave
     * this false and get full-extent containment: a request that
     * starts inside the window but runs past its end matches
     * nothing and falls through to the deny default (the
     * boundary-straddle probe, see attack::HostileEndpoint).
     */
    bool registerWindow = false;
    SecurityAction action = SecurityAction::A1_Disallow;

    bool matches(const pcie::Tlp &tlp) const;
    Bytes serialize() const;
    static L2Rule deserialize(const Bytes &raw);
};

/** Serialized rule size (paper: 32 bytes per policy). */
constexpr size_t kRuleBytes = 32;

/** "No rule" marker for FilterVerdict rule indices. */
constexpr std::uint16_t kNoRuleIndex = 0xffff;

/**
 * Full classification outcome: the action plus why and which rules
 * decided it. The reason taxonomy feeds the per-reason blocked
 * counters (obs) and the fuzzer's coverage signal; the rule indices
 * make two verdicts distinguishable even when action and reason
 * coincide.
 */
struct FilterVerdict
{
    SecurityAction action = SecurityAction::A1_Disallow;
    BlockReason reason = BlockReason::None;
    std::uint16_t l1Index = kNoRuleIndex; ///< matching L1 rule
    std::uint16_t l2Index = kNoRuleIndex; ///< matching L2 rule

    bool
    blocked() const
    {
        return action == SecurityAction::A1_Disallow;
    }
};

/**
 * Bytes a request touches past tlp.address: the span the address-
 * window comparison must contain. At least 1 so zero-length probes
 * still need their start address inside a window.
 */
std::uint64_t requestExtent(const pcie::Tlp &tlp);

/**
 * The two tables plus the lookup that drives the Packet Filter.
 * Lookup order is first-match within L1, then first-match within L2;
 * packets matching nothing are treated as Prohibited (deny default).
 */
class RuleTables
{
  public:
    void addL1(const L1Rule &rule) { l1_.push_back(rule); }
    void addL2(const L2Rule &rule) { l2_.push_back(rule); }
    void clear();

    /**
     * The shape every installed policy must have: it authorizes
     * something (at least one L1 and one L2 rule) and ends in the
     * mask-0 ExecuteA1 deny default, so unmatched traffic cannot
     * fall through.
     */
    bool wellFormed() const;

    /** Full classification: L1 then L2. */
    SecurityAction classify(const pcie::Tlp &tlp) const;

    /**
     * classify() plus the why: which table/rule decided, and the
     * BlockReason for denies. Structural (malformed-header) reasons
     * are the PacketFilter's job — this walk assumes a well-formed
     * TLP and reports rule-table outcomes only.
     */
    FilterVerdict classifyEx(const pcie::Tlp &tlp) const;

    size_t l1Size() const { return l1_.size(); }
    size_t l2Size() const { return l2_.size(); }
    const std::vector<L1Rule> &l1() const { return l1_; }
    const std::vector<L2Rule> &l2() const { return l2_; }

    /** Serialize both tables to the 32-byte-per-rule blob. */
    Bytes serialize() const;
    static RuleTables deserialize(const Bytes &blob);

  private:
    std::vector<L1Rule> l1_;
    std::vector<L2Rule> l2_;
};

/**
 * The default policy for one protected xPU session: authorizes the
 * TVM and the xPU, classifies bounce-buffer traffic as Write-Read
 * Protected, command traffic as Write Protected, interrupt/status
 * traffic as Full Accessible, and denies everything else.
 */
RuleTables defaultPolicy(pcie::Bdf tvm, pcie::Bdf xpu, pcie::Bdf sc);

/**
 * Multi-tenant variant (paper §9): authorizes several TVMs (MIG-style
 * virtual-function tenants distinguished by requester ID); every
 * tenant gets the same per-class treatment, while isolation between
 * tenants is enforced by the PCIe-SC's per-tenant sessions.
 */
RuleTables defaultPolicy(const std::vector<pcie::Bdf> &tvms,
                         pcie::Bdf xpu, pcie::Bdf sc);

} // namespace ccai::backend

#endif // CCAI_BACKEND_POLICY_HH
