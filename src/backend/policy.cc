#include "backend/policy.hh"

#include "common/bytes_util.hh"
#include "common/logging.hh"
#include "pcie/memory_map.hh"

namespace ccai::backend
{

namespace mm = pcie::memmap;

const char *
securityActionName(SecurityAction action)
{
    switch (action) {
      case SecurityAction::A1_Disallow:
        return "A1:Disallow";
      case SecurityAction::A2_CryptIntegrity:
        return "A2:Crypt+Integrity";
      case SecurityAction::A3_PlainIntegrity:
        return "A3:PlainIntegrity+Verify";
      case SecurityAction::A4_Transparent:
        return "A4:Transparent";
    }
    return "?";
}

const char *
accessPermissionName(AccessPermission perm)
{
    switch (perm) {
      case AccessPermission::Prohibited:
        return "Prohibited";
      case AccessPermission::WriteReadProtected:
        return "Write-Read Protected";
      case AccessPermission::WriteProtected:
        return "Write Protected";
      case AccessPermission::FullAccessible:
        return "Full Accessible";
    }
    return "?";
}

std::uint64_t
requestExtent(const pcie::Tlp &tlp)
{
    std::uint64_t bytes = 0;
    switch (tlp.type) {
      case pcie::TlpType::MemRead:
      case pcie::TlpType::CfgRead:
        bytes = tlp.lengthBytes;
        break;
      case pcie::TlpType::MemWrite:
      case pcie::TlpType::CfgWrite:
        bytes = tlp.payloadBytes();
        break;
      default:
        break;
    }
    return bytes ? bytes : 1;
}

namespace
{

/**
 * Window containment for the WHOLE request, not just its first byte:
 * a read that starts inside an allowed window but runs past its end
 * (the boundary-straddle DMA probe) must not match the window rule
 * and instead falls through to the deny rules. Overflow-safe: the
 * extent comparison subtracts on the window side.
 */
bool
windowContains(Addr addrLo, Addr addrHi, const pcie::Tlp &tlp)
{
    if (tlp.address < addrLo || tlp.address >= addrHi)
        return false;
    return requestExtent(tlp) <= addrHi - tlp.address;
}

} // namespace

const char *
blockReasonName(BlockReason reason)
{
    switch (reason) {
      case BlockReason::None:
        return "none";
      case BlockReason::MalformedPayload:
        return "malformed_payload";
      case BlockReason::MalformedFmt:
        return "malformed_fmt";
      case BlockReason::MalformedLength:
        return "malformed_length";
      case BlockReason::MalformedAddress:
        return "malformed_address";
      case BlockReason::L1DenyRule:
        return "l1_deny_rule";
      case BlockReason::L1DenyDefault:
        return "l1_deny_default";
      case BlockReason::L1NoMatch:
        return "l1_no_match";
      case BlockReason::L2DenyRule:
        return "l2_deny_rule";
      case BlockReason::L2NoMatch:
        return "l2_no_match";
    }
    return "?";
}

bool
L1Rule::matches(const pcie::Tlp &tlp) const
{
    if ((mask & kMatchType) && tlp.type != type)
        return false;
    if ((mask & kMatchRequester) && tlp.requester != requester)
        return false;
    if ((mask & kMatchCompleter) && tlp.completer != completer)
        return false;
    if (mask & kMatchAddress) {
        if (!windowContains(addrLo, addrHi, tlp))
            return false;
    }
    return true;
}

Bytes
L1Rule::serialize() const
{
    Bytes out(kRuleBytes, 0);
    out[0] = 1; // table id
    out[1] = static_cast<std::uint8_t>(mask >> 8);
    out[2] = static_cast<std::uint8_t>(mask);
    out[3] = static_cast<std::uint8_t>(type);
    out[4] = static_cast<std::uint8_t>(requester.raw() >> 8);
    out[5] = static_cast<std::uint8_t>(requester.raw());
    out[6] = static_cast<std::uint8_t>(completer.raw() >> 8);
    out[7] = static_cast<std::uint8_t>(completer.raw());
    storeLe64(out.data() + 8, addrLo);
    storeLe64(out.data() + 16, addrHi);
    out[24] = static_cast<std::uint8_t>(verdict);
    return out;
}

L1Rule
L1Rule::deserialize(const Bytes &raw)
{
    if (raw.size() != kRuleBytes || raw[0] != 1)
        fatal("L1Rule::deserialize: malformed rule");
    L1Rule r;
    r.mask = static_cast<std::uint16_t>((raw[1] << 8) | raw[2]);
    r.type = static_cast<pcie::TlpType>(raw[3]);
    r.requester = pcie::Bdf::fromRaw(
        static_cast<std::uint16_t>((raw[4] << 8) | raw[5]));
    r.completer = pcie::Bdf::fromRaw(
        static_cast<std::uint16_t>((raw[6] << 8) | raw[7]));
    r.addrLo = loadLe64(raw.data() + 8);
    r.addrHi = loadLe64(raw.data() + 16);
    r.verdict = static_cast<L1Verdict>(raw[24]);
    return r;
}

bool
L2Rule::matches(const pcie::Tlp &tlp) const
{
    if (tlp.type != type)
        return false;
    if (!anyRequester && tlp.requester != requester)
        return false;
    if (!anyCompleter && tlp.completer != completer)
        return false;
    if (type == pcie::TlpType::Message && !anyMsgCode &&
        tlp.msgCode != msgCode)
        return false;
    if (addrHi > 0) {
        // Address-window rules only apply to addressed TLPs.
        switch (tlp.type) {
          case pcie::TlpType::MemRead:
          case pcie::TlpType::MemWrite:
          case pcie::TlpType::CfgRead:
          case pcie::TlpType::CfgWrite:
            if (registerWindow) {
                if (tlp.address < addrLo || tlp.address >= addrHi)
                    return false;
            } else if (!windowContains(addrLo, addrHi, tlp)) {
                return false;
            }
            break;
          default:
            return false;
        }
    }
    return true;
}

Bytes
L2Rule::serialize() const
{
    Bytes out(kRuleBytes, 0);
    out[0] = 2; // table id
    out[1] = static_cast<std::uint8_t>(type);
    out[2] = anyRequester ? 1 : 0;
    out[3] = static_cast<std::uint8_t>(requester.raw() >> 8);
    out[4] = static_cast<std::uint8_t>(requester.raw());
    out[5] = anyCompleter ? 1 : 0;
    out[6] = static_cast<std::uint8_t>(completer.raw() >> 8);
    out[7] = static_cast<std::uint8_t>(completer.raw());
    storeLe64(out.data() + 8, addrLo);
    storeLe64(out.data() + 16, addrHi);
    out[24] = static_cast<std::uint8_t>(action);
    out[25] = anyMsgCode ? 1 : 0;
    out[26] = static_cast<std::uint8_t>(msgCode);
    out[27] = registerWindow ? 1 : 0;
    return out;
}

L2Rule
L2Rule::deserialize(const Bytes &raw)
{
    if (raw.size() != kRuleBytes || raw[0] != 2)
        fatal("L2Rule::deserialize: malformed rule");
    L2Rule r;
    r.type = static_cast<pcie::TlpType>(raw[1]);
    r.anyRequester = raw[2] != 0;
    r.requester = pcie::Bdf::fromRaw(
        static_cast<std::uint16_t>((raw[3] << 8) | raw[4]));
    r.anyCompleter = raw[5] != 0;
    r.completer = pcie::Bdf::fromRaw(
        static_cast<std::uint16_t>((raw[6] << 8) | raw[7]));
    r.addrLo = loadLe64(raw.data() + 8);
    r.addrHi = loadLe64(raw.data() + 16);
    r.action = static_cast<SecurityAction>(raw[24]);
    r.anyMsgCode = raw[25] != 0;
    r.msgCode = static_cast<pcie::MsgCode>(raw[26]);
    r.registerWindow = raw[27] != 0;
    return r;
}

void
RuleTables::clear()
{
    l1_.clear();
    l2_.clear();
}

bool
RuleTables::wellFormed() const
{
    return !l1_.empty() && !l2_.empty() && l1_.back().mask == 0 &&
           l1_.back().verdict == L1Verdict::ExecuteA1;
}

SecurityAction
RuleTables::classify(const pcie::Tlp &tlp) const
{
    return classifyEx(tlp).action;
}

FilterVerdict
RuleTables::classifyEx(const pcie::Tlp &tlp) const
{
    FilterVerdict v;

    // L1: masked access control, first match wins, default deny.
    bool to_l2 = false;
    for (size_t i = 0; i < l1_.size(); ++i) {
        if (!l1_[i].matches(tlp))
            continue;
        v.l1Index = static_cast<std::uint16_t>(i);
        if (l1_[i].verdict == L1Verdict::ExecuteA1) {
            v.action = SecurityAction::A1_Disallow;
            v.reason = l1_[i].mask == 0 ? BlockReason::L1DenyDefault
                                        : BlockReason::L1DenyRule;
            return v;
        }
        to_l2 = true;
        break;
    }
    if (!to_l2) {
        v.action = SecurityAction::A1_Disallow;
        v.reason = BlockReason::L1NoMatch;
        return v;
    }

    // L2: permission classification, first match wins, default deny.
    for (size_t i = 0; i < l2_.size(); ++i) {
        if (!l2_[i].matches(tlp))
            continue;
        v.l2Index = static_cast<std::uint16_t>(i);
        v.action = l2_[i].action;
        v.reason = v.action == SecurityAction::A1_Disallow
                       ? BlockReason::L2DenyRule
                       : BlockReason::None;
        return v;
    }
    v.action = SecurityAction::A1_Disallow;
    v.reason = BlockReason::L2NoMatch;
    return v;
}

Bytes
RuleTables::serialize() const
{
    Bytes out;
    for (const L1Rule &r : l1_) {
        Bytes raw = r.serialize();
        out.insert(out.end(), raw.begin(), raw.end());
    }
    for (const L2Rule &r : l2_) {
        Bytes raw = r.serialize();
        out.insert(out.end(), raw.begin(), raw.end());
    }
    return out;
}

RuleTables
RuleTables::deserialize(const Bytes &blob)
{
    if (blob.size() % kRuleBytes != 0)
        fatal("RuleTables::deserialize: blob not a rule multiple");
    RuleTables tables;
    for (size_t off = 0; off < blob.size(); off += kRuleBytes) {
        Bytes raw(blob.begin() + off, blob.begin() + off + kRuleBytes);
        if (raw[0] == 1)
            tables.addL1(L1Rule::deserialize(raw));
        else if (raw[0] == 2)
            tables.addL2(L2Rule::deserialize(raw));
        else
            fatal("RuleTables::deserialize: unknown table id %d",
                  raw[0]);
    }
    return tables;
}

RuleTables
defaultPolicy(pcie::Bdf tvm, pcie::Bdf xpu, pcie::Bdf sc)
{
    return defaultPolicy(std::vector<pcie::Bdf>{tvm}, xpu, sc);
}

RuleTables
defaultPolicy(const std::vector<pcie::Bdf> &tvms, pcie::Bdf xpu,
              pcie::Bdf sc)
{
    using pcie::TlpType;
    RuleTables t;

    // ---- L1: authorized (type, requester) pairs proceed to L2 ----
    auto l1_allow = [&](TlpType type, pcie::Bdf req) {
        L1Rule r;
        r.mask = kMatchType | kMatchRequester;
        r.type = type;
        r.requester = req;
        r.verdict = L1Verdict::ToL2Table;
        t.addL1(r);
    };
    for (pcie::Bdf tvm : tvms) {
        l1_allow(TlpType::MemWrite, tvm);
        l1_allow(TlpType::MemRead, tvm);
        l1_allow(TlpType::CfgRead, tvm);
        l1_allow(TlpType::CfgWrite, tvm);
        l1_allow(TlpType::Message, tvm); // vendor management msgs
        // Completions for each TVM's outstanding reads.
        l1_allow(TlpType::Completion, tvm);
    }
    l1_allow(TlpType::MemWrite, xpu);
    l1_allow(TlpType::MemRead, xpu);
    l1_allow(TlpType::Message, xpu);
    l1_allow(TlpType::Completion, xpu);
    // Deny-all default (empty mask matches everything).
    t.addL1(L1Rule{}); // verdict defaults to ExecuteA1

    // ---- L2: permission classes for the authorized packets ----
    auto l2 = [&](TlpType type, std::optional<pcie::Bdf> req,
                  pcie::AddrRange range, SecurityAction action,
                  bool registerWindow = false) {
        L2Rule r;
        r.type = type;
        r.anyRequester = !req.has_value();
        if (req)
            r.requester = *req;
        r.anyCompleter = true;
        r.addrLo = range.base;
        r.addrHi = range.size ? range.base + range.size : 0;
        r.registerWindow = registerWindow;
        r.action = action;
        t.addL2(r);
    };

    for (pcie::Bdf tvm : tvms) {
        // TVM -> PCIe-SC configuration (encrypted policies + keys).
        l2(TlpType::MemWrite, tvm, mm::kScRuleTable,
           SecurityAction::A2_CryptIntegrity);
        // The SC's own BAR is a register file: batched chunk-record
        // registrations stream 64 KiB through the kParamWindow
        // offset, so these windows match on start address only.
        l2(TlpType::MemWrite, tvm, mm::kScMmio,
           SecurityAction::A3_PlainIntegrity, true);
        l2(TlpType::MemRead, tvm, mm::kScMmio,
           SecurityAction::A4_Transparent, true);
        l2(TlpType::MemRead, tvm, mm::kScRuleTable,
           SecurityAction::A1_Disallow);

        // TVM -> xPU MMIO: commands are Write Protected, status
        // reads are Full Accessible. Register-file semantics, as
        // for the SC's own BAR.
        l2(TlpType::MemWrite, tvm, mm::kXpuMmio,
           SecurityAction::A3_PlainIntegrity, true);
        l2(TlpType::MemRead, tvm, mm::kXpuMmio,
           SecurityAction::A4_Transparent, true);

        // TVM -> xPU VRAM aperture: direct writes carry sensitive
        // data (Write-Read Protected); direct reads would leak
        // plaintext results, so they are prohibited — results must
        // come through the encrypted D2H path.
        l2(TlpType::MemWrite, tvm, mm::kXpuVram,
           SecurityAction::A2_CryptIntegrity);
        l2(TlpType::MemRead, tvm, mm::kXpuVram,
           SecurityAction::A1_Disallow);
    }

    // xPU DMA: only the bounce buffers are reachable. Reads of the
    // H2D bounce are transparent requests (their completions carry
    // the ciphertext and get A2 treatment via the pending-read
    // tracker); writes to the D2H bounce are Write-Read Protected.
    l2(TlpType::MemRead, xpu, mm::kBounceH2d,
       SecurityAction::A4_Transparent);
    l2(TlpType::MemWrite, xpu, mm::kBounceD2h,
       SecurityAction::A2_CryptIntegrity);
    // The metadata buffer belongs to the PCIe-SC alone.
    l2(TlpType::MemRead, xpu, mm::kMetadataBuffer,
       SecurityAction::A1_Disallow);
    l2(TlpType::MemWrite, xpu, mm::kMetadataBuffer,
       SecurityAction::A1_Disallow);
    // Any other host-memory access by the device is prohibited.
    l2(TlpType::MemRead, xpu, mm::kHostDramLow,
       SecurityAction::A1_Disallow);
    l2(TlpType::MemWrite, xpu, mm::kHostDramLow,
       SecurityAction::A1_Disallow);
    l2(TlpType::MemRead, xpu, mm::kHostDramHigh,
       SecurityAction::A1_Disallow);
    l2(TlpType::MemWrite, xpu, mm::kHostDramHigh,
       SecurityAction::A1_Disallow);

    // Messages: interrupts and standard power management flow
    // transparently; vendor-defined management messages (§9) carry
    // proprietary payloads and are integrity-protected. Completions
    // flow transparently, with sensitive ones upgraded to A2 by the
    // pending-read tracker.
    for (pcie::Bdf tvm : tvms) {
        // Host-originated vendor messages are signed by the Adaptor
        // and verified like commands; legacy devices cannot produce
        // MACs, so device-originated ones stay transparent below.
        L2Rule r;
        r.type = TlpType::Message;
        r.anyRequester = false;
        r.requester = tvm;
        r.anyCompleter = true;
        r.anyMsgCode = false;
        r.msgCode = pcie::MsgCode::VendorDefined;
        r.action = SecurityAction::A3_PlainIntegrity;
        t.addL2(r);
    }
    {
        L2Rule r;
        r.type = TlpType::Message;
        r.anyRequester = false;
        r.requester = xpu;
        r.anyCompleter = true;
        r.action = SecurityAction::A4_Transparent;
        t.addL2(r);
    }
    {
        L2Rule r;
        r.type = TlpType::Completion;
        r.anyRequester = true;
        r.anyCompleter = true;
        r.action = SecurityAction::A4_Transparent;
        t.addL2(r);
    }

    // Config cycles: integrity-protected.
    for (pcie::Bdf tvm : tvms) {
        L2Rule r;
        r.type = TlpType::CfgRead;
        r.anyRequester = false;
        r.requester = tvm;
        r.anyCompleter = true;
        r.action = SecurityAction::A4_Transparent;
        t.addL2(r);
        r.type = TlpType::CfgWrite;
        r.action = SecurityAction::A3_PlainIntegrity;
        t.addL2(r);
    }

    (void)sc;
    return t;
}

} // namespace ccai::backend
