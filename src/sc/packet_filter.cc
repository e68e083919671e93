#include "packet_filter.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ccai::sc
{

void
PacketFilter::install(const backend::RuleTables &tables)
{
    tables_ = tables;
    ++generation_;
    rebuildBoundaries();
}

void
PacketFilter::setConfigKey(const Bytes &key)
{
    configKey_.emplace(key);
}

bool
PacketFilter::applyEncryptedConfig(const Bytes &iv,
                                   const Bytes &ciphertext,
                                   const Bytes &tag)
{
    if (!configKey_) {
        warn("packet filter: config before key establishment");
        rejectedConfigs_.inc();
        return false;
    }
    auto plaintext = configKey_->open(iv, ciphertext, tag);
    if (!plaintext) {
        warn("packet filter: rejected config with bad authentication");
        rejectedConfigs_.inc();
        return false;
    }
    tables_ = backend::RuleTables::deserialize(*plaintext);
    ++generation_;
    rebuildBoundaries();
    return true;
}

void
PacketFilter::rebuildBoundaries()
{
    boundaries_.clear();
    for (const auto &rule : tables_.l1()) {
        if (rule.mask & backend::kMatchAddress) {
            boundaries_.push_back(rule.addrLo);
            boundaries_.push_back(rule.addrHi);
        }
    }
    for (const auto &rule : tables_.l2()) {
        if (rule.addrHi != 0) {
            boundaries_.push_back(rule.addrLo);
            boundaries_.push_back(rule.addrHi);
        }
    }
    std::sort(boundaries_.begin(), boundaries_.end());
    boundaries_.erase(
        std::unique(boundaries_.begin(), boundaries_.end()),
        boundaries_.end());
    // Both interval ordinals must fit their 8-bit key fields; a
    // policy with hundreds of address-bearing rules falls back to an
    // always-miss TLB rather than alias intervals.
    if (boundaries_.size() > 0xfe)
        boundaries_.clear();
}

std::uint64_t
PacketFilter::tlbKey(const pcie::Tlp &tlp) const
{
    // For a well-formed TLP, classification consults only type,
    // requester, completer, msgCode, and the span [address, address
    // + extent) — and between two consecutive rule boundaries an
    // address cannot change which rules match, so the interval
    // ordinals of the request's first and last byte stand in for
    // them. The last-byte ordinal makes boundary-straddling probes
    // (start inside a window, run past its end) distinguishable
    // from in-window traffic with the same start interval.
    auto ordinal = [&](Addr a) {
        auto it = std::upper_bound(boundaries_.begin(),
                                   boundaries_.end(), a);
        return static_cast<std::uint64_t>(it - boundaries_.begin());
    };
    const std::uint64_t extent = backend::requestExtent(tlp);
    // Saturate: a span wrapping the top of the address space still
    // needs a deterministic key (it matches no window either way).
    const Addr last = tlp.address > ~Addr(0) - (extent - 1)
                          ? ~Addr(0)
                          : tlp.address + extent - 1;
    return (static_cast<std::uint64_t>(tlp.type) << 56) |
           (static_cast<std::uint64_t>(tlp.msgCode) << 48) |
           (static_cast<std::uint64_t>(tlp.requester.raw()) << 32) |
           (static_cast<std::uint64_t>(tlp.completer.raw()) << 16) |
           (ordinal(tlp.address) << 8) | ordinal(last);
}

size_t
PacketFilter::tlbIndex(std::uint64_t key)
{
    // Fibonacci hashing spreads the packed fields across the
    // direct-mapped set; the top bits index 64 entries.
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 58);
}

namespace
{

backend::BlockReason
reasonForAnomaly(pcie::TlpAnomaly anomaly)
{
    switch (anomaly) {
      case pcie::TlpAnomaly::PayloadFmtMismatch:
        return backend::BlockReason::MalformedPayload;
      case pcie::TlpAnomaly::FmtForType:
        return backend::BlockReason::MalformedFmt;
      case pcie::TlpAnomaly::LengthZero:
      case pcie::TlpAnomaly::LengthOverflow:
      case pcie::TlpAnomaly::LengthMismatch:
        return backend::BlockReason::MalformedLength;
      case pcie::TlpAnomaly::AddrWidthMismatch:
        return backend::BlockReason::MalformedAddress;
      case pcie::TlpAnomaly::None:
        break;
    }
    return backend::BlockReason::None;
}

} // namespace

backend::SecurityAction
PacketFilter::classify(const pcie::Tlp &tlp)
{
    return classifyEx(tlp).action;
}

backend::FilterVerdict
PacketFilter::classifyEx(const pcie::Tlp &tlp)
{
    classified_.inc();
    unitsClassified_.inc(tlp.unitCount());

    // Structural validation precedes the TLB: the defect lives in
    // fmt/length/payload fields the key does not cover, and a
    // malformed packet must never share (or plant) a cached verdict
    // for its well-formed twin.
    const pcie::TlpAnomaly anomaly = tlp.headerAnomaly();
    if (anomaly != pcie::TlpAnomaly::None) {
        backend::FilterVerdict v;
        v.action = backend::SecurityAction::A1_Disallow;
        v.reason = reasonForAnomaly(anomaly);
        blocked_.inc();
        blockedByReason_[static_cast<size_t>(v.reason)].inc();
        return v;
    }

    const std::uint64_t key = tlbKey(tlp);
    TlbEntry &entry = tlb_[tlbIndex(key)];
    backend::FilterVerdict verdict;
    if (entry.valid && entry.generation == generation_ &&
        entry.key == key) {
        tlbHits_.inc();
        verdict = entry.verdict;
    } else {
        tlbMisses_.inc();
        verdict = tables_.classifyEx(tlp);
        entry = TlbEntry{key, generation_, verdict, true};
    }
    if (verdict.action == backend::SecurityAction::A1_Disallow) {
        blocked_.inc();
        blockedByReason_[static_cast<size_t>(verdict.reason)].inc();
    }
    return verdict;
}

Tick
PacketFilter::lookupDelay(const pcie::Tlp &tlp) const
{
    // Malformed packets die in the header-validation stage of the
    // L1 pipeline; they never reach L2 or the TLB.
    if (tlp.headerAnomaly() != pcie::TlpAnomaly::None)
        return kL1LookupLatency;
    const std::uint64_t key = tlbKey(tlp);
    const TlbEntry &entry = tlb_[tlbIndex(key)];
    if (entry.valid && entry.generation == generation_ &&
        entry.key == key)
        return kTlbHitLatency;
    return kL1LookupLatency + kL2LookupLatency;
}

double
PacketFilter::tlbHitRate() const
{
    const std::uint64_t total = tlbHits_.value() + tlbMisses_.value();
    return total == 0
               ? 0.0
               : static_cast<double>(tlbHits_.value()) /
                     static_cast<double>(total);
}

} // namespace ccai::sc
