#include "backend/integrity.hh"

#include "common/bytes_util.hh"

namespace ccai::backend
{

void
SignIntegrityEngine::setKey(const Bytes &key)
{
    mac_ = crypto::HmacSha256(key);
    keyed_ = !key.empty();
}

void
SignIntegrityEngine::fullMac(const pcie::Tlp &tlp, std::uint8_t *out) const
{
    const auto header = tlp.serializeHeader();
    const bool payload = !tlp.synthetic;
    mac_.mac(header.data(), header.size(),
             payload ? tlp.data.data() : nullptr,
             payload ? tlp.data.size() : 0, out);
}

Bytes
SignIntegrityEngine::computeMac(const pcie::Tlp &tlp) const
{
    std::uint8_t mac[crypto::kSha256DigestSize];
    fullMac(tlp, mac);
    return Bytes(mac, mac + kTagBytes); // truncated MAC fits a TLP prefix
}

bool
SignIntegrityEngine::tagMatches(const pcie::Tlp &tlp) const
{
    if (tlp.integrityTag.size() != kTagBytes)
        return false;
    std::uint8_t mac[crypto::kSha256DigestSize];
    fullMac(tlp, mac);
    return constantTimeEqual(mac, tlp.integrityTag.data(), kTagBytes);
}

bool
SignIntegrityEngine::verify(const pcie::Tlp &tlp)
{
    // The synthetic flag is a codec bit outside the MAC: a length-only
    // packet is checked like any other, over its header alone.
    if (!keyed_ || !tagMatches(tlp)) {
        ++failures_;
        return false;
    }
    std::uint64_t &last = lastSeq_[tlp.requester.raw()];
    if (tlp.seqNo <= last) {
        ++failures_; // replayed or reordered packet
        return false;
    }
    last = tlp.seqNo;
    return true;
}

bool
SignIntegrityEngine::verifyMac(const pcie::Tlp &tlp) const
{
    return keyed_ && tagMatches(tlp);
}

Tick
SignIntegrityEngine::verifyDelay(const pcie::Tlp &tlp) const
{
    // One pipeline fill plus throughput-bound MAC streaming.
    std::uint64_t bytes = tlp.hasData() ? tlp.payloadBytes() : 0;
    double seconds = bytes / timing_.shaBytesPerSec;
    return timing_.sigCheckLatency + secondsToTicks(seconds);
}

} // namespace ccai::backend
