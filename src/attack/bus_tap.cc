#include "bus_tap.hh"

#include "pcie/memory_map.hh"

namespace ccai::attack
{

using pcie::Tlp;
using pcie::TlpPtr;

BusTap::BusTap(sim::System &sys, std::string name)
    : sim::SimObject(sys, std::move(name))
{
}

void
BusTap::connect(pcie::Link *towardsA, pcie::PcieNode *neighborA,
                pcie::Link *towardsB, pcie::PcieNode *neighborB)
{
    linkA_ = towardsA;
    neighborA_ = neighborA;
    linkB_ = towardsB;
    neighborB_ = neighborB;
}

void
BusTap::forward(const TlpPtr &tlp, bool towardsB)
{
    (towardsB ? linkB_ : linkA_)->send(tlp);
}

std::vector<Tlp>
BusTap::capturedWithData() const
{
    std::vector<Tlp> out;
    for (const Tlp &tlp : captured_) {
        if (tlp.hasData() && !tlp.data.empty())
            out.push_back(tlp);
    }
    return out;
}

void
BusTap::receiveTlp(const TlpPtr &tlp, pcie::PcieNode *from)
{
    bool towardsB = (from == neighborA_);
    captured_.push_back(*tlp); // snoop: deep copy of everything

    bool targeted = !filter_ || filter_(*tlp);

    switch (mode_) {
      case TapMode::SnoopOnly:
        forward(tlp, towardsB);
        return;
      case TapMode::TamperPayload:
      case TapMode::StripPayload:
        if (targeted && tlp->hasData() && !tlp->data.empty()) {
            auto evil = std::make_shared<Tlp>(*tlp);
            if (mode_ == TapMode::TamperPayload) {
                evil->data[evil->data.size() / 2] ^= 0x5a;
            } else {
                evil->synthetic = true;
                evil->data.clear();
            }
            ++tampered_;
            forward(evil, towardsB);
            return;
        }
        forward(tlp, towardsB);
        return;
      case TapMode::Replay:
        forward(tlp, towardsB);
        if (targeted) {
            // Re-inject a copy shortly afterwards.
            auto copy = std::make_shared<Tlp>(*tlp);
            eventq().scheduleIn(500 * kTicksPerNs, [this, copy,
                                                    towardsB] {
                forward(copy, towardsB);
            });
        }
        return;
      case TapMode::ReplayResequenced:
        forward(tlp, towardsB);
        if (targeted && tlp->ackRequired) {
            // Queue the forgery right behind the original on the
            // same link: the receiver accepts the original (rx
            // becomes seqNo), then sees the forgery at exactly
            // rx + 1 — past the duplicate gate, into the MAC check.
            auto forged = std::make_shared<Tlp>(*tlp);
            forged->seqNo += 1;
            forward(forged, towardsB);
        }
        return;
      case TapMode::Drop:
        if (targeted) {
            ++dropped_;
            return;
        }
        forward(tlp, towardsB);
        return;
      case TapMode::Reorder:
        if (targeted && !heldBack_) {
            heldBack_ = tlp;
            heldTowardsB_ = towardsB;
            return;
        }
        forward(tlp, towardsB);
        if (heldBack_) {
            TlpPtr delayed = heldBack_;
            heldBack_.reset();
            forward(delayed, heldTowardsB_);
        }
        return;
    }
}

void
BusTap::inject(const Tlp &tlp, bool towardsB)
{
    forward(std::make_shared<Tlp>(tlp), towardsB);
}

MaliciousDevice::MaliciousDevice(sim::System &sys, std::string name,
                                 pcie::Bdf bdf)
    : sim::SimObject(sys, std::move(name)), bdf_(bdf)
{
}

void
MaliciousDevice::dmaReadHost(Addr addr, std::uint32_t len)
{
    auto tlp = std::make_shared<Tlp>(
        Tlp::makeMemRead(bdf_, addr, len, nextTag_++));
    up_->send(tlp);
}

void
MaliciousDevice::dmaWrite(Addr addr, Bytes payload)
{
    auto tlp = std::make_shared<Tlp>(
        Tlp::makeMemWrite(bdf_, addr, std::move(payload)));
    up_->send(tlp);
}

void
MaliciousDevice::probeXpu(Addr addr, std::uint32_t len)
{
    dmaReadHost(addr, len);
}

void
MaliciousDevice::spoofRequester(pcie::Bdf spoofed, Addr addr,
                                std::uint32_t len)
{
    auto tlp = std::make_shared<Tlp>(
        Tlp::makeMemRead(spoofed, addr, len, nextTag_++));
    up_->send(tlp);
}

void
MaliciousDevice::receiveTlp(const TlpPtr &tlp, pcie::PcieNode *)
{
    if (tlp->type == pcie::TlpType::Completion) {
        if (tlp->cplStatus != pcie::CplStatus::SuccessfulCompletion) {
            ++aborts_;
            return;
        }
        loot_.push_back(*tlp);
    }
}

} // namespace ccai::attack
