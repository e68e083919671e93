#include "tvm.hh"

#include "common/logging.hh"

namespace ccai::tvm
{

namespace mm = pcie::memmap;

Tvm::Tvm(sim::System &sys, std::string name, pcie::RootComplex &rc,
         pcie::Bdf bdf)
    : sim::SimObject(sys, std::move(name)), rc_(rc), bdf_(bdf)
{
    // Per-tenant vector for interrupts steered at this TVM's ID,
    // plus — for the first TVM on the root — the default handler
    // for legacy implicitly-routed MSIs.
    if (!rc_.hasDefaultMsgHandler()) {
        rc_.setMsgHandler(
            [this](const pcie::TlpPtr &tlp) { handleMsi(tlp); });
    }
    rc_.addMsgHandler(bdf_.raw(), [this](const pcie::TlpPtr &tlp) {
        handleMsi(tlp);
    });
}

void
Tvm::mmioWrite(Addr addr, Bytes data)
{
    pcie::Tlp tlp = pcie::Tlp::makeMemWrite(bdf_, addr, std::move(data));
    rc_.sendWrite(std::move(tlp));
}

void
Tvm::mmioRead(Addr addr, std::uint32_t length,
              std::function<void(Bytes)> cb)
{
    pcie::Tlp tlp = pcie::Tlp::makeMemRead(bdf_, addr, length, 0);
    rc_.sendRead(std::move(tlp),
                 [cb = std::move(cb)](const pcie::TlpPtr &cpl) {
                     cb(cpl->data);
                 });
}

void
Tvm::waitInterrupt(std::function<void()> cb)
{
    irqWaiters_.push_back(std::move(cb));
}

void
Tvm::handleMsi(const pcie::TlpPtr &)
{
    if (irqWaiters_.empty()) {
        warn("%s: spurious MSI", name().c_str());
        return;
    }
    auto cb = std::move(irqWaiters_.front());
    irqWaiters_.erase(irqWaiters_.begin());
    eventq().scheduleIn(kInterruptOverhead, std::move(cb));
}

void
Tvm::configureIommu(bool secure)
{
    if (!secure) {
        rc_.setIommuCheck({}); // passthrough
        return;
    }
    rc_.setIommuCheck([](pcie::Bdf requester, Addr addr,
                         std::uint64_t len) {
        using namespace pcie::wellknown;
        if (requester == kXpu) {
            return mm::kBounceH2d.contains(addr, len) ||
                   mm::kBounceD2h.contains(addr, len);
        }
        if (requester == kPcieSc)
            return mm::kMetadataBuffer.contains(addr, len);
        return false;
    });
}

Tick
Tvm::memcpyDelay(std::uint64_t bytes) const
{
    return secondsToTicks(bytes / kMemcpyBytesPerSec);
}

} // namespace ccai::tvm
