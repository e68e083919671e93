#include "driver.hh"

#include "pcie/memory_map.hh"

namespace ccai::tvm
{

namespace mm = pcie::memmap;

XpuDriver::XpuDriver(sim::System &sys, std::string name, Tvm &tvm,
                     Adaptor *adaptor)
    : sim::SimObject(sys, std::move(name)), tvm_(tvm), adaptor_(adaptor)
{
}

void
XpuDriver::mmioWrite(Addr addr, Bytes data)
{
    if (adaptor_)
        adaptor_->writeSigned(addr, std::move(data));
    else
        tvm_.mmioWrite(addr, std::move(data));
}

void
XpuDriver::submitCommand(const xpu::XpuCommand &cmd)
{
    xpu::XpuCommand out = cmd;
    if (out.id == 0)
        out.id = nextCmdId_++;

    std::uint64_t slot_off =
        (nextSlot_++ % kRingSlots) * xpu::kXpuCommandBytes;
    Addr slot = mm::kXpuMmio.base + mm::xpureg::kCmdQueueBase + slot_off;

    mmioWrite(slot, out.serialize());

    Bytes bell(8);
    for (int i = 0; i < 8; ++i)
        bell[i] = static_cast<std::uint8_t>(slot_off >> (8 * i));
    mmioWrite(mm::kXpuMmio.base + mm::xpureg::kDoorbell,
              std::move(bell));
    ++submitted_;
}

void
XpuDriver::fence(std::function<void()> done)
{
    tvm_.waitInterrupt(std::move(done));
    xpu::XpuCommand cmd;
    cmd.type = xpu::XpuCmdType::Fence;
    cmd.msiTarget = tvm_.bdf().raw(); // steer the MSI at this tenant
    submitCommand(cmd);
}

} // namespace ccai::tvm
