/**
 * @file
 * Native xPU driver model. This stands in for the unmodified vendor
 * driver stack (NVIDIA driver, ttkmd, Enflame driver, ...): it
 * submits command descriptors to the device ring via MMIO, rings the
 * doorbell, and waits for MSIs. ccAI never modifies this layer; in
 * secure mode the Adaptor signs the driver's MMIO writes on their
 * way out (a kernel-level interposition, invisible to the driver
 * logic itself).
 */

#ifndef CCAI_TVM_DRIVER_HH
#define CCAI_TVM_DRIVER_HH

#include "tvm/adaptor.hh"
#include "tvm/tvm.hh"
#include "xpu/xpu_command.hh"

namespace ccai::tvm
{

/**
 * The driver: command submission and synchronization.
 */
class XpuDriver : public sim::SimObject
{
  public:
    XpuDriver(sim::System &sys, std::string name, Tvm &tvm,
              Adaptor *adaptor = nullptr);

    /**
     * Submit one command: writes the 64-byte descriptor into a ring
     * slot and rings the doorbell. With an Adaptor attached both
     * writes carry A3 integrity tags.
     */
    void submitCommand(const xpu::XpuCommand &cmd);

    /** Submit a fence and invoke @p done when its MSI arrives. */
    void fence(std::function<void()> done);

    /** Number of ring slots. */
    static constexpr std::uint64_t kRingSlots = 64;

    std::uint64_t submitted() const { return submitted_; }

  private:
    void mmioWrite(Addr addr, Bytes data);

    Tvm &tvm_;
    Adaptor *adaptor_;
    std::uint64_t nextSlot_ = 0;
    std::uint64_t nextCmdId_ = 1;
    std::uint64_t submitted_ = 0;
};

} // namespace ccai::tvm

#endif // CCAI_TVM_DRIVER_HH
