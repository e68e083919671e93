/**
 * @file
 * The Trusted VM: the CPU-side confidential environment hosting the
 * xPU application, the unmodified xPU software stack, and ccAI's
 * Adaptor. The TVM owns a private memory region (protected by the
 * platform's TEE primitives), configures the IOMMU policy that the
 * privileged software enforces, and dispatches MSIs to the driver.
 */

#ifndef CCAI_TVM_TVM_HH
#define CCAI_TVM_TVM_HH

#include <functional>
#include <vector>

#include "pcie/memory_map.hh"
#include "pcie/root_complex.hh"

namespace ccai::tvm
{

/** Private<->shared memory copy bandwidth of the TVM (bytes/s). */
constexpr double kMemcpyBytesPerSec = 12.0e9;
/** CPU cost of fielding one interrupt. */
constexpr Tick kInterruptOverhead = 2 * kTicksPerUs;

/**
 * The TVM wraps the root complex with a guest-visible interface:
 * MMIO accessors using the TVM's requester ID, interrupt delivery,
 * and the IOMMU policy for inbound device DMA.
 */
class Tvm : public sim::SimObject
{
  public:
    Tvm(sim::System &sys, std::string name, pcie::RootComplex &rc,
        pcie::Bdf bdf = pcie::wellknown::kTvm);

    pcie::Bdf bdf() const { return bdf_; }
    pcie::RootComplex &rootComplex() { return rc_; }
    pcie::HostMemory &memory() { return rc_.memory(); }

    /** Posted MMIO write of raw bytes. */
    void mmioWrite(Addr addr, Bytes data);

    /** Non-posted MMIO read; @p cb receives the completion payload. */
    void mmioRead(Addr addr, std::uint32_t length,
                  std::function<void(Bytes)> cb);

    /** Register an interrupt waiter (FIFO order). */
    void waitInterrupt(std::function<void()> cb);

    /**
     * Crash recovery: drop interrupt waiters registered by the dead
     * session, so a replayed operation's MSI is not stolen by a
     * continuation that will never run.
     */
    void clearInterruptWaiters() { irqWaiters_.clear(); }

    /**
     * Install the IOMMU policy: devices may only DMA into the bounce
     * buffers, and the PCIe-SC may write the metadata buffer. When
     * @p secure is false (vanilla system), devices may access all of
     * host DRAM, matching a conventional passthrough configuration.
     */
    void configureIommu(bool secure);

    /** Time to copy @p bytes between private and shared memory. */
    Tick memcpyDelay(std::uint64_t bytes) const;

  private:
    void handleMsi(const pcie::TlpPtr &tlp);

    pcie::RootComplex &rc_;
    pcie::Bdf bdf_;
    std::vector<std::function<void()>> irqWaiters_;
};

} // namespace ccai::tvm

#endif // CCAI_TVM_TVM_HH
