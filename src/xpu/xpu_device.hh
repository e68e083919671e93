/**
 * @file
 * Generic xPU endpoint device: MMIO register file, VRAM, a DMA
 * engine, a sequential command processor and MSI interrupts.
 *
 * One class models all five evaluation devices; the XpuSpec supplies
 * the performance parameters that differentiate them. The device is
 * deliberately "legacy": it has no confidentiality support of its
 * own, which is exactly the class of xPU ccAI targets.
 */

#ifndef CCAI_XPU_XPU_DEVICE_HH
#define CCAI_XPU_XPU_DEVICE_HH

#include <deque>
#include <functional>
#include <map>

#include "obs/metric_group.hh"
#include "pcie/host_memory.hh"
#include "pcie/link.hh"
#include "pcie/memory_map.hh"
#include "sim/event_queue.hh"
#include "xpu/xpu_command.hh"
#include "xpu/xpu_spec.hh"

namespace ccai::backend
{
struct CostModel;
} // namespace ccai::backend

namespace ccai::xpu
{

/**
 * Volatile device state the xPU Environment Guard must scrub between
 * tenants (§4.2): memory, caches, registers, TLBs.
 */
struct XpuEnvState
{
    bool vramDirty = false;
    bool cachesDirty = false;
    bool tlbDirty = false;
    bool registersDirty = false;

    bool
    clean() const
    {
        return !vramDirty && !cachesDirty && !tlbDirty &&
               !registersDirty;
    }
};

/**
 * The xPU PCIe endpoint.
 */
class XpuDevice : public sim::SimObject, public pcie::PcieNode
{
  public:
    /** Default DMA burst size for device-initiated transfers
     * (XpuCommand::burstBytes == 0). */
    static constexpr std::uint64_t kDmaBurst = 256 * kKiB;

    XpuDevice(sim::System &sys, std::string name, const XpuSpec &spec,
              pcie::Bdf bdf = pcie::wellknown::kXpu);

    /** Attach the upstream link (towards the PCIe-SC / root). */
    void connectUpstream(pcie::Link *up) { up_ = up; }

    const XpuSpec &spec() const { return spec_; }
    pcie::Bdf bdf() const { return bdf_; }

    // PcieNode interface
    void receiveTlp(const pcie::TlpPtr &tlp, pcie::PcieNode *from)
        override;
    const std::string &nodeName() const override { return name(); }

    /** Device VRAM (tests inspect it directly). */
    pcie::HostMemory &vram() { return vram_; }

    /** MMIO register value (tests/EnvGuard inspect). */
    std::uint64_t readRegister(Addr offset) const;

    /** Current environment cleanliness. */
    const XpuEnvState &envState() const { return env_; }

    /** Cold-boot reset: scrub VRAM, caches, TLB and registers. */
    void coldReset();

    /**
     * Crash-recovery fault domain: wedge the device — it stops
     * answering anything (MMIO, completions, doorbells), modeling a
     * firmware lockup or surprise link-down, until coldReset().
     */
    void wedge();
    bool wedged() const { return wedged_; }

    /** Number of retired commands. */
    std::uint64_t retiredCommands() const { return retired_; }

    /**
     * Charge a rival design's cost model: its on-die crypto rate
     * (H100-CC's GCM engines sealing/opening every DMA payload)
     * before bursts leave the device and before pulled data lands in
     * VRAM. nullptr (the default) charges nothing — vanilla devices
     * and ccAI, whose crypto runs in the PCIe-SC instead.
     */
    void setCostModel(const backend::CostModel *cost) { cost_ = cost; }

    obs::MetricGroup &stats() { return stats_; }

  private:
    void handleMmioWrite(const pcie::TlpPtr &tlp);
    void handleMmioRead(const pcie::TlpPtr &tlp);
    void startNextCommand();
    void finishCommand(const XpuCommand &cmd);
    /** Push one D2H command's VRAM contents upstream as MWr bursts. */
    void emitDmaWrite(const XpuCommand &cmd);
    void startDmaRead(const XpuCommand &cmd);
    void pumpDmaRead();
    void raiseInterrupt(std::uint16_t msiTarget);

    XpuSpec spec_;
    pcie::Bdf bdf_;
    pcie::Link *up_ = nullptr;
    const backend::CostModel *cost_ = nullptr;

    /** MMIO register file, keyed by offset within the MMIO BAR. */
    std::map<Addr, std::uint64_t> regs_;
    /** Staged command bytes in the command-ring window. */
    std::map<Addr, Bytes> cmdWindow_;

    pcie::HostMemory vram_;
    std::deque<XpuCommand> queue_;
    bool busy_ = false;
    bool wedged_ = false;
    /**
     * Owned kernel-completion timer (the device executes one command
     * at a time, so one suffices). coldReset() deschedules it, so a
     * pre-crash kernel can't retire into a post-recovery command
     * stream.
     */
    sim::EventFunctionWrapper kernelDone_;
    bool kernelDoneInit_ = false;
    XpuCommand runningKernel_;
    std::uint64_t retired_ = 0;
    std::uint8_t nextTag_ = 0;
    std::map<std::uint8_t, std::function<void(const pcie::TlpPtr &)>>
        outstanding_;

    /** In-flight read DMA bookkeeping (one command at a time). */
    struct DmaReadState
    {
        XpuCommand cmd;
        std::uint64_t nextOffset = 0;
        std::uint32_t inflight = 0;
        bool active = false;
    };
    DmaReadState dmaRead_;

    XpuEnvState env_;
    obs::MetricGroup stats_;

    /** Typed handles resolved once; no name lookup per TLP. */
    struct Handles
    {
        explicit Handles(obs::MetricGroup &g);

        obs::CounterHandle vramWrites;
        obs::CounterHandle badAddrWrites;
        obs::CounterHandle orphanCompletions;
        obs::CounterHandle vendorMessages;
        obs::CounterHandle unsupportedTlps;
        obs::CounterHandle mmioWrites;
        obs::CounterHandle mmioReads;
        obs::CounterHandle doorbellEmpty;
        obs::CounterHandle badCmdLength;
        obs::CounterHandle badCmdType;
        obs::CounterHandle commandsQueued;
        obs::CounterHandle kernels;
        obs::CounterHandle dmaH2d;
        obs::CounterHandle dmaD2h;
        obs::CounterHandle memsets;
        obs::CounterHandle fences;
        obs::CounterHandle dmaAborts;
        obs::CounterHandle resets;
        obs::CounterHandle wedges;
        obs::CounterHandle droppedWhileWedged;

        obs::HistogramHandle cmdTicks;
    } s_;

    obs::Tracer *tracer_;
    obs::TrackId track_ = obs::kNoTrack;
    obs::TrackId traceTrack()
    {
        return tracer_->trackCached(track_, name());
    }
    /** Start tick of the command in flight (commands are serial). */
    Tick cmdStart_ = 0;

    /** Outstanding read bursts (read-tag window). */
    static constexpr std::uint32_t kDmaReadWindow = 8;
};

} // namespace ccai::xpu

#endif // CCAI_XPU_XPU_DEVICE_HH
