#include "xpu_device.hh"

#include "backend/protection_backend.hh"
#include "common/logging.hh"

namespace ccai::xpu
{

namespace mm = pcie::memmap;

XpuDevice::Handles::Handles(obs::MetricGroup &g)
    : vramWrites(g.counterHandle("vram_writes")),
      badAddrWrites(g.counterHandle("bad_addr_writes")),
      orphanCompletions(g.counterHandle("orphan_completions")),
      vendorMessages(g.counterHandle("vendor_messages")),
      unsupportedTlps(g.counterHandle("unsupported_tlps")),
      mmioWrites(g.counterHandle("mmio_writes")),
      mmioReads(g.counterHandle("mmio_reads")),
      doorbellEmpty(g.counterHandle("doorbell_empty")),
      badCmdLength(g.counterHandle("bad_cmd_length")),
      badCmdType(g.counterHandle("bad_cmd_type")),
      commandsQueued(g.counterHandle("commands_queued")),
      kernels(g.counterHandle("kernels")),
      dmaH2d(g.counterHandle("dma_h2d")),
      dmaD2h(g.counterHandle("dma_d2h")),
      memsets(g.counterHandle("memsets")),
      fences(g.counterHandle("fences")),
      dmaAborts(g.counterHandle("dma_aborts")),
      resets(g.counterHandle("resets")),
      wedges(g.counterHandle("wedges")),
      droppedWhileWedged(g.counterHandle("dropped_while_wedged")),
      cmdTicks(g.histogramHandle("cmd_ticks"))
{}

XpuDevice::XpuDevice(sim::System &sys, std::string name,
                     const XpuSpec &spec, pcie::Bdf bdf)
    : sim::SimObject(sys, std::move(name)), spec_(spec), bdf_(bdf),
      stats_(sys.metrics(), this->name()), s_(stats_),
      tracer_(&sys.tracer())
{
    regs_[mm::xpureg::kStatus] = 0x1; // device ready
}

std::uint64_t
XpuDevice::readRegister(Addr offset) const
{
    auto it = regs_.find(offset);
    return it != regs_.end() ? it->second : 0;
}

void
XpuDevice::receiveTlp(const pcie::TlpPtr &tlp, pcie::PcieNode *)
{
    using pcie::TlpType;
    if (wedged_) {
        // Wedged device goes dark: requests time out upstream and
        // the watchdog's status-read deadline exposes the failure.
        s_.droppedWhileWedged.inc();
        return;
    }
    switch (tlp->type) {
      case TlpType::MemWrite:
        if (mm::kXpuMmio.contains(tlp->address)) {
            handleMmioWrite(tlp);
        } else if (mm::kXpuVram.contains(tlp->address)) {
            s_.vramWrites.inc();
            env_.vramDirty = true;
            if (!tlp->synthetic)
                vram_.write(tlp->address - mm::kXpuVram.base,
                            tlp->data);
        } else {
            s_.badAddrWrites.inc();
        }
        return;
      case TlpType::MemRead:
        handleMmioRead(tlp);
        return;
      case TlpType::Completion: {
        auto it = outstanding_.find(tlp->tag);
        if (it == outstanding_.end()) {
            s_.orphanCompletions.inc();
            return;
        }
        auto cb = std::move(it->second);
        outstanding_.erase(it);
        cb(tlp);
        return;
      }
      case TlpType::Message:
        // Vendor-defined management messages terminate here.
        s_.vendorMessages.inc();
        return;
      default:
        s_.unsupportedTlps.inc();
        return;
    }
}

void
XpuDevice::handleMmioWrite(const pcie::TlpPtr &tlp)
{
    Addr offset = tlp->address - mm::kXpuMmio.base;
    s_.mmioWrites.inc();
    env_.registersDirty = true;

    if (offset >= mm::xpureg::kCmdQueueBase) {
        // Command staging: accumulate descriptor bytes.
        if (!tlp->synthetic)
            cmdWindow_[offset] = tlp->data;
        return;
    }

    std::uint64_t value = 0;
    if (!tlp->synthetic && tlp->data.size() >= 8) {
        for (int i = 7; i >= 0; --i)
            value = (value << 8) | tlp->data[i];
    }
    regs_[offset] = value;

    switch (offset) {
      case mm::xpureg::kDoorbell: {
        // The doorbell value is the ring offset of the descriptor.
        Addr slot = mm::xpureg::kCmdQueueBase + value;
        auto it = cmdWindow_.find(slot);
        if (it == cmdWindow_.end()) {
            s_.doorbellEmpty.inc();
            warn("%s: doorbell for empty slot 0x%llx", name().c_str(),
                 (unsigned long long)slot);
            return;
        }
        std::optional<XpuCommand> cmd = XpuCommand::deserialize(it->second);
        const bool short_desc = it->second.size() != kXpuCommandBytes;
        cmdWindow_.erase(it);
        if (!cmd) {
            // Fail closed: drop the descriptor with a counted reason
            // and keep serving the queue.
            (short_desc ? s_.badCmdLength : s_.badCmdType).inc();
            warn("%s: dropped %s descriptor in slot 0x%llx",
                 name().c_str(), short_desc ? "short" : "unknown-type",
                 (unsigned long long)slot);
            return;
        }
        queue_.push_back(*cmd);
        s_.commandsQueued.inc();
        if (!busy_)
            startNextCommand();
        return;
      }
      case mm::xpureg::kReset:
        if (spec_.softwareReset && value == 1)
            coldReset();
        return;
      default:
        return;
    }
}

void
XpuDevice::handleMmioRead(const pcie::TlpPtr &tlp)
{
    s_.mmioReads.inc();
    Bytes payload(tlp->lengthBytes, 0);
    if (mm::kXpuMmio.contains(tlp->address)) {
        Addr offset = tlp->address - mm::kXpuMmio.base;
        std::uint64_t value = readRegister(offset);
        for (size_t i = 0; i < payload.size() && i < 8; ++i) {
            payload[i] = static_cast<std::uint8_t>(value);
            value >>= 8;
        }
    } else if (mm::kXpuVram.contains(tlp->address)) {
        payload = vram_.read(tlp->address - mm::kXpuVram.base,
                             tlp->lengthBytes);
    }
    auto cpl = std::make_shared<pcie::Tlp>(pcie::Tlp::makeCompletion(
        bdf_, tlp->requester, tlp->tag, std::move(payload)));
    up_->send(cpl);
}

void
XpuDevice::startNextCommand()
{
    if (queue_.empty()) {
        busy_ = false;
        return;
    }
    busy_ = true;
    cmdStart_ = curTick();
    XpuCommand cmd = queue_.front();
    queue_.pop_front();

    switch (cmd.type) {
      case XpuCmdType::LaunchKernel: {
        env_.cachesDirty = true;
        env_.tlbDirty = true;
        s_.kernels.inc();
        Tick total = spec_.kernelLaunchOverhead + cmd.duration;
        if (!kernelDoneInit_) {
            kernelDone_.setCallback(
                [this] { finishCommand(runningKernel_); },
                "xpu-kernel-done");
            kernelDoneInit_ = true;
        }
        runningKernel_ = cmd;
        eventq().rescheduleIn(&kernelDone_, total);
        return;
      }
      case XpuCmdType::DmaFromHost:
        s_.dmaH2d.inc();
        env_.vramDirty = true;
        startDmaRead(cmd);
        return;
      case XpuCmdType::DmaToHost: {
        s_.dmaD2h.inc();
        // A cost-modelled backend seals the payload in the device's
        // crypto engines before anything leaves the die. Zero delay
        // (no backend, or one without device crypto) keeps the
        // direct synchronous path.
        Tick crypt = cost_ ? cost_->deviceCryptoDelay(cmd.length) : 0;
        if (crypt == 0) {
            emitDmaWrite(cmd);
            return;
        }
        eventq().scheduleIn(crypt, [this, cmd] {
            if (!wedged_)
                emitDmaWrite(cmd);
        });
        return;
      }
      case XpuCmdType::MemSet:
        s_.memsets.inc();
        env_.vramDirty = true;
        finishCommand(cmd);
        return;
      case XpuCmdType::Fence:
        s_.fences.inc();
        raiseInterrupt(cmd.msiTarget);
        finishCommand(cmd);
        return;
    }
}

void
XpuDevice::emitDmaWrite(const XpuCommand &cmd)
{
    // Device pushes VRAM contents to host memory as posted MWr.
    std::uint64_t remaining = cmd.length;
    Addr host = cmd.hostAddr;
    Addr dev = cmd.devAddr;
    const std::uint64_t burstMax =
        cmd.burstBytes ? cmd.burstBytes : kDmaBurst;
    while (remaining > 0) {
        std::uint64_t burst = std::min(remaining, burstMax);
        pcie::TlpPtr tlp;
        if (cmd.synthetic) {
            tlp = std::make_shared<pcie::Tlp>(
                pcie::Tlp::makeMemWriteSynthetic(
                    bdf_, host, static_cast<std::uint32_t>(burst)));
        } else {
            Bytes data = pcie::payloadBuffer(burst);
            vram_.read(dev - mm::kXpuVram.base, data.data(), burst);
            tlp = std::make_shared<pcie::Tlp>(
                pcie::Tlp::makeMemWrite(bdf_, host, std::move(data)));
        }
        up_->send(tlp);
        host += burst;
        dev += burst;
        remaining -= burst;
    }
    finishCommand(cmd);
}

void
XpuDevice::startDmaRead(const XpuCommand &cmd)
{
    if (cmd.length == 0) {
        finishCommand(cmd);
        return;
    }
    dmaRead_ = DmaReadState{};
    dmaRead_.cmd = cmd;
    dmaRead_.active = true;
    pumpDmaRead();
}

void
XpuDevice::pumpDmaRead()
{
    // Keep up to kDmaReadWindow bursts in flight so downstream
    // pipeline latency (links, the PCIe-SC's decrypt) is hidden.
    while (dmaRead_.inflight < kDmaReadWindow &&
           dmaRead_.nextOffset < dmaRead_.cmd.length) {
        std::uint64_t offset = dmaRead_.nextOffset;
        std::uint64_t burst = std::min(
            dmaRead_.cmd.length - offset,
            dmaRead_.cmd.burstBytes
                ? static_cast<std::uint64_t>(dmaRead_.cmd.burstBytes)
                : kDmaBurst);
        dmaRead_.nextOffset += burst;
        ++dmaRead_.inflight;

        std::uint8_t tag = nextTag_++;
        Addr dev_cursor = dmaRead_.cmd.devAddr + offset;

        outstanding_[tag] = [this,
                             dev_cursor](const pcie::TlpPtr &cpl) {
            --dmaRead_.inflight;
            if (cpl->cplStatus !=
                pcie::CplStatus::SuccessfulCompletion) {
                s_.dmaAborts.inc();
                // Abandon the rest of this transfer.
                dmaRead_.nextOffset = dmaRead_.cmd.length;
            } else if (!cpl->synthetic) {
                vram_.write(dev_cursor - mm::kXpuVram.base,
                            cpl->data);
            }
            if (dmaRead_.nextOffset < dmaRead_.cmd.length) {
                pumpDmaRead();
            } else if (dmaRead_.inflight == 0 && dmaRead_.active) {
                dmaRead_.active = false;
                // Cost-modelled backends open the pulled ciphertext
                // in the device crypto engines before the command
                // may retire; zero delay retires directly.
                Tick crypt =
                    cost_ ? cost_->deviceCryptoDelay(dmaRead_.cmd.length)
                          : 0;
                if (crypt == 0) {
                    finishCommand(dmaRead_.cmd);
                } else {
                    const XpuCommand done_cmd = dmaRead_.cmd;
                    eventq().scheduleIn(crypt, [this, done_cmd] {
                        if (!wedged_)
                            finishCommand(done_cmd);
                    });
                }
            }
        };

        auto req = std::make_shared<pcie::Tlp>(pcie::Tlp::makeMemRead(
            bdf_, dmaRead_.cmd.hostAddr + offset,
            static_cast<std::uint32_t>(burst), tag));
        req->synthetic = dmaRead_.cmd.synthetic;
        up_->send(req);
    }
}

void
XpuDevice::finishCommand(const XpuCommand &cmd)
{
    (void)cmd;
    ++retired_;
    s_.cmdTicks.sample(curTick() - cmdStart_);
    if (tracer_->enabled())
        tracer_->complete(traceTrack(), "cmd", cmdStart_,
                          curTick() - cmdStart_);
    startNextCommand();
}

void
XpuDevice::raiseInterrupt(std::uint16_t msiTarget)
{
    auto msg = std::make_shared<pcie::Tlp>(
        pcie::Tlp::makeMessage(bdf_, pcie::MsgCode::MsiInterrupt));
    // Multi-tenant devices steer the MSI at the submitting tenant.
    msg->completer = pcie::Bdf::fromRaw(msiTarget);
    up_->send(msg);
}

void
XpuDevice::wedge()
{
    if (wedged_)
        return;
    wedged_ = true;
    s_.wedges.inc();
    warn("%s: device wedged (link down)", name().c_str());
}

void
XpuDevice::coldReset()
{
    vram_.clear();
    regs_.clear();
    cmdWindow_.clear();
    queue_.clear();
    outstanding_.clear();
    busy_ = false;
    wedged_ = false;
    dmaRead_ = DmaReadState{};
    if (kernelDone_.scheduled())
        eventq().deschedule(&kernelDone_);
    env_ = XpuEnvState{};
    regs_[mm::xpureg::kStatus] = 0x1;
    s_.resets.inc();
}

} // namespace ccai::xpu
