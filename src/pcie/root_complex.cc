#include "root_complex.hh"

#include "common/logging.hh"

namespace ccai::pcie
{

RootComplex::Handles::Handles(obs::MetricGroup &g)
    : readsSent(g.counterHandle("reads_sent")),
      writesSent(g.counterHandle("writes_sent")),
      completions(g.counterHandle("completions")),
      orphanCompletions(g.counterHandle("orphan_completions")),
      messages(g.counterHandle("messages")),
      unsupported(g.counterHandle("unsupported")),
      readRetries(g.counterHandle("read_retries")),
      readRetryExhausted(g.counterHandle("read_retry_exhausted")),
      tagExhausted(g.counterHandle("tag_exhausted")),
      faultsRecovered(g.counterHandle("faults_recovered")),
      faultsFatal(g.counterHandle("faults_fatal")),
      iommuBlocked(g.counterHandle("iommu_blocked")),
      dmaWrites(g.counterHandle("dma_writes")),
      dmaReads(g.counterHandle("dma_reads")),
      transportAcksReceived(
          g.counterHandle("transport_acks_received")),
      readLatencyTicks(g.histogramHandle("read_latency_ticks"))
{}

RootComplex::RootComplex(sim::System &sys, std::string name,
                         HostMemory &mem)
    : sim::SimObject(sys, std::move(name)), mem_(mem),
      stats_(sys.metrics(), this->name()), s_(stats_),
      rxUp_(stats_,
            [this](const TransportAck &ack) {
                down_->send(makeTransportAck(wellknown::kRootComplex,
                                             wellknown::kPcieSc, ack));
            }),
      tracer_(&sys.tracer())
{
}

std::optional<std::uint8_t>
RootComplex::allocTag()
{
    // 256-entry tag space; wrap-around with occupancy check.
    for (int i = 0; i < 256; ++i) {
        std::uint8_t candidate = nextTag_++;
        if (!outstanding_.count(candidate))
            return candidate;
    }
    return std::nullopt;
}

void
RootComplex::sendRead(Tlp tlp, CplCallback cb)
{
    if (!down_)
        panic("root complex: downstream link not connected");
    std::optional<std::uint8_t> freeTag = allocTag();
    if (!freeTag) {
        // Every tag is held by an outstanding read; a device that
        // withholds completions keeps each one for the whole retry
        // budget. Fail this read closed with an abort, delivered from
        // the event queue so the caller is never re-entered from
        // inside its own sendRead.
        s_.tagExhausted.inc();
        warnRateLimited("rc-tag-exhausted",
                        "root complex: all 256 read tags outstanding; "
                        "aborting read of 0x%llx",
                        (unsigned long long)tlp.address);
        auto cpl = std::make_shared<Tlp>(Tlp::makeCompletion(
            tlp.completer, tlp.requester, 0, {},
            CplStatus::CompleterAbort));
        eventq().scheduleIn(0, [cb = std::move(cb), cpl] { cb(cpl); });
        return;
    }
    tlp.tag = *freeTag;
    std::uint8_t tag = tlp.tag;
    auto req = std::make_shared<Tlp>(std::move(tlp));

    OutstandingRead entry;
    entry.cb = std::move(cb);
    entry.request = req;
    entry.issued = curTick();
    outstanding_[tag] = std::move(entry);

    s_.readsSent.inc();
    down_->send(req);
    armReadTimer(tag);
}

void
RootComplex::armReadTimer(std::uint8_t tag)
{
    auto it = outstanding_.find(tag);
    if (it == outstanding_.end())
        return;
    OutstandingRead &o = it->second;
    if (!o.timer)
        o.timer = std::make_unique<sim::EventFunctionWrapper>(
            [this, tag] { onReadTimeout(tag); }, "rc-read-timeout");
    Tick timeout = retryTimeout(kReadTimeout, o.attempts);
    eventq().rescheduleIn(o.timer.get(), timeout);
}

void
RootComplex::onReadTimeout(std::uint8_t tag)
{
    auto it = outstanding_.find(tag);
    if (it == outstanding_.end())
        return;
    OutstandingRead &o = it->second;
    if (o.attempts >= kMaxReadRetries) {
        // Budget exhausted: fabricate an abort completion so the
        // caller's state machine can fail instead of hang. Erasing
        // the entry destroys the timer event executing right now, so
        // everything needed afterwards is moved out first.
        CplCallback cb = std::move(o.cb);
        TlpPtr req = o.request;
        outstanding_.erase(it);
        s_.readRetryExhausted.inc();
        s_.faultsFatal.inc();
        warnRateLimited(
            "rc-read-exhausted",
            "root complex: read tag %d addr 0x%llx exhausted "
            "its retry budget",
            int(req->tag),
            (unsigned long long)req->address);
        auto cpl = std::make_shared<Tlp>(Tlp::makeCompletion(
            req->completer, req->requester, req->tag, {},
            CplStatus::CompleterAbort));
        cb(cpl);
        return;
    }
    ++o.attempts;
    s_.readRetries.inc();
    if (tracer_->enabled())
        tracer_->instant(traceTrack(), "read.retry", curTick());
    down_->send(o.request);
    armReadTimer(tag);
}

void
RootComplex::sendWrite(Tlp tlp)
{
    sendWrite(std::make_shared<Tlp>(std::move(tlp)));
}

void
RootComplex::sendWrite(const TlpPtr &tlp)
{
    if (!down_)
        panic("root complex: downstream link not connected");
    s_.writesSent.inc();
    down_->send(tlp);
}

bool
RootComplex::transportGate(const TlpPtr &tlp)
{
    if (!tlp->ackRequired)
        return true;
    if (rxUp_.check(*tlp) != ArqOrder::Next)
        return false;
    rxUp_.accept(*tlp);
    return true;
}

void
RootComplex::receiveTlp(const TlpPtr &tlp, PcieNode *)
{
    switch (tlp->type) {
      case TlpType::Completion: {
        if (!transportGate(tlp))
            return;
        auto it = outstanding_.find(tlp->tag);
        if (it == outstanding_.end()) {
            // Benign under retry: the original completion of a read
            // that was already answered by a retransmission.
            s_.orphanCompletions.inc();
            debugLog("root complex: completion with unknown tag %d",
                     int(tlp->tag));
            return;
        }
        if (it->second.attempts > 0)
            s_.faultsRecovered.inc();
        Tick issued = it->second.issued;
        s_.readLatencyTicks.sample(curTick() - issued);
        if (tracer_->enabled())
            tracer_->complete(traceTrack(), "read", issued,
                              curTick() - issued);
        CplCallback cb = std::move(it->second.cb);
        outstanding_.erase(it);
        s_.completions.inc();
        cb(tlp);
        return;
      }
      case TlpType::Message: {
        if (tlp->msgCode == MsgCode::TransportAck) {
            // Dispatched before the MSI handlers: an ack must never
            // pop an interrupt waiter.
            s_.transportAcksReceived.inc();
            auto decoded = decodeTransportAck(tlp->data);
            if (!decoded)
                return;
            auto it = transportHandlers_.find(tlp->completer.raw());
            if (it != transportHandlers_.end())
                it->second(*decoded);
            return;
        }
        if (!transportGate(tlp))
            return;
        s_.messages.inc();
        auto it = msgHandlers_.find(tlp->completer.raw());
        if (it != msgHandlers_.end()) {
            it->second(tlp);
            return;
        }
        if (msgHandler_)
            msgHandler_(tlp);
        return;
      }
      case TlpType::MemRead:
      case TlpType::MemWrite:
        if (!transportGate(tlp))
            return;
        handleInboundRequest(tlp);
        return;
      default:
        s_.unsupported.inc();
        warn("root complex: unsupported inbound %s",
             tlp->toString().c_str());
        return;
    }
}

void
RootComplex::handleInboundRequest(const TlpPtr &tlp)
{
    // Device-initiated DMA against host memory. The IOMMU hook (the
    // privileged software's protection in the paper's threat model)
    // can reject accesses to protected ranges.
    if (iommu_ && !iommu_(tlp->requester, tlp->address,
                          tlp->lengthBytes)) {
        s_.iommuBlocked.inc();
        if (tlp->type == TlpType::MemRead) {
            auto cpl = std::make_shared<Tlp>(Tlp::makeCompletion(
                wellknown::kRootComplex, tlp->requester, tlp->tag, {},
                CplStatus::CompleterAbort));
            down_->send(cpl);
        }
        return;
    }

    if (tlp->type == TlpType::MemWrite) {
        s_.dmaWrites.inc();
        if (!tlp->synthetic)
            mem_.write(tlp->address, tlp->data);
        return;
    }

    s_.dmaReads.inc();
    TlpPtr cpl;
    if (tlp->synthetic) {
        cpl = std::make_shared<Tlp>(Tlp::makeCompletionSynthetic(
            wellknown::kRootComplex, tlp->requester, tlp->tag,
            tlp->lengthBytes));
    } else {
        Bytes data = payloadBuffer(tlp->lengthBytes);
        mem_.read(tlp->address, data.data(), data.size());
        cpl = std::make_shared<Tlp>(Tlp::makeCompletion(
            wellknown::kRootComplex, tlp->requester, tlp->tag,
            std::move(data)));
    }
    down_->send(cpl);
}

void
RootComplex::abortTransport()
{
    // Dropping the entries retires their retry timers too: the
    // timer's (tag, gen) lookup finds nothing and no-ops.
    outstanding_.clear();
    rxUp_.clear();
}

} // namespace ccai::pcie
