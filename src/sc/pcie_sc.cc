#include "pcie_sc.hh"

#include "common/bytes_util.hh"
#include "common/logging.hh"
#include "crypto/sha256.hh"
#include "crypto/worker_pool.hh"

namespace ccai::sc
{

namespace mm = pcie::memmap;
using pcie::Tlp;
using pcie::TlpPtr;
using pcie::TlpType;

PcieSc::Handles::Handles(obs::MetricGroup &g)
    : sessionsEstablished(g.counterHandle("sessions_established")),
      tasksEnded(g.counterHandle("tasks_ended")),
      transportAcksReceived(
          g.counterHandle("transport_acks_received")),
      downTlps(g.counterHandle("down_tlps")),
      upTlps(g.counterHandle("up_tlps")),
      a1Blocked(g.counterHandle("a1_blocked")),
      a4Passthrough(g.counterHandle("a4_passthrough")),
      a2Downstream(g.counterHandle("a2_downstream")),
      a2Upstream(g.counterHandle("a2_upstream")),
      a2NoSession(g.counterHandle("a2_no_session")),
      a2UnknownTenant(g.counterHandle("a2_unknown_tenant")),
      a2Unregistered(g.counterHandle("a2_unregistered")),
      a2OrphanCompletions(
          g.counterHandle("a2_orphan_completions")),
      a2DupCompletions(g.counterHandle("a2_dup_completions")),
      a2IntegrityFailures(
          g.counterHandle("a2_integrity_failures")),
      a2ReadRetries(g.counterHandle("a2_read_retries")),
      a3Checked(g.counterHandle("a3_checked")),
      a3IntegrityFailures(
          g.counterHandle("a3_integrity_failures")),
      a3EnvViolations(g.counterHandle("a3_env_violations")),
      faultsRecovered(g.counterHandle("faults_recovered")),
      faultsFatal(g.counterHandle("faults_fatal")),
      d2hRecords(g.counterHandle("d2h_records")),
      h2dRecords(g.counterHandle("h2d_records")),
      metaBatches(g.counterHandle("meta_batches")),
      transferNotifies(g.counterHandle("transfer_notifies")),
      ownMmioWrites(g.counterHandle("own_mmio_writes")),
      ownMmioReads(g.counterHandle("own_mmio_reads")),
      heartbeatReads(g.counterHandle("heartbeat_reads")),
      firmwareHangs(g.counterHandle("firmware_hangs")),
      droppedWhileHung(g.counterHandle("dropped_while_hung")),
      badConfigWrites(g.counterHandle("bad_config_writes")),
      badParamWrites(g.counterHandle("bad_param_writes")),
      unknownOwnWrites(g.counterHandle("unknown_own_writes")),
      d2hReplays(g.counterHandle("d2h_replays")),
      d2hReplayMisses(g.counterHandle("d2h_replay_misses")),
      transportBadChannel(g.counterHandle("transport_bad_channel")),
      a2DownCryptTicks(g.histogramHandle("a2_down_crypt_ticks")),
      a2UpCryptTicks(g.histogramHandle("a2_up_crypt_ticks")),
      forwardQueueTicks(g.histogramHandle("forward_queue_ticks"))
{
    for (size_t i = 0; i < backend::kBlockReasonCount; ++i) {
        blockedByReason[i] = g.counterHandle(
            std::string("blocked_") +
            backend::blockReasonName(static_cast<backend::BlockReason>(i)));
    }
}

PcieSc::PcieSc(sim::System &sys, std::string name,
               const PcieScConfig &config)
    : sim::SimObject(sys, std::move(name)), config_(config),
      gcmEngine_(config.engineTiming),
      stats_(sys.metrics(), this->name()), s_(stats_),
      upArqStats_(stats_),
      rxDown_(stats_,
              [this](const pcie::TransportAck &ack) {
                  forward(pcie::makeTransportAck(
                              pcie::wellknown::kPcieSc,
                              pcie::Bdf::fromRaw(ack.channel), ack),
                          true, 0);
              }),
      tracer_(&sys.tracer())
{
    envGuard_.bindStats(stats_);
}

void
PcieSc::connectUpstream(pcie::Link *up, pcie::PcieNode *upNeighbor)
{
    up_ = up;
    upNeighbor_ = upNeighbor;
}

void
PcieSc::connectDownstream(pcie::Link *down, pcie::PcieNode *downNeighbor)
{
    down_ = down;
    downNeighbor_ = downNeighbor;
}

void
PcieSc::establishTenant(pcie::Bdf tenant, const Bytes &sessionSecret,
                        pcie::AddrRange d2hWindow,
                        pcie::AddrRange metaWindow,
                        std::uint32_t ivExhaustionLimit)
{
    auto [it, inserted] = sessions_.try_emplace(
        tenant.raw(), config_.engineTiming);
    TenantSession &s = it->second;
    if (!inserted)
        warn("%s: re-establishing session for tenant %s",
             name().c_str(), tenant.toString().c_str());

    s.keys = std::make_unique<trust::WorkloadKeyManager>(
        sessionSecret, ivExhaustionLimit);
    s.signer.setKey(
        crypto::kdf(sessionSecret, {}, "ccai-a3-integrity", 32));
    s.d2hWindow = d2hWindow;
    s.metaWindow = metaWindow;
    s.metaTail = 0;
    s.metaHead = 0;
    s.bdfRaw = tenant.raw();
    s.d2hReplay.clear();
    s.d2hRecords.clear();
    s.ringMode = true;
    s.nextChunkId = 1;

    // A (re-)established session starts its ARQ channels from
    // scratch on both directions; the adaptor resets its transmit
    // state in establishSession, and leaving stale receive/transmit
    // state here would NAK-loop or duplicate-drop the fresh stream.
    upTx_.erase(tenant.raw());
    rxDown_.restart(tenant.raw());

    // The first tenant (the owner TVM) controls the packet policy.
    if (sessions_.size() == 1) {
        ownerTenant_ = tenant.raw();
        filter_.setConfigKey(
            crypto::kdf(sessionSecret, {}, "ccai-filter-config", 16));
    }
    s_.sessionsEstablished.inc();
}

void
PcieSc::installPolicy(const backend::RuleTables &tables)
{
    filter_.install(tables);
}

trust::WorkloadKeyManager *
PcieSc::keyManager()
{
    auto it = sessions_.find(ownerTenant_);
    return it != sessions_.end() ? it->second.keys.get() : nullptr;
}

trust::WorkloadKeyManager *
PcieSc::keyManagerFor(pcie::Bdf tenant)
{
    auto it = sessions_.find(tenant.raw());
    return it != sessions_.end() ? it->second.keys.get() : nullptr;
}

PcieSc::TenantSession *
PcieSc::session(std::uint16_t tenantRaw)
{
    auto it = sessions_.find(tenantRaw);
    return it != sessions_.end() ? &it->second : nullptr;
}

PcieSc::TenantSession *
PcieSc::sessionCoveringD2h(Addr addr)
{
    for (auto &[raw, s] : sessions_) {
        if (s.d2hWindow.contains(addr))
            return &s;
    }
    return nullptr;
}

void
PcieSc::endTenant(pcie::Bdf tenant, bool device_supports_soft_reset)
{
    auto it = sessions_.find(tenant.raw());
    if (it == sessions_.end())
        return;
    if (it->second.keys)
        it->second.keys->destroy();
    sessions_.erase(it);
    // Abandon the tenant's upstream ARQ window: nothing behind it
    // exists any more, and a live timer would retransmit forever.
    upTx_.erase(tenant.raw());
    s_.tasksEnded.inc();

    // Scrub the shared device once the last tenant leaves.
    if (sessions_.empty()) {
        envGuard_.cleanEnvironment(device_supports_soft_reset);
        pendingSensitiveReads_.clear();
    }
}

void
PcieSc::endTask(bool device_supports_soft_reset)
{
    while (!sessions_.empty()) {
        endTenant(pcie::Bdf::fromRaw(sessions_.begin()->first),
                  device_supports_soft_reset);
    }
}

void
PcieSc::firmwareHang()
{
    if (hung_)
        return;
    hung_ = true;
    s_.firmwareHangs.inc();
    warn("%s: firmware hang injected", name().c_str());
}

void
PcieSc::firmwareRestart()
{
    if (!hung_)
        return;
    hung_ = false;
    // Rebooted firmware has no transport or pending-read state;
    // clearing the maps destroys the owned deadline/ack timers, which
    // deschedule themselves. Sessions survive (their keys live in battery-backed
    // SRAM in this model) so the recovery flow's endTask() still
    // performs the uniform key-destruction + scrub teardown.
    pendingSensitiveReads_.clear();
    recentCompleted_.clear();
    upTx_.clear();
    rxDown_.clear();
    upBusyUntil_ = 0;
    downBusyUntil_ = 0;
    inform("%s: firmware restarted", name().c_str());
}

void
PcieSc::receiveTlp(const TlpPtr &tlp, pcie::PcieNode *from)
{
    if (hung_) {
        // Hung firmware: the controller goes dark. Traffic is
        // dropped (not aborted) so requesters see timeouts, exactly
        // like a real wedged device — the watchdog's missing
        // heartbeat is what surfaces the failure.
        s_.droppedWhileHung.inc();
        return;
    }
    if (from == upNeighbor_)
        processDownstreamBound(tlp);
    else
        processUpstreamBound(tlp);
}

bool
PcieSc::ownsAddress(Addr addr) const
{
    return mm::kScMmio.contains(addr) || mm::kScRuleTable.contains(addr);
}

void
PcieSc::forward(const TlpPtr &tlp, bool upstream, Tick delay)
{
    pcie::Link *out = upstream ? up_ : down_;
    ccai_assert(out != nullptr);
    // Egress is FIFO per direction: a fast-path packet (short A3
    // check) must not overtake an earlier slow-path packet (longer
    // crypto), or posted-write ordering breaks (e.g. a doorbell
    // arriving before its command descriptor).
    Tick &busy = upstream ? upBusyUntil_ : downBusyUntil_;
    Tick ready = curTick() + delay + kForwardLatency;
    Tick when = std::max(ready, busy);
    s_.forwardQueueTicks.sample(when - ready);
    busy = when;
    eventq().schedule(when, [out, tlp] { out->send(tlp); });
}

// ---------------------------------------------------------------------
// host -> xPU direction
// ---------------------------------------------------------------------

void
PcieSc::processDownstreamBound(const TlpPtr &tlp)
{
    // Transport acks for the upstream ARQ channels terminate here,
    // before classification: the filter has no rule for them and
    // would A1-block the window from ever advancing.
    if (tlp->type == TlpType::Message &&
        tlp->msgCode == pcie::MsgCode::TransportAck) {
        s_.transportAcksReceived.inc();
        if (auto ack = pcie::decodeTransportAck(tlp->data)) {
            auto it = upTx_.find(ack->channel);
            if (it != upTx_.end())
                it->second.onAck(*ack);
        }
        return;
    }

    s_.downTlps.inc();
    Tick filter_delay = filter_.lookupDelay(*tlp);
    backend::FilterVerdict verdict = filter_.classifyEx(*tlp);
    backend::SecurityAction action = verdict.action;

    if (action == backend::SecurityAction::A1_Disallow) {
        s_.a1Blocked.inc();
        s_.blockedByReason[static_cast<size_t>(verdict.reason)]
            .inc();
        if (tlp->type == TlpType::MemRead ||
            tlp->type == TlpType::CfgRead) {
            // Abort the read so the requester does not hang.
            auto abort = std::make_shared<Tlp>(Tlp::makeCompletion(
                pcie::wellknown::kPcieSc, tlp->requester, tlp->tag, {},
                pcie::CplStatus::CompleterAbort));
            forward(abort, true, filter_delay);
        }
        return;
    }

    // In-order admit gate for ackRequired traffic. Placed after the
    // A1 check so disallowed packets are never acknowledged.
    if (!transportAdmitDown(tlp, action))
        return;

    // TLPs addressed to the controller's own BARs terminate here.
    if ((tlp->type == TlpType::MemRead ||
         tlp->type == TlpType::MemWrite) &&
        ownsAddress(tlp->address)) {
        if (action == backend::SecurityAction::A3_PlainIntegrity &&
            sessionEstablished() && !handleA3(tlp)) {
            return;
        }
        handleOwnMmio(tlp);
        return;
    }

    switch (action) {
      case backend::SecurityAction::A2_CryptIntegrity:
        handleA2Downstream(tlp);
        return;
      case backend::SecurityAction::A3_PlainIntegrity: {
        if (!handleA3(tlp))
            return;
        TenantSession *s = session(tlp->requester.raw());
        Tick verify_delay =
            s ? s->signer.verifyDelay(*tlp) : Tick(0);
        forward(tlp, false, filter_delay + verify_delay);
        return;
      }
      case backend::SecurityAction::A4_Transparent: {
        s_.a4Passthrough.inc();
        // Completions of sensitive device reads are upgraded to the
        // A2 decrypt path via the pending-read tracker; link-level
        // duplicates of already-decrypted completions are dropped
        // (forwarding them would hand ciphertext to the device).
        if (tlp->type == TlpType::Completion) {
            auto it = pendingSensitiveReads_.find(tlp->tag);
            if (it != pendingSensitiveReads_.end()) {
                handleA2Downstream(tlp);
                return;
            }
            if (recentCompleted_.count(tlp->tag)) {
                s_.a2DupCompletions.inc();
                return;
            }
        }
        forward(tlp, false, filter_delay);
        return;
      }
      default:
        return;
    }
}

void
PcieSc::handleA2Downstream(const TlpPtr &tlp)
{
    s_.a2Downstream.inc();
    if (!sessionEstablished()) {
        s_.a2NoSession.inc();
        warn("%s: A2 packet before session establishment",
             name().c_str());
        return;
    }

    Addr lookup_addr = tlp->address;
    TenantSession *tenant = nullptr;
    PendingRead *pending = nullptr;
    std::uint8_t tag = tlp->tag;
    if (tlp->type == TlpType::Completion) {
        auto it = pendingSensitiveReads_.find(tag);
        if (it == pendingSensitiveReads_.end()) {
            // Duplicate or stale completion of a sensitive read that
            // was already answered: benign under link faults, but it
            // must not reach the device still encrypted.
            s_.a2OrphanCompletions.inc();
            return;
        }
        pending = &it->second;
        lookup_addr = pending->addr;
        tenant = session(pending->tenant);
    } else {
        // Direct sensitive write: attribute by the requester.
        tenant = session(tlp->requester.raw());
    }

    auto finishPending = [&] {
        if (!pending)
            return;
        if (pending->attempts > 0)
            s_.faultsRecovered.inc();
        recentCompleted_.insert(tag);
        pendingSensitiveReads_.erase(tag);
    };

    if (!tenant) {
        s_.a2UnknownTenant.inc();
        finishPending();
        return;
    }
    auto rec = tenant->params.lookup(lookup_addr);
    if (!rec) {
        s_.a2Unregistered.inc();
        warn("%s: A2 payload at 0x%llx has no registered chunk",
             name().c_str(), (unsigned long long)lookup_addr);
        finishPending();
        return;
    }

    Tick delay = filter_.lookupDelay(*tlp) +
                 gcmEngine_.cryptDelay(tlp->payloadBytes()) +
                 gcmEngine_.tagDelay();
    s_.a2DownCryptTicks.sample(delay);
    if (tracer_->enabled())
        tracer_->complete(traceTrack(), "a2.down", curTick(), delay);

    // The record, not the TLP, says whether this payload is
    // length-only: records arrive through A3-signed kParamWindow
    // writes, while the TLP's synthetic bit is an unprotected codec
    // flag.
    if (rec->synthetic && tlp->synthetic) {
        // Timing-only path for bulk benchmark traffic. A chunk may
        // stream through in several device bursts, so consume by
        // byte range rather than whole records.
        tenant->params.consumeRange(rec->chunkId,
                                    tlp->payloadBytes());
        finishPending();
        forward(tlp, false, delay);
        return;
    }

    // Decrypt under the cached epoch cipher straight from the
    // incoming payload into the outgoing TLP's pooled one, so each
    // ciphertext byte is read once. Past the branch above, a
    // synthetic bit on either side means the TLP and its record
    // disagree: there are no bytes to authenticate, so it fails like
    // a bad tag.
    TlpPtr out;
    bool ok = !tlp->synthetic && !rec->synthetic &&
              rec->tag.size() == crypto::kGcmTagSize;
    if (ok) {
        const crypto::AesGcm &cipher = tenant->keys->cipherCached(
            trust::StreamDir::HostToDevice, rec->epoch);
        out = std::make_shared<Tlp>(Tlp::blankCopy(*tlp));
        ok = cipher.open(rec->iv, tlp->data.data(), out->data.data(),
                         tlp->data.size(), rec->tag.data(), nullptr, 0,
                         crypto::WorkerPool::shared(),
                         config_.dataEngineThreads);
    }
    if (!ok) {
        s_.a2IntegrityFailures.inc();
        warnRateLimited(
            "sc-a2-integrity",
            "%s: integrity failure on chunk %llu", name().c_str(),
            (unsigned long long)rec->chunkId);
        // A failure on a tracked read means the ciphertext was
        // tampered with or stripped in flight: keep the chunk
        // registered and re-issue the read instead of silently
        // dropping the data.
        if (pending && pending->attempts < pcie::kMaxReadRetries) {
            ++pending->attempts;
            s_.a2ReadRetries.inc();
            forward(std::make_shared<Tlp>(*pending->request), true, 0);
            armSensitiveReadTimer(tag);
            return;
        }
        s_.faultsFatal.inc();
        tenant->params.consume(rec->chunkId);
        if (pending) {
            // Unblock the device's DMA engine with an abort.
            recentCompleted_.insert(tag);
            pendingSensitiveReads_.erase(tag);
            auto abort = std::make_shared<Tlp>(Tlp::makeCompletion(
                pcie::wellknown::kPcieSc, tlp->requester, tag, {},
                pcie::CplStatus::CompleterAbort));
            forward(abort, false, delay);
        }
        return;
    }
    tenant->params.consume(rec->chunkId);
    finishPending();

    out->lengthBytes = static_cast<std::uint32_t>(out->data.size());
    out->encrypted = false;
    forward(out, false, delay);
}

bool
PcieSc::handleA3(const TlpPtr &tlp)
{
    s_.a3Checked.inc();
    if (!sessionEstablished()) {
        // Before trust establishment the integrity engines are not
        // armed; boot-time configuration passes through.
        return true;
    }
    TenantSession *tenant = session(tlp->requester.raw());
    if (!tenant) {
        s_.a3IntegrityFailures.inc();
        return false; // unknown requester fails closed
    }
    if (tlp->ackRequired) {
        // Transport-sequenced packet: the admit gate already checked
        // the MAC (which covers the ARQ fields) and enforced exactly-
        // once in-order delivery. The strict monotonic check below
        // would wrongly reject legitimate retransmissions.
    } else if (!tenant->signer.verify(*tlp)) {
        s_.a3IntegrityFailures.inc();
        return false;
    }
    if (tlp->type == TlpType::MemWrite &&
        !envGuard_.checkMmioWrite(*tlp)) {
        s_.a3EnvViolations.inc();
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// xPU -> host direction
// ---------------------------------------------------------------------

void
PcieSc::processUpstreamBound(const TlpPtr &tlp)
{
    s_.upTlps.inc();
    // The controller stamps everything it sends on a tenant channel
    // itself (sendUpstreamArq), and the device never does: a stamped
    // TLP from this side would advance a tenant's channel at the root
    // complex and make it drop that tenant's real traffic.
    if (tlp->ackRequired) {
        s_.transportBadChannel.inc();
        return;
    }
    Tick filter_delay = filter_.lookupDelay(*tlp);
    backend::FilterVerdict verdict = filter_.classifyEx(*tlp);
    backend::SecurityAction action = verdict.action;

    if (action == backend::SecurityAction::A1_Disallow) {
        s_.a1Blocked.inc();
        s_.blockedByReason[static_cast<size_t>(verdict.reason)]
            .inc();
        if (tlp->type == TlpType::MemRead) {
            auto abort = std::make_shared<Tlp>(Tlp::makeCompletion(
                pcie::wellknown::kPcieSc, tlp->requester, tlp->tag, {},
                pcie::CplStatus::CompleterAbort));
            forward(abort, false, filter_delay);
        }
        return;
    }

    switch (action) {
      case backend::SecurityAction::A2_CryptIntegrity:
        handleA2Upstream(tlp);
        return;
      case backend::SecurityAction::A3_PlainIntegrity: {
        if (!handleA3(tlp))
            return;
        TenantSession *s = session(tlp->requester.raw());
        Tick verify_delay =
            s ? s->signer.verifyDelay(*tlp) : Tick(0);
        forward(tlp, true, filter_delay + verify_delay);
        return;
      }
      case backend::SecurityAction::A4_Transparent:
        s_.a4Passthrough.inc();
        // Track sensitive reads so their completions get decrypted,
        // attributed to the tenant whose chunk covers the address.
        if (tlp->type == TlpType::MemRead &&
            mm::kBounceH2d.contains(tlp->address)) {
            std::uint16_t tenant_raw = 0;
            for (auto &[raw, s] : sessions_) {
                if (s.params.lookup(tlp->address).has_value()) {
                    tenant_raw = raw;
                    break;
                }
            }
            PendingRead p;
            p.addr = tlp->address;
            p.tenant = tenant_raw;
            p.request = std::make_shared<Tlp>(*tlp);
            // The tag is live again: a completion for it is no
            // longer a duplicate of the previous read.
            recentCompleted_.erase(tlp->tag);
            pendingSensitiveReads_[tlp->tag] = std::move(p);
            armSensitiveReadTimer(tlp->tag);
        }
        // Device interrupts aimed at a sessioned tenant ride that
        // tenant's ARQ channel so they are neither lost nor doubled
        // (a duplicated MSI would pop two waiters).
        if (tlp->type == TlpType::Message) {
            TenantSession *t = session(tlp->completer.raw());
            if (t) {
                sendUpstreamArq(t->bdfRaw, tlp, filter_delay);
                return;
            }
        }
        forward(tlp, true, filter_delay);
        return;
      default:
        return;
    }
}

void
PcieSc::handleA2Upstream(const TlpPtr &tlp)
{
    // Device writing results into a D2H bounce window: encrypt the
    // payload under the owning tenant's key and queue the record.
    s_.a2Upstream.inc();
    if (!sessionEstablished()) {
        s_.a2NoSession.inc();
        return;
    }
    TenantSession *tenant = sessionCoveringD2h(tlp->address);
    if (!tenant) {
        s_.a2UnknownTenant.inc();
        warn("%s: result write at 0x%llx matches no tenant window",
             name().c_str(), (unsigned long long)tlp->address);
        return;
    }

    ChunkRecord rec;
    rec.chunkId = tenant->nextChunkId++;
    rec.dir = trust::StreamDir::DeviceToHost;
    rec.addr = tlp->address;
    rec.length = tlp->payloadBytes();
    // nextIv() may rotate the epoch; read the id after drawing.
    rec.iv = tenant->keys->nextIv(trust::StreamDir::DeviceToHost);
    rec.epoch = tenant->keys->epochId(trust::StreamDir::DeviceToHost);
    rec.synthetic = tlp->synthetic;

    Tick delay = filter_.lookupDelay(*tlp) +
                 gcmEngine_.cryptDelay(tlp->payloadBytes()) +
                 gcmEngine_.tagDelay();
    s_.a2UpCryptTicks.sample(delay);
    if (tracer_->enabled())
        tracer_->complete(traceTrack(), "a2.up", curTick(), delay);

    TlpPtr out;
    if (tlp->synthetic) {
        rec.tag.assign(crypto::kGcmTagSize, 0);
        // Copy so the ARQ wrapper never mutates the device's TLP.
        out = std::make_shared<Tlp>(*tlp);
    } else {
        // Encrypt under the cached epoch cipher straight from the
        // device's payload into the outgoing TLP's pooled one.
        const crypto::AesGcm &cipher = tenant->keys->cipherCached(
            trust::StreamDir::DeviceToHost, rec.epoch);
        auto enc = std::make_shared<Tlp>(Tlp::blankCopy(*tlp));
        rec.tag.resize(crypto::kGcmTagSize);
        cipher.seal(rec.iv, tlp->data.data(), enc->data.data(),
                    tlp->data.size(), nullptr, 0, rec.tag.data(),
                    crypto::WorkerPool::shared(),
                    config_.dataEngineThreads);
        enc->encrypted = true;
        out = enc;
        // Keep the sealed TLP for kChunkRetry replays (wire tampering
        // that evades the link CRC is only detected by the Adaptor's
        // tag check, after delivery). A sent payload is never written
        // (tlp.hh), so sharing it with the ARQ window keeps it
        // pristine.
        tenant->d2hReplay.emplace_back(rec.chunkId, enc);
        if (tenant->d2hReplay.size() > kD2hReplayCap)
            tenant->d2hReplay.pop_front();
    }

    queueD2hRecord(*tenant, rec);
    sendUpstreamArq(tenant->bdfRaw, out, delay);
}

void
PcieSc::queueD2hRecord(TenantSession &tenant, const ChunkRecord &rec)
{
    tenant.d2hRecords.push_back(rec);
    s_.d2hRecords.inc();
    if (tenant.ringMode &&
        tenant.d2hRecords.size() >= config_.metaBatchSize) {
        flushMetadataBatch(tenant);
    }
}

void
PcieSc::flushMetadataBatch(TenantSession &tenant)
{
    if (!tenant.ringMode || tenant.d2hRecords.empty())
        return;

    // Publish pending records into the tenant's completion ring
    // (§5 I/O-read optimization, io_uring idiom): DMA contiguous
    // slot runs, then advance the tail word. All writes ride the
    // same ordered channel, so the Adaptor can never observe a tail
    // value before the records it covers are in host memory. Records
    // that do not fit (ring full) stay queued until the Adaptor
    // posts a fresh consumed index via screg::kRingHead.
    const std::uint64_t nslots =
        mm::metaring::slotCount(tenant.metaWindow.size);
    bool published = false;
    while (!tenant.d2hRecords.empty() &&
           tenant.metaTail - tenant.metaHead < nslots) {
        std::uint64_t freeSlots =
            nslots - (tenant.metaTail - tenant.metaHead);
        std::uint64_t startSlot = tenant.metaTail % nslots;
        std::uint64_t run = std::min(
            {static_cast<std::uint64_t>(tenant.d2hRecords.size()),
             freeSlots, nslots - startSlot});
        std::vector<ChunkRecord> batch(
            tenant.d2hRecords.begin(),
            tenant.d2hRecords.begin() +
                static_cast<std::ptrdiff_t>(run));
        tenant.d2hRecords.erase(
            tenant.d2hRecords.begin(),
            tenant.d2hRecords.begin() +
                static_cast<std::ptrdiff_t>(run));

        Bytes blob = ChunkRecord::serializeBatch(batch);
        Addr dst = tenant.metaWindow.base +
                   mm::metaring::kSlotsOffset +
                   startSlot * mm::metaring::kSlotStride;
        auto tlp = std::make_shared<Tlp>(Tlp::makeMemWrite(
            pcie::wellknown::kPcieSc, dst, std::move(blob)));
        sendUpstreamArq(tenant.bdfRaw, tlp, 0);
        tenant.metaTail += run;
        published = true;
    }
    if (!published)
        return;

    Bytes tailWord(8);
    storeLe64(tailWord.data(), tenant.metaTail);
    auto tailTlp = std::make_shared<Tlp>(Tlp::makeMemWrite(
        pcie::wellknown::kPcieSc,
        tenant.metaWindow.base + mm::metaring::kTailOffset,
        std::move(tailWord)));
    s_.metaBatches.inc();
    sendUpstreamArq(tenant.bdfRaw, tailTlp, 0);
}

// ---------------------------------------------------------------------
// The controller's own MMIO interface
// ---------------------------------------------------------------------

void
PcieSc::handleOwnMmio(const TlpPtr &tlp)
{
    if (tlp->type == TlpType::MemWrite) {
        handleOwnMmioWrite(tlp);
        return;
    }
    Bytes payload = handleOwnMmioRead(*tlp);
    completeOwnRead(tlp, std::move(payload));
}

void
PcieSc::handleOwnMmioWrite(const TlpPtr &tlp)
{
    s_.ownMmioWrites.inc();

    if (mm::kScRuleTable.contains(tlp->address)) {
        // Encrypted policy update: payload = iv || tag || ciphertext.
        // Only the owner tenant holds the config key, so updates
        // sealed under any other key fail authentication.
        if (tlp->data.size() < 28) {
            s_.badConfigWrites.inc();
            return;
        }
        Bytes iv(tlp->data.begin(), tlp->data.begin() + 12);
        Bytes tag(tlp->data.begin() + 12, tlp->data.begin() + 28);
        Bytes ciphertext(tlp->data.begin() + 28, tlp->data.end());
        filter_.applyEncryptedConfig(iv, ciphertext, tag);
        return;
    }

    Addr offset = tlp->address - mm::kScMmio.base;
    TenantSession *tenant = session(tlp->requester.raw());

    if (offset >= mm::screg::kParamWindow &&
        offset < mm::screg::kRecordWindow) {
        // H2D chunk-record registration (single or batch) into the
        // requesting tenant's parameter table.
        if (!tenant ||
            tlp->data.size() % ChunkRecord::kWireBytes != 0) {
            s_.badParamWrites.inc();
            return;
        }
        for (const ChunkRecord &rec :
             ChunkRecord::deserializeBatch(tlp->data)) {
            tenant->params.registerChunk(rec);
        }
        s_.h2dRecords.inc(
            tlp->data.size() / ChunkRecord::kWireBytes);
        return;
    }

    std::uint64_t value = 0;
    if (tlp->data.size() >= 8)
        value = loadLe64(tlp->data.data());

    switch (offset) {
      case mm::screg::kMetaDoorbell:
        if (tenant)
            flushMetadataBatch(*tenant);
        return;
      case mm::screg::kNotifyTransfer:
        s_.transferNotifies.inc();
        return;
      case mm::screg::kRecordAck: {
        // Per-record MMIO consumption (the non-batched §5 path);
        // the batched path acknowledges via kRingHead instead.
        if (!tenant || tenant->ringMode)
            return;
        std::uint64_t n =
            std::min<std::uint64_t>(value,
                                    tenant->d2hRecords.size());
        for (std::uint64_t i = 0; i < n; ++i)
            tenant->d2hRecords.pop_front();
        return;
      }
      case mm::screg::kRingHead:
        // Completion-ring backpressure: the Adaptor posts its
        // absolute consumed index; freed slots let queued overflow
        // records publish.
        if (tenant && tenant->ringMode) {
            tenant->metaHead = std::max(tenant->metaHead, value);
            if (!tenant->d2hRecords.empty())
                flushMetadataBatch(*tenant);
        }
        return;
      case mm::screg::kChunkRetry:
        if (tenant)
            handleChunkRetry(*tenant, value);
        return;
      case mm::screg::kEndTask:
        endTenant(tlp->requester, value != 0);
        return;
      case mm::screg::kControl:
        // The Adaptor's hw_init names its record-collection mode.
        if (tenant)
            tenant->ringMode = (value & mm::screg::kControlRingMode) != 0;
        return;
      case mm::screg::kEnvGuardCtl:
        return; // modelled as a configuration latch
      default:
        s_.unknownOwnWrites.inc();
        return;
    }
}

Bytes
PcieSc::handleOwnMmioRead(const pcie::Tlp &req)
{
    s_.ownMmioReads.inc();
    Addr offset = req.address - mm::kScMmio.base;
    Bytes out(req.lengthBytes, 0);
    TenantSession *tenant = session(req.requester.raw());

    if (offset >= mm::screg::kRecordWindow) {
        // Per-record MMIO fetch (the unoptimized §5 path).
        if (!tenant)
            return out;
        size_t index = (offset - mm::screg::kRecordWindow) /
                       ChunkRecord::kWireBytes;
        if (index < tenant->d2hRecords.size()) {
            Bytes rec = tenant->d2hRecords[index].serialize();
            std::copy_n(rec.begin(),
                        std::min<size_t>(rec.size(), out.size()),
                        out.begin());
        }
        return out;
    }

    std::uint64_t value = 0;
    switch (offset) {
      case mm::screg::kStatus:
        value = sessionEstablished() ? 0x3 : 0x1;
        break;
      case mm::screg::kHeartbeat:
        // Watchdog liveness: a monotonic, always-nonzero beat. A
        // hung controller never answers this read at all, so the
        // probe's deadline (not a magic value) detects the hang.
        value = ++heartbeatBeats_;
        s_.heartbeatReads.inc();
        break;
      case mm::screg::kRecordCount:
        if (tenant) {
            // Batched mode reports the ring's absolute produced
            // index; the completion carrying it is sequenced on the
            // tenant ARQ channel behind the slot DMA writes, so the
            // slots it covers are already in host memory.
            value = tenant->ringMode ? tenant->metaTail
                                     : tenant->d2hRecords.size();
        }
        break;
      default:
        break;
    }
    for (size_t i = 0; i < out.size() && i < 8; ++i) {
        out[i] = static_cast<std::uint8_t>(value);
        value >>= 8;
    }
    return out;
}

void
PcieSc::completeOwnRead(const TlpPtr &req, Bytes payload)
{
    auto cpl = std::make_shared<Tlp>(Tlp::makeCompletion(
        pcie::wellknown::kPcieSc, req->requester, req->tag,
        std::move(payload)));
    // Sessioned requesters get their completions sequenced on the
    // tenant ARQ channel so a record-count read can never overtake
    // the metadata write it refers to. Foreign requesters (e.g. a
    // probing device) keep the plain path.
    TenantSession *t = session(req->requester.raw());
    if (t)
        sendUpstreamArq(t->bdfRaw, cpl, filter_.lookupDelay(*req));
    else
        forward(cpl, true, filter_.lookupDelay(*req));
}

// ---------------------------------------------------------------------
// End-to-end transport (retry/ARQ) plumbing
// ---------------------------------------------------------------------

void
PcieSc::handleChunkRetry(TenantSession &tenant, std::uint64_t chunkId)
{
    for (const auto &[id, saved] : tenant.d2hReplay) {
        if (id != chunkId)
            continue;
        s_.d2hReplays.inc();
        if (tracer_->enabled())
            tracer_->instant(traceTrack(), "d2h.replay", curTick());
        // Stamp a copy: the original still waits in the ARQ window
        // under its own seqNo.
        auto copy = std::make_shared<Tlp>(*saved);
        sendUpstreamArq(tenant.bdfRaw, copy, gcmEngine_.tagDelay());
        return;
    }
    s_.d2hReplayMisses.inc();
    warnRateLimited("sc-replay-miss",
                    "%s: no replay buffer for chunk %llu",
                    name().c_str(), (unsigned long long)chunkId);
}

bool
PcieSc::transportAdmitDown(const TlpPtr &tlp, backend::SecurityAction action)
{
    if (!tlp->ackRequired)
        return true;
    // A sender may only advance its own channel: the Adaptor stamps
    // its requester ID, so any other channel is forged. No ack goes
    // back, so the forger learns nothing about the channel.
    if (tlp->txChannel != tlp->requester.raw()) {
        s_.transportBadChannel.inc();
        return false;
    }
    switch (rxDown_.check(*tlp)) {
      case pcie::ArqOrder::Duplicate:
        return false;
      case pcie::ArqOrder::Gap:
        if (tracer_->enabled())
            tracer_->instant(traceTrack(), "arq.down_nak", curTick());
        return false;
      case pcie::ArqOrder::Next:
        break;
    }
    // Next in sequence. For A3 traffic the MAC (which covers the
    // ARQ header fields) decides transport acceptance: a corrupted
    // packet is NAK'd for retransmission instead of silently
    // dropped. Application-level rejections past this point (env-
    // guard violations, config authentication failures) are still
    // transport-accepted, or the channel would wedge on a packet
    // that will never become acceptable.
    if (action == backend::SecurityAction::A3_PlainIntegrity &&
        sessionEstablished()) {
        TenantSession *t = session(tlp->requester.raw());
        if (!t || !t->signer.verifyMac(*tlp)) {
            s_.a3IntegrityFailures.inc();
            rxDown_.refuse(*tlp);
            return false;
        }
    }
    rxDown_.accept(*tlp);
    return true;
}

void
PcieSc::sendUpstreamArq(std::uint16_t channel, const TlpPtr &tlp,
                        Tick delay)
{
    pcie::ArqSender &tx =
        upTx_
            .try_emplace(channel, *this, channel,
                         [this](const TlpPtr &p) { forward(p, true, 0); },
                         upArqStats_, "arq.up_")
            .first->second;
    tx.stamp(*tlp);
    forward(tlp, true, delay);
    tx.track(tlp); // the ack timer is armed after the forward
}

void
PcieSc::armSensitiveReadTimer(std::uint8_t tag)
{
    auto it = pendingSensitiveReads_.find(tag);
    if (it == pendingSensitiveReads_.end())
        return;
    PendingRead &p = it->second;
    if (!p.timer)
        p.timer = std::make_unique<sim::EventFunctionWrapper>(
            [this, tag] { onSensitiveReadDeadline(tag); },
            "sc-read-deadline");
    Tick timeout = pcie::retryTimeout(pcie::kReadTimeout, p.attempts);
    eventq().rescheduleIn(p.timer.get(), timeout);
}

void
PcieSc::onSensitiveReadDeadline(std::uint8_t tag)
{
    auto it = pendingSensitiveReads_.find(tag);
    if (it == pendingSensitiveReads_.end())
        return;
    PendingRead &p = it->second;
    if (p.attempts >= pcie::kMaxReadRetries) {
        s_.faultsFatal.inc();
        warnRateLimited(
            "sc-read-exhausted",
            "%s: sensitive read tag %d addr 0x%llx exhausted "
            "its retry budget",
            name().c_str(), int(tag),
            (unsigned long long)p.addr);
        auto abort = std::make_shared<Tlp>(Tlp::makeCompletion(
            pcie::wellknown::kPcieSc, p.request->requester, tag,
            {}, pcie::CplStatus::CompleterAbort));
        recentCompleted_.insert(tag);
        // Erasing the map entry destroys the timer event that is
        // executing right now — nothing below may touch `p`.
        pendingSensitiveReads_.erase(it);
        forward(abort, false, 0);
        return;
    }
    ++p.attempts;
    s_.a2ReadRetries.inc();
    if (tracer_->enabled())
        tracer_->instant(traceTrack(), "read.retry", curTick());
    forward(std::make_shared<Tlp>(*p.request), true, 0);
    armSensitiveReadTimer(tag);
}

} // namespace ccai::sc
