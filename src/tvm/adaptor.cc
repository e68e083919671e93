#include "adaptor.hh"

#include <algorithm>
#include <cstring>

#include "common/bytes_util.hh"
#include "common/logging.hh"
#include "crypto/worker_pool.hh"

namespace ccai::tvm
{

namespace mm = pcie::memmap;
using backend::ChunkRecord;

Adaptor::Handles::Handles(sim::StatGroup &g)
    : faultsRecovered(g.counterHandle("faults_recovered")),
      faultsFatal(g.counterHandle("faults_fatal")),
      transportRetransmits(g.counterHandle("transport_retransmits")),
      transportTimeoutRetransmits(
          g.counterHandle("transport_timeout_retransmits")),
      policyUpdates(g.counterHandle("policy_updates")),
      signedWrites(g.counterHandle("signed_writes")),
      h2dChunks(g.counterHandle("h2d_chunks")),
      h2dBytes(g.counterHandle("h2d_bytes")),
      d2hBytes(g.counterHandle("d2h_bytes")),
      ioWrites(g.counterHandle("io_writes")),
      ioReads(g.counterHandle("io_reads")),
      vendorMessages(g.counterHandle("vendor_messages")),
      recordFetchIncomplete(
          g.counterHandle("record_fetch_incomplete")),
      recordFetchRetries(g.counterHandle("record_fetch_retries")),
      d2hIntegrityFailures(
          g.counterHandle("d2h_integrity_failures")),
      d2hChunkRetries(g.counterHandle("d2h_chunk_retries")),
      tasksEnded(g.counterHandle("tasks_ended")),
      d2hBadRecords(g.counterHandle("d2h_bad_records")),
      metaRingBadTail(g.counterHandle("meta_ring_bad_tail")),
      metaRingOccupancy(
          g.histogramHandle("meta_ring_occupancy")),
      cpuQueueTicks(g.histogramHandle("cpu_queue_ticks")),
      h2dCpuTicks(g.histogramHandle("h2d_cpu_ticks")),
      d2hCpuTicks(g.histogramHandle("d2h_cpu_ticks")),
      h2dPrepareTicks(g.histogramHandle("h2d_prepare_ticks")),
      d2hCollectTicks(g.histogramHandle("d2h_collect_ticks"))
{}

Adaptor::Adaptor(sim::System &sys, std::string name, Tvm &tvm,
                 const AdaptorConfig &config,
                 const AdaptorTiming &timing)
    : sim::SimObject(sys, std::move(name)), tvm_(tvm), config_(config),
      timing_(timing), stats_(sys.metrics(), this->name()),
      s_(stats_), tracer_(&sys.tracer())
{
    // Consume transport acks for this tenant's ARQ channel. The
    // handler is registered unconditionally (it is inert while
    // retries are disabled) so enabling retries via setConfig works.
    tvm_.rootComplex().addTransportHandler(
        tvm_.bdf().raw(),
        [this](const pcie::TransportAck &ack) {
            handleTransportAck(ack);
        });
}

void
Adaptor::sendTransported(pcie::Tlp tlp, bool sign)
{
    tlp.seqNo = nextSeqNo_++;
    if (retryEnabled()) {
        tlp.ackRequired = true;
        tlp.txChannel = tvm_.bdf().raw();
    }
    if (sign && signer_.hasKey())
        tlp.integrityTag = signer_.computeMac(tlp);
    auto ptr = std::make_shared<pcie::Tlp>(std::move(tlp));
    if (retryEnabled()) {
        txUnacked_.push_back(ptr);
        if (txUnacked_.size() == 1)
            armTxTimer();
    }
    tvm_.rootComplex().sendWrite(ptr);
}

void
Adaptor::handleTransportAck(const pcie::TransportAck &ack)
{
    if (!retryEnabled())
        return;
    if (ack.nak) {
        goBackN(ack.seq);
        return;
    }
    std::size_t before = txUnacked_.size();
    while (!txUnacked_.empty() &&
           txUnacked_.front()->seqNo <= ack.seq) {
        txUnacked_.pop_front();
    }
    std::size_t popped = before - txUnacked_.size();
    if (popped == 0)
        return; // stale cumulative ack
    if (txDirty_)
        s_.faultsRecovered.inc(popped);
    txAttempts_ = 0;
    if (txUnacked_.empty()) {
        txDirty_ = false;
        retireTxTimer();
    } else {
        armTxTimer();
    }
}

void
Adaptor::goBackN(std::uint64_t fromSeq)
{
    // One go-back-N round per gap, not one per NAK behind the gap.
    if (lastGoBack_ != 0 &&
        curTick() - lastGoBack_ < config_.retry.retransmitGap)
        return;
    lastGoBack_ = curTick();
    std::uint64_t n = 0;
    for (const auto &p : txUnacked_) {
        if (p->seqNo >= fromSeq) {
            tvm_.rootComplex().sendWrite(p);
            ++n;
        }
    }
    if (n) {
        txDirty_ = true;
        s_.transportRetransmits.inc(n);
        if (tracer_->enabled())
            tracer_->instant(traceTrack(), "arq.go_back_n", curTick());
    }
}

void
Adaptor::armTxTimer()
{
    if (!txTimerInit_) {
        txTimer_.setCallback([this] { onTxTimeout(); },
                             "adaptor-tx-timeout");
        txTimerInit_ = true;
    }
    Tick timeout = config_.retry.timeoutFor(config_.retry.ackTimeout,
                                            txAttempts_);
    eventq().rescheduleIn(&txTimer_, timeout);
}

void
Adaptor::retireTxTimer()
{
    if (txTimer_.scheduled())
        eventq().deschedule(&txTimer_);
}

void
Adaptor::onTxTimeout()
{
    if (txUnacked_.empty())
        return;
    if (txAttempts_ >= config_.retry.maxRetries) {
        s_.faultsFatal.inc(txUnacked_.size());
        warnRateLimited(
            "adaptor-tx-exhausted",
            "%s: %zu transported writes exhausted the retry "
            "budget",
            name().c_str(), txUnacked_.size());
        txUnacked_.clear();
        txAttempts_ = 0;
        txDirty_ = false;
        return;
    }
    ++txAttempts_;
    txDirty_ = true;
    s_.transportTimeoutRetransmits.inc();
    if (tracer_->enabled())
        tracer_->instant(traceTrack(), "arq.timeout_retx",
                         curTick());
    for (const auto &p : txUnacked_)
        tvm_.rootComplex().sendWrite(p);
    armTxTimer();
}

void
Adaptor::hwInit()
{
    h2dCursor_ = 0;
    d2hCursor_ = 0;
    metaHead_ = 0;
    metaPending_.clear();
    Bytes enable(8, 0);
    enable[0] = 1;
    writeSigned(mm::kScMmio.base + mm::screg::kControl,
                std::move(enable));
}

void
Adaptor::establishSession(const Bytes &sessionSecret)
{
    keys_ = std::make_unique<trust::WorkloadKeyManager>(
        sessionSecret, config_.ivExhaustionLimit);
    signer_.setKey(
        crypto::kdf(sessionSecret, {}, "ccai-a3-integrity", 32));
    configCipher_.emplace(
        crypto::kdf(sessionSecret, {}, "ccai-filter-config", 16));
    drbg_ = std::make_unique<crypto::Drbg>(sessionSecret,
                                           "ccai-adaptor-drbg");
    // A (re-)established session starts a fresh ARQ conversation:
    // the SC resets its per-tenant receive gate in establishTenant,
    // so the sender window must restart at seqNo 1 or every write
    // of the new session would be NAKed as out-of-order.
    nextSeqNo_ = 1;
    txUnacked_.clear();
    txAttempts_ = 0;
    txDirty_ = false;
    retireTxTimer();
    lastGoBack_ = 0;
    ++sessionEpoch_;
    // The controller resets the tenant's completion ring in
    // establishTenant; mirror the consumed index here or the first
    // reap of the new session would re-consume stale slots.
    metaHead_ = 0;
    metaPending_.clear();
}

void
Adaptor::abortSession()
{
    if (keys_)
        keys_->destroy();
    keys_.reset();
    configCipher_.reset();
    drbg_.reset();
    // Unacked writes belong to the dead session; replaying them
    // under a new session would be rejected (stale MACs) anyway.
    txUnacked_.clear();
    txAttempts_ = 0;
    txDirty_ = false;
    retireTxTimer();
    lastGoBack_ = 0;
    ++sessionEpoch_;
}

void
Adaptor::pingSc(std::function<void(bool)> cb)
{
    tvm_.mmioRead(mm::kScMmio.base + mm::screg::kHeartbeat, 8,
                  [cb = std::move(cb)](Bytes payload) {
                      std::uint64_t beats =
                          payload.size() >= 8 ? loadLe64(payload.data())
                                              : 0;
                      cb(beats != 0);
                  });
}

void
Adaptor::pingXpu(std::function<void(bool)> cb)
{
    tvm_.mmioRead(mm::kXpuMmio.base + mm::xpureg::kStatus, 8,
                  [cb = std::move(cb)](Bytes payload) {
                      std::uint64_t status =
                          payload.size() >= 8 ? loadLe64(payload.data())
                                              : 0;
                      cb(status == 0x1);
                  });
}

void
Adaptor::pktFilterManage(const backend::RuleTables &tables)
{
    if (!configCipher_)
        fatal("Adaptor: pktFilterManage before session establishment");
    Bytes blob = tables.serialize();
    Bytes iv = drbg_->generateIv();
    crypto::Sealed sealed = configCipher_->seal(iv, blob);

    Bytes payload = iv;
    payload.insert(payload.end(), sealed.tag.begin(), sealed.tag.end());
    payload.insert(payload.end(), sealed.ciphertext.begin(),
                   sealed.ciphertext.end());
    // Not MAC-signed (the GCM seal authenticates it), but it still
    // rides the ARQ channel so a lossy fabric cannot drop a policy
    // update or reorder it against later doorbells.
    sendTransported(pcie::Tlp::makeMemWrite(tvm_.bdf(),
                                            mm::kScRuleTable.base,
                                            std::move(payload)),
                    /*sign=*/false);
    s_.policyUpdates.inc();
}

void
Adaptor::writeSigned(Addr addr, Bytes data)
{
    sendTransported(pcie::Tlp::makeMemWrite(tvm_.bdf(), addr,
                                            std::move(data)),
                    /*sign=*/true);
    s_.signedWrites.inc();
}

Tick
Adaptor::cryptoDelay(std::uint64_t bytes) const
{
    double rate = (config_.hardwareCrypto ? timing_.aesNiBytesPerSec
                                          : timing_.softAesBytesPerSec) *
                  std::max(1, config_.cryptoThreads);
    return secondsToTicks(bytes / rate);
}

void
Adaptor::runOnCpu(Tick duration, DoneCb then, const char *stage)
{
    Tick start = std::max(curTick(), cpuBusyUntil_);
    s_.cpuQueueTicks.sample(start - curTick());
    cpuBusyUntil_ = start + duration;
    if (stage && tracer_->enabled())
        tracer_->complete(traceTrack(), stage, start, duration);
    eventq().schedule(cpuBusyUntil_, std::move(then));
}

Addr
Adaptor::allocBounce(pcie::AddrRange region, Addr &cursor,
                     std::uint64_t length)
{
    if (cursor + length > region.size)
        cursor = 0; // simple ring reuse; transfers are sequential
    Addr addr = region.base + cursor;
    cursor += length;
    return addr;
}

void
Adaptor::prepareH2d(std::optional<Bytes> data, std::uint64_t length,
                    std::function<void(Addr)> done, bool scTerminated)
{
    if (!keys_)
        fatal("Adaptor: prepareH2d before session establishment");
    if (data && data->size() != length)
        fatal("Adaptor: data/length mismatch");
    if (scTerminated && data)
        fatal("Adaptor: SC-terminated transfers are payload-free");

    Tick t0 = curTick();
    Addr bounce = allocBounce(config_.h2dWindow, h2dCursor_, length);
    std::uint64_t chunks =
        (length + config_.chunkBytes - 1) / config_.chunkBytes;
    std::uint64_t subtasks =
        (length + config_.subtaskBytes - 1) / config_.subtaskBytes;

    // CPU cost: en/decryption plus per-chunk bookkeeping; the
    // non-optimized design pays per-subtask overhead as well.
    // SC-terminated traffic (KV-cache swapping) never exists as TVM
    // plaintext: the PCIe-SC en/decrypts it at line rate and the
    // Adaptor only manages records, so no CPU crypto is charged.
    // Chunk bookkeeping and the arena copy ride the crypto worker
    // lanes, so the per-chunk setup amortizes across cryptoThreads
    // like the crypto itself; only the serial notify path stays
    // per-thread.
    const int width = std::max(1, config_.cryptoThreads);
    Tick cpu = timing_.perChunkSetup * chunks / width;
    if (!scTerminated)
        cpu += cryptoDelay(length);
    if (!config_.batchNotify)
        cpu += timing_.perSubtaskOverhead * subtasks;
    s_.h2dCpuTicks.sample(cpu);

    runOnCpu(cpu, [this, t0, data = std::move(data), length, bounce,
                   chunks, subtasks, done = std::move(done),
                   epoch = sessionEpoch_]() mutable {
        // The session died (crash recovery) while this seal stage
        // was queued on the CPU: drop it. The recovery journal
        // replays the whole operation under the new session.
        if (epoch != sessionEpoch_ || !keys_)
            return;
        // Two-stage parallel seal, deterministic at any thread
        // count: (1) serial record build — nextIv() draws and epoch
        // rotation must happen in chunkId order, and cipherCached()
        // may construct (sharded-cache fill), so both stay on the
        // sim thread; (2) parallel seal: the plaintext is copied once
        // into the pinned DMA arena and sealed IN PLACE there. Seal
        // order never matters: every IV is pre-drawn and every
        // output slot is disjoint, so tags are bit-identical at any
        // width and any completion order.
        std::vector<ChunkRecord> records;
        records.reserve(chunks);
        std::vector<const crypto::AesGcm *> ciphers;
        std::uint64_t off = 0;
        while (off < length) {
            std::uint64_t take =
                std::min(config_.chunkBytes, length - off);
            ChunkRecord rec;
            rec.chunkId = nextChunkId_++;
            rec.dir = trust::StreamDir::HostToDevice;
            rec.addr = bounce + off;
            rec.length = static_cast<std::uint32_t>(take);
            // nextIv() may rotate the epoch, so read the epoch id
            // only after drawing the IV.
            rec.iv = keys_->nextIv(trust::StreamDir::HostToDevice);
            rec.epoch =
                keys_->epochId(trust::StreamDir::HostToDevice);
            rec.synthetic = !data.has_value();
            if (data) {
                ciphers.push_back(&keys_->cipherCached(
                    trust::StreamDir::HostToDevice, rec.epoch));
                rec.tag.resize(crypto::kGcmTagSize);
            } else {
                rec.tag.assign(crypto::kGcmTagSize, 0);
            }
            records.push_back(std::move(rec));
            off += take;
        }

        if (data && !records.empty()) {
            const int width = std::max(1, config_.cryptoThreads);
            crypto::WorkerPool &pool = crypto::WorkerPool::shared();
            std::uint8_t *arena = tvm_.memory().raw(bounce, length);
            if (!arena)
                fatal("Adaptor: %llu-byte payload does not fit the "
                      "pinned H2D window",
                      (unsigned long long)length);
            // Several chunks spread across the lanes; a single one
            // parallelizes inside the payload instead (segmented-
            // GHASH seal, bit-identical tag).
            const int inner = records.size() == 1 ? width : 1;
            pool.parallelFor(records.size(), width, [&](std::size_t i) {
                ChunkRecord &rec = records[i];
                std::uint64_t o = rec.addr - bounce;
                std::memcpy(arena + o, data->data() + o, rec.length);
                ciphers[i]->sealInPlace(rec.iv, arena + o, rec.length,
                                        nullptr, 0, rec.tag.data(),
                                        pool, inner);
            });
        }
        s_.h2dChunks.inc(chunks);
        s_.h2dBytes.inc(length);

        Addr param_window =
            mm::kScMmio.base + mm::screg::kParamWindow;
        Addr notify = mm::kScMmio.base + mm::screg::kNotifyTransfer;

        if (config_.batchNotify) {
            // One registration write and one notify for the whole
            // region (§5 I/O-write optimization).
            writeSigned(param_window,
                        ChunkRecord::serializeBatch(records));
            writeSigned(notify, Bytes(8, 1));
            s_.ioWrites.inc(2);
        } else {
            // Non-optimized: each chunk registered separately, each
            // encryption subtask raises its own notify request.
            for (const ChunkRecord &rec : records)
                writeSigned(param_window, rec.serialize());
            for (std::uint64_t i = 0; i < subtasks; ++i)
                writeSigned(notify, Bytes(8, 1));
            s_.ioWrites.inc(records.size() + subtasks);
        }
        s_.h2dPrepareTicks.sample(curTick() - t0);
        if (tracer_->enabled())
            tracer_->complete(traceTrack(), "h2d.prepare", t0,
                              curTick() - t0);
        done(bounce);
    }, "h2d.seal");
}

Addr
Adaptor::allocD2hBounce(std::uint64_t length)
{
    return allocBounce(config_.d2hWindow, d2hCursor_, length);
}

void
Adaptor::sendVendorMessage(Bytes payload)
{
    sendTransported(pcie::Tlp::makeVendorMessage(tvm_.bdf(),
                                                 std::move(payload)),
                    /*sign=*/true);
    s_.vendorMessages.inc();
}

void
Adaptor::collectD2h(Addr bounceAddr, std::uint64_t length,
                    bool synthetic, DataCb done, bool scTerminated)
{
    if (!keys_)
        fatal("Adaptor: collectD2h before session establishment");

    auto st = std::make_shared<CollectState>();
    st->startTick = curTick();
    st->epoch = sessionEpoch_;
    st->bounceAddr = bounceAddr;
    st->length = length;
    st->synthetic = synthetic;
    st->scTerminated = scTerminated;
    st->done = std::move(done);
    fetchForCollect(std::move(st));
}

void
Adaptor::fetchForCollect(std::shared_ptr<CollectState> st)
{
    if (st->epoch != sessionEpoch_ || !keys_)
        return; // session died under this collection (crash recovery)
    auto handle = [this, st](std::vector<ChunkRecord> records) {
        if (st->epoch != sessionEpoch_ || !keys_)
            return;
        // Claim the records covering this transfer. With pipelined
        // transfers in flight a reap can surface another transfer's
        // records — park those in metaPending_ for its collect
        // instead of dropping them.
        records.insert(records.begin(),
                       std::make_move_iterator(metaPending_.begin()),
                       std::make_move_iterator(metaPending_.end()));
        metaPending_.clear();
        for (ChunkRecord &rec : records) {
            if (rec.addr >= st->bounceAddr &&
                rec.addr < st->bounceAddr + st->length)
                st->recs.push_back(std::move(rec));
            else
                metaPending_.push_back(std::move(rec));
        }
        // Sort by address. A link-level duplicate of a device write
        // yields two records for one address — keep the newest.
        std::sort(st->recs.begin(), st->recs.end(),
                  [](const ChunkRecord &a, const ChunkRecord &b) {
                      return a.addr != b.addr ? a.addr < b.addr
                                              : a.chunkId < b.chunkId;
                  });
        std::vector<ChunkRecord> uniq;
        for (ChunkRecord &rec : st->recs) {
            if (!uniq.empty() && uniq.back().addr == rec.addr)
                uniq.back() = std::move(rec);
            else
                uniq.push_back(std::move(rec));
        }
        // The records come from host-writable memory (or an MMIO
        // completion), so their lengths are untrusted: keep a record
        // only if it lies inside the transfer and starts at or after
        // the previous kept record's end. Anything else would make
        // the in-place open write past the output buffer, or two
        // lanes write the same bytes. A rejected record counts as
        // missing, so coverage and re-fetch handle it.
        const Addr end = st->bounceAddr + st->length;
        Addr next = st->bounceAddr;
        st->recs.clear();
        for (ChunkRecord &rec : uniq) {
            if (rec.addr < next || rec.length > end - rec.addr) {
                s_.d2hBadRecords.inc();
                continue;
            }
            next = rec.addr + rec.length;
            st->recs.push_back(std::move(rec));
        }

        if (!retryEnabled() || coverageComplete(*st) ||
            st->fetchAttempts >= config_.retry.maxReadRetries) {
            if (retryEnabled() && !coverageComplete(*st) &&
                st->length != 0)
                s_.recordFetchIncomplete.inc();
            finishCollect(std::move(st));
            return;
        }
        // Records may still sit behind a lost doorbell or an
        // in-flight metadata write: back off and re-fetch. The
        // doorbell/ack bookkeeping is consistent across rounds
        // because each fetch acks everything it consumed.
        ++st->fetchAttempts;
        s_.recordFetchRetries.inc();
        if (tracer_->enabled())
            tracer_->instant(traceTrack(), "record_fetch.retry",
                             curTick());
        Tick wait = config_.retry.timeoutFor(config_.retry.ackTimeout,
                                             st->fetchAttempts - 1);
        eventq().scheduleIn(wait,
                            [this, st] { fetchForCollect(st); });
    };

    if (config_.batchMetadataReads) {
        fetchRecordsBatched(std::move(handle));
    } else {
        fetchRecordsMmio(std::move(handle));
    }
}

bool
Adaptor::coverageComplete(const CollectState &st) const
{
    // recs are addr-sorted and deduped: the transfer is fully
    // described when they tile [bounceAddr, bounceAddr + length).
    Addr next = st.bounceAddr;
    for (const ChunkRecord &rec : st.recs) {
        if (rec.addr > next)
            return false;
        next = std::max(next, rec.addr + rec.length);
    }
    return next >= st.bounceAddr + st.length;
}

void
Adaptor::finishCollect(std::shared_ptr<CollectState> st)
{
    // Per-record bookkeeping and the bounce->private copy ride the
    // crypto worker lanes (each lane drains its own records), so both
    // scale with cryptoThreads; the slot-drain stall is a device
    // round trip and the notify writes are MMIO — both stay serial.
    const int width = std::max(1, config_.cryptoThreads);
    Tick cpu = timing_.perChunkSetup * st->recs.size() / width;
    if (!st->scTerminated) {
        cpu += cryptoDelay(st->length);
        // Collections larger than the staging slot stall the device
        // while earlier slots drain.
        std::uint64_t passes =
            (st->length + config_.d2hSlotBytes - 1) /
            config_.d2hSlotBytes;
        if (passes > 1)
            cpu += (passes - 1) * timing_.slotDrainStall;
    }
    if (!config_.batchNotify) {
        std::uint64_t subtasks =
            (st->length + config_.subtaskBytes - 1) /
            config_.subtaskBytes;
        cpu += timing_.perSubtaskOverhead * subtasks;
    }
    if (!st->scTerminated)
        cpu += tvm_.memcpyDelay(st->length) / width; // bounce -> private
    s_.d2hCpuTicks.sample(cpu);

    runOnCpu(cpu, [this, st = std::move(st)]() mutable {
        attemptDecrypt(std::move(st), 0);
    }, "d2h.open");
}

void
Adaptor::attemptDecrypt(std::shared_ptr<CollectState> st, int attempt)
{
    if (st->epoch != sessionEpoch_ || !keys_)
        return; // session died under this collection (crash recovery)
    if (st->ok.empty() && !st->recs.empty())
        st->ok.assign(st->recs.size(), 0);
    std::vector<std::uint64_t> failed;
    if (!st->synthetic && !st->scTerminated && !st->recs.empty()) {
        // Open mirrors prepareH2d: serial cipher fetch (the sharded
        // epoch cache may fill), then parallel verify+decrypt, then
        // a serial commit in strict record order — stats, warnings,
        // and the failed list are identical at any thread count.
        // Each record's ciphertext moves once from the pinned DMA
        // arena into its final offset in the output buffer and is
        // opened IN PLACE there (the modeled bounce->private copy).
        // The claimed records are disjoint and inside the transfer
        // (fetchForCollect), so no two lanes write the same bytes.
        const std::uint8_t *arena =
            tvm_.memory().raw(st->bounceAddr, st->length);
        if (!arena)
            fatal("Adaptor: %llu-byte collection at 0x%llx is outside "
                  "the pinned D2H window",
                  (unsigned long long)st->length,
                  (unsigned long long)st->bounceAddr);
        if (st->out.empty())
            st->out.resize(st->length);
        std::vector<std::size_t> pending;
        std::vector<const crypto::AesGcm *> ciphers(st->recs.size(),
                                                    nullptr);
        for (std::size_t i = 0; i < st->recs.size(); ++i) {
            if (st->ok[i])
                continue;
            ciphers[i] = &keys_->cipherCached(
                trust::StreamDir::DeviceToHost, st->recs[i].epoch);
            pending.push_back(i);
        }
        std::vector<char> okNow(st->recs.size(), 0);
        const int width = std::max(1, config_.cryptoThreads);
        crypto::WorkerPool &pool = crypto::WorkerPool::shared();
        // A single record parallelizes inside the payload instead.
        const int inner = pending.size() == 1 ? width : 1;
        pool.parallelFor(pending.size(), width, [&](std::size_t k) {
            const std::size_t i = pending[k];
            const ChunkRecord &rec = st->recs[i];
            std::uint64_t o = rec.addr - st->bounceAddr;
            std::uint8_t *ct = st->out.data() + o;
            std::memcpy(ct, arena + o, rec.length);
            okNow[i] = rec.tag.size() == crypto::kGcmTagSize &&
                       ciphers[i]->openInPlace(rec.iv, ct, rec.length,
                                               rec.tag.data(), nullptr,
                                               0, pool, inner);
        });
        for (std::size_t i : pending) {
            if (!okNow[i]) {
                const ChunkRecord &rec = st->recs[i];
                s_.d2hIntegrityFailures.inc();
                if (tracer_->enabled())
                    tracer_->instant(traceTrack(),
                                     "d2h.integrity_fail",
                                     curTick());
                warnRateLimited(
                    "adaptor-d2h-integrity",
                    "%s: D2H chunk %llu failed integrity",
                    name().c_str(),
                    (unsigned long long)rec.chunkId);
                failed.push_back(rec.chunkId);
                continue;
            }
            st->ok[i] = 1;
            if (attempt > 0)
                s_.faultsRecovered.inc();
        }
    }

    if (!failed.empty() && retryEnabled() &&
        attempt < config_.retry.maxReadRetries) {
        // The ciphertext in the bounce buffer was tampered with in
        // flight: ask the controller to replay the affected chunks
        // from its pristine buffer, then re-read and retry.
        for (std::uint64_t chunkId : failed) {
            Bytes v(8);
            storeLe64(v.data(), chunkId);
            writeSigned(mm::kScMmio.base + mm::screg::kChunkRetry,
                        std::move(v));
        }
        s_.d2hChunkRetries.inc(failed.size());
        if (tracer_->enabled())
            tracer_->instant(traceTrack(), "d2h.chunk_retry",
                             curTick());
        Tick wait =
            config_.retry.timeoutFor(config_.retry.ackTimeout, attempt);
        eventq().scheduleIn(wait, [this, st, attempt] {
            attemptDecrypt(st, attempt + 1);
        });
        return;
    }
    if (!failed.empty())
        s_.faultsFatal.inc(failed.size());

    Bytes plaintext;
    if (!st->out.empty()) {
        // The records opened in place at their final offsets. Steady
        // state (every chunk verified, full coverage) hands the
        // buffer over without touching it; the rare failure/shortfall
        // case compacts to the ok-chunks-only byte stream.
        std::uint64_t okBytes = 0;
        bool allOk = true;
        for (std::size_t i = 0; i < st->recs.size(); ++i) {
            if (st->ok[i])
                okBytes += st->recs[i].length;
            else
                allOk = false;
        }
        if (allOk && okBytes == st->length) {
            plaintext = std::move(st->out);
        } else {
            for (std::size_t i = 0; i < st->recs.size(); ++i) {
                if (!st->ok[i])
                    continue;
                std::uint64_t o =
                    st->recs[i].addr - st->bounceAddr;
                plaintext.insert(
                    plaintext.end(), st->out.begin() + o,
                    st->out.begin() + o + st->recs[i].length);
            }
        }
    }
    s_.d2hBytes.inc(st->length);
    s_.d2hCollectTicks.sample(curTick() - st->startTick);
    if (tracer_->enabled())
        tracer_->complete(traceTrack(), "d2h.collect", st->startTick,
                          curTick() - st->startTick);
    st->done(std::move(plaintext));
}

void
Adaptor::fetchRecordsBatched(
    std::function<void(std::vector<ChunkRecord>)> done)
{
    // Flush any records still accumulating on the controller, then
    // read the ring tail (one I/O read — it doubles as the
    // round-trip sync: the completion is sequenced on the tenant ARQ
    // channel behind the slot DMA writes) and reap the fresh slots
    // straight out of the host-memory completion ring.
    writeSigned(mm::kScMmio.base + mm::screg::kMetaDoorbell,
                Bytes(8, 1));
    tvm_.mmioRead(
        mm::kScMmio.base + mm::screg::kRecordCount, 8,
        [this, done = std::move(done)](Bytes payload) {
            std::uint64_t tail =
                payload.size() >= 8 ? loadLe64(payload.data()) : 0;
            s_.ioReads.inc(1);

            const pcie::AddrRange win = config_.metaWindow;
            const std::uint64_t nslots =
                mm::metaring::slotCount(win.size);
            // The tail is host-influenced (a forged or short
            // completion). Behind the head it would wrap the slot
            // count; more than a ring ahead it would re-read
            // recycled slots. Reap nothing and keep the head.
            if (payload.size() < 8 || tail < metaHead_ ||
                tail - metaHead_ > nslots) {
                s_.metaRingBadTail.inc();
                done({});
                return;
            }
            // Ring occupancy at reap time: produced-but-unconsumed
            // slots. High percentiles near nslots mean the consumer
            // is the bottleneck (producer hitting backpressure).
            s_.metaRingOccupancy.sample(tail - metaHead_);
            const std::uint8_t *ring =
                tvm_.memory().raw(win.base, win.size);
            std::vector<ChunkRecord> records;
            records.reserve(tail - metaHead_);
            for (std::uint64_t idx = metaHead_; idx < tail; ++idx) {
                std::uint64_t off =
                    mm::metaring::slotOffset(idx, nslots);
                records.push_back(ChunkRecord::deserialize(Bytes(
                    ring + off, ring + off + ChunkRecord::kWireBytes)));
            }

            if (tail != metaHead_) {
                // Post the consumed index (posted signed write):
                // the producer's backpressure signal, freeing the
                // slots for reuse.
                metaHead_ = tail;
                Bytes head(8);
                storeLe64(head.data(), metaHead_);
                writeSigned(mm::kScMmio.base + mm::screg::kRingHead,
                            std::move(head));
            }
            done(std::move(records));
        });
}

void
Adaptor::fetchRecordsMmio(
    std::function<void(std::vector<ChunkRecord>)> done)
{
    tvm_.mmioRead(
        mm::kScMmio.base + mm::screg::kRecordCount, 8,
        [this, done = std::move(done)](Bytes payload) {
            std::uint64_t count =
                payload.size() >= 8 ? loadLe64(payload.data()) : 0;
            s_.ioReads.inc(1);
            fetchOneRecordMmio(0, count, {}, std::move(done));
        });
}

void
Adaptor::fetchOneRecordMmio(
    std::uint64_t index, std::uint64_t count,
    std::vector<ChunkRecord> acc,
    std::function<void(std::vector<ChunkRecord>)> done)
{
    if (index >= count) {
        // Release the records on the controller.
        Bytes ack(8);
        storeLe64(ack.data(), count);
        writeSigned(mm::kScMmio.base + mm::screg::kRecordAck,
                    std::move(ack));
        done(std::move(acc));
        return;
    }
    // One full MMIO round trip per record: this is the redundant
    // I/O-read pattern §5 eliminates.
    Addr addr = mm::kScMmio.base + mm::screg::kRecordWindow +
                index * ChunkRecord::kWireBytes;
    tvm_.mmioRead(addr, ChunkRecord::kWireBytes,
                  [this, index, count, acc = std::move(acc),
                   done = std::move(done)](Bytes payload) mutable {
                      s_.ioReads.inc(1);
                      acc.push_back(ChunkRecord::deserialize(payload));
                      fetchOneRecordMmio(index + 1, count,
                                         std::move(acc),
                                         std::move(done));
                  });
}

void
Adaptor::refreshPolicy(DoneCb done)
{
    if (!policy_) {
        done();
        return;
    }
    pktFilterManage(*policy_);
    // The controller needs time to rebuild the double-buffered rule
    // tables before the request's transfers may proceed.
    runOnCpu(timing_.policyInstallLatency, std::move(done),
             "policy.install");
}

void
Adaptor::endTask(bool softResetSupported)
{
    Bytes value(8, 0);
    value[0] = softResetSupported ? 1 : 0;
    writeSigned(mm::kScMmio.base + mm::screg::kEndTask,
                std::move(value));
    if (keys_)
        keys_->destroy();
    keys_.reset();
    s_.tasksEnded.inc();
}

void
Adaptor::reset()
{
    keys_.reset();
    configCipher_.reset();
    drbg_.reset();
    h2dCursor_ = d2hCursor_ = 0;
    nextChunkId_ = 1;
    nextSeqNo_ = 1;
    metaHead_ = 0;
    metaPending_.clear();
    cpuBusyUntil_ = 0;
    txUnacked_.clear();
    txAttempts_ = 0;
    txDirty_ = false;
    retireTxTimer();
    lastGoBack_ = 0;
    ++sessionEpoch_; // retire queued CPU continuations
    stats_.reset();
}

} // namespace ccai::tvm
