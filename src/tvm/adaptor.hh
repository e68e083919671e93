/**
 * @file
 * The ccAI Adaptor (paper §3/§7.1): a kernel module inside the TVM
 * that adds confidential-computing support without touching the
 * native xPU driver or the application. It encrypts workloads into
 * bounce buffers, registers chunk parameters with the PCIe-SC,
 * collects and decrypts results, signs Write-Protected (A3) packets,
 * and manages the PCIe-SC's configuration (rule tables, doorbells).
 *
 * The §5 optimizations are individually switchable so the Figure 11
 * ablation can run the non-optimized design:
 *  - metadata batching (I/O read optimization): the Adaptor owns this
 *    switch and names the mode to the PCIe-SC in its hw_init
 *    kControl write,
 *  - single-notify writes (I/O write optimization),
 *  - AES-NI hardware crypto and parallel crypto threads.
 *
 * Every posted write the Adaptor sends rides its tenant's ARQ channel
 * (pcie/transport.hh); the retry policy is a set of constants, not a
 * configuration.
 */

#ifndef CCAI_TVM_ADAPTOR_HH
#define CCAI_TVM_ADAPTOR_HH

#include <functional>
#include <optional>

#include "backend/chunk_record.hh"
#include "backend/integrity.hh"
#include "backend/policy.hh"
#include "obs/metric_group.hh"
#include "obs/trace.hh"
#include "pcie/transport.hh"
#include "sim/event_queue.hh"
#include "trust/key_manager.hh"
#include "tvm/tvm.hh"

namespace ccai::tvm
{

/** Which §5 optimizations are active. */
struct AdaptorConfig
{
    /** I/O-read optimization: consume batched metadata from the
     * host-memory completion ring instead of per-record MMIO reads.
     * hwInit() tells the PCIe-SC through the kControl ring-mode bit,
     * so this is the only switch for the mode. */
    bool batchMetadataReads = true;
    /** I/O-write optimization: one notify per processed region
     * instead of one per encryption subtask. */
    bool batchNotify = true;
    /** Use AES-NI-class hardware crypto instead of software AES. */
    bool hardwareCrypto = true;
    /** Parallel CPU threads for security operations. */
    int cryptoThreads = 2;

    /** Bounce-buffer chunk granularity. */
    std::uint64_t chunkBytes = 256 * kKiB;
    /**
     * D2H staging-slot size: when one collection exceeds the slot,
     * the device must wait for the Adaptor to drain it before
     * writing more, serializing DMA with decryption (a prototype
     * bounce-buffer capacity effect, visible in the paper's batch
     * sweep as the overhead rise beyond ~12 sequences).
     */
    std::uint64_t d2hSlotBytes = 1 * kMiB;

    /** Fully non-optimized configuration (Figure 11 baseline). */
    static AdaptorConfig
    noOptimizations()
    {
        AdaptorConfig c;
        c.batchMetadataReads = false;
        c.batchNotify = false;
        c.hardwareCrypto = false;
        c.cryptoThreads = 1;
        return c;
    }
};

/**
 * One tenant's slices of the shared bounce and metadata regions. The
 * Platform carves them per tenant slot; a single-tenant platform
 * gives slot 0 the whole regions, matching the paper's prototype.
 */
struct TenantWindows
{
    pcie::AddrRange h2d;
    pcie::AddrRange d2h;
    pcie::AddrRange meta;
};

/*
 * CPU-side crypto/copy timing of the Adaptor.
 */

/** AES-NI throughput per thread (bytes/s). */
constexpr double kAesNiBytesPerSec = 4.5e9;
/** Software AES throughput per thread (bytes/s). */
constexpr double kSoftAesBytesPerSec = 0.40e9;
/** Fixed CPU cost per chunk (record build, IV, bookkeeping). */
constexpr Tick kPerChunkSetup = 400 * kTicksPerNs;
/** Subtask granularity of the non-optimized design. */
constexpr std::uint64_t kSubtaskBytes = 4 * kKiB;
/** Extra CPU cost per subtask in the non-optimized design. */
constexpr Tick kPerSubtaskOverhead = 700 * kTicksPerNs;
/**
 * Latency for the PCIe-SC to rebuild its rule tables after an
 * encrypted policy update (FPGA table install). Paid once per
 * request when the per-request bounce windows are refreshed.
 */
constexpr Tick kPolicyInstallLatency = 900 * kTicksPerUs;
/**
 * Pipeline stall per extra D2H slot pass (device blocked on the
 * Adaptor draining the staging slot: slot decrypt + doorbell
 * round trip).
 */
constexpr Tick kSlotDrainStall = 100 * kTicksPerUs;

/**
 * The Adaptor kernel module.
 */
class Adaptor : public sim::SimObject
{
  public:
    using DoneCb = std::function<void()>;
    using DataCb = std::function<void(Bytes)>;

    Adaptor(sim::System &sys, std::string name, Tvm &tvm,
            const AdaptorConfig &config, const TenantWindows &windows);

    /**
     * hw_init: reset interaction state with the PCIe-SC and send the
     * signed kControl write that enables the engines and names this
     * tenant's record-collection mode (batchMetadataReads).
     */
    void hwInit();

    /**
     * Establish the confidential session from the attestation
     * secret: derive workload keys, the A3 signing key, and the
     * filter-config key (must match PcieSc::establishTenant). The
     * H2D keys this end seals with rotate to a new epoch when their
     * IV counter reaches @p ivExhaustionLimit.
     */
    void establishSession(const Bytes &sessionSecret,
                          std::uint32_t ivExhaustionLimit);

    /**
     * Crash recovery: tear the session down without the end-task
     * doorbell (the controller may be dead and would drop it).
     * Destroys the workload keys, drops the ARQ sender window, and
     * bumps the session epoch so in-flight CPU continuations from
     * the dead session no-op instead of touching fresh keys.
     */
    void abortSession();

    /** True while a confidential session is established. */
    bool sessionActive() const { return keys_ != nullptr; }

    /**
     * Watchdog liveness probes: non-posted reads of the PCIe-SC
     * heartbeat register (resp. the xPU status register); @p cb
     * receives whether the reply looks alive. Against a dead device
     * the completion may never arrive (or arrive late as a
     * fabricated abort) — the watchdog's own probe deadline, not
     * this callback, decides the round.
     */
    void pingSc(std::function<void(bool)> cb);
    void pingXpu(std::function<void(bool)> cb);

    /**
     * pkt_filter_manage: encrypt the rule tables under the config
     * key and write them into the PCIe-SC's rule BAR.
     */
    void pktFilterManage(const backend::RuleTables &tables);

    /**
     * Prepare an H2D transfer: encrypt bytes [offset, offset + length)
     * of @p data (nullptr: a synthetic region of @p length bytes)
     * into the H2D bounce buffer, register the chunk records, and
     * notify the PCIe-SC. The seal reads the caller's bytes in place;
     * @p data stays alive until it has run.
     *
     * @param done receives the bounce address the device should
     *             DMA from.
     */
    void prepareH2d(std::shared_ptr<const Bytes> data,
                    std::uint64_t offset, std::uint64_t length,
                    std::function<void(Addr)> done,
                    bool scTerminated = false);

    /**
     * Collect a completed D2H transfer from the bounce buffer:
     * fetch the chunk records (batched or per-record), decrypt, and
     * deliver the plaintext (empty for synthetic transfers).
     */
    void collectD2h(Addr bounceAddr, std::uint64_t length,
                    bool synthetic, DataCb done,
                    bool scTerminated = false);

    /** Sign and send an A3 (Write Protected) MMIO write. */
    void writeSigned(Addr addr, Bytes data);

    /** Reserve a window in the D2H bounce buffer for a transfer. */
    Addr allocD2hBounce(std::uint64_t length);

    /**
     * Send a signed vendor-defined management message (paper §9:
     * customized packets keep the standard header format, so the
     * PCIe-SC can classify and integrity-check them via rules).
     */
    void sendVendorMessage(Bytes payload);

    /** Send the end-of-task doorbell (environment scrub, §4.2). */
    void endTask(bool softResetSupported);

    /** Remember the session policy for per-request refreshes. */
    void setPolicy(const backend::RuleTables &tables) { policy_ = tables; }

    /**
     * Re-install the session policy (per-request bounce windows) and
     * wait out the controller's table-install latency. No-op when no
     * policy was set.
     */
    void refreshPolicy(DoneCb done);

    const AdaptorConfig &config() const { return config_; }
    const TenantWindows &windows() const { return windows_; }
    trust::WorkloadKeyManager *keyManager() { return keys_.get(); }
    obs::MetricGroup &stats() { return stats_; }

    /** CPU time to encrypt/decrypt @p bytes with current config. */
    Tick cryptoDelay(std::uint64_t bytes) const;

  private:
    /** In-flight state of one D2H collection under retry. */
    struct CollectState
    {
        Addr bounceAddr = 0;
        std::uint64_t length = 0;
        bool synthetic = false;
        bool scTerminated = false;
        DataCb done;
        /** Deduped, addr-sorted, disjoint and inside the transfer. */
        std::vector<backend::ChunkRecord> recs;
        Bytes out; ///< zero-copy output (opened in place per record)
        std::vector<char> ok;              ///< per-record decrypt ok
        int fetchAttempts = 0;
        Tick startTick = 0; ///< collectD2h() entry, for latency stats
        std::uint64_t epoch = 0; ///< sessionEpoch_ at submission
    };

    /**
     * Serialize work on the Adaptor's CPU context. @p stage names
     * the span on the adaptor's trace track (nullptr: untraced).
     */
    void runOnCpu(Tick duration, DoneCb then,
                  const char *stage = nullptr);

    /**
     * Stamp, (optionally) sign and send a posted TLP through the
     * tenant's ARQ channel: the TLP enters the unacked window and is
     * retransmitted on NAK or ack timeout.
     * The MAC is computed after the ARQ fields are set (the header
     * MAC covers them, so stripping ackRequired in flight fails
     * verification).
     */
    void sendTransported(pcie::Tlp tlp, bool sign);

    void fetchForCollect(std::shared_ptr<CollectState> st);
    void finishCollect(std::shared_ptr<CollectState> st);
    void attemptDecrypt(std::shared_ptr<CollectState> st, int attempt);
    bool coverageComplete(const CollectState &st) const;

    Addr allocBounce(pcie::AddrRange region, Addr &cursor,
                     std::uint64_t length);
    void fetchRecordsBatched(std::function<void(
                                 std::vector<backend::ChunkRecord>)> done);
    void fetchRecordsMmio(std::function<void(
                              std::vector<backend::ChunkRecord>)> done);
    void fetchOneRecordMmio(std::uint64_t index, std::uint64_t count,
                            std::vector<backend::ChunkRecord> acc,
                            std::function<void(
                                std::vector<backend::ChunkRecord>)> done);

    Tvm &tvm_;
    AdaptorConfig config_;
    TenantWindows windows_;

    std::unique_ptr<trust::WorkloadKeyManager> keys_;
    backend::SignIntegrityEngine signer_; ///< A3 MAC computation
    std::optional<crypto::AesGcm> configCipher_;
    std::unique_ptr<crypto::Drbg> drbg_;
    std::optional<backend::RuleTables> policy_;

    Addr h2dCursor_ = 0;
    Addr d2hCursor_ = 0;
    std::uint64_t nextChunkId_ = 1;
    /** Completion ring: absolute consumed-record index (mirrors the
     * controller's metaHead; posted back via screg::kRingHead). */
    std::uint64_t metaHead_ = 0;
    /**
     * Records reaped from the completion ring (or fetched via MMIO)
     * that belong to a transfer not being collected yet: with
     * pipelined transfers in flight, one collect's reap can surface
     * the next transfer's records — they wait here instead of being
     * dropped.
     */
    std::vector<backend::ChunkRecord> metaPending_;
    Tick cpuBusyUntil_ = 0;

    /**
     * Bumped on every establishSession()/abortSession(). CPU-side
     * continuations (seal/open stages, record fetches) capture the
     * epoch they were queued under and bail on mismatch: runOnCpu
     * delays can outlast a crash-recovery reset + re-attestation
     * window, and a stale continuation must not seal under the new
     * session's keys (a keys_-null check alone cannot tell the
     * sessions apart).
     */
    std::uint64_t sessionEpoch_ = 0;

    obs::MetricGroup stats_;

    /**
     * Typed handles into stats_, resolved once at construction so
     * the per-chunk/per-write paths never do a string-keyed lookup.
     */
    struct Handles
    {
        explicit Handles(obs::MetricGroup &g);

        obs::CounterHandle faultsRecovered;
        obs::CounterHandle faultsFatal;
        obs::CounterHandle policyUpdates;
        obs::CounterHandle signedWrites;
        obs::CounterHandle h2dChunks;
        obs::CounterHandle h2dBytes;
        obs::CounterHandle d2hBytes;
        obs::CounterHandle ioWrites;
        obs::CounterHandle ioReads;
        obs::CounterHandle vendorMessages;
        obs::CounterHandle recordFetchIncomplete;
        obs::CounterHandle recordFetchRetries;
        obs::CounterHandle d2hIntegrityFailures;
        obs::CounterHandle d2hChunkRetries;
        obs::CounterHandle tasksEnded;
        /** Fail-closed rejections of host-influenced ring input: a
         * D2H record outside its transfer or overlapping another,
         * and a completion-ring tail outside [head, head + slots]. */
        obs::CounterHandle d2hBadRecords;
        obs::CounterHandle metaRingBadTail;
        /** Records of a real collection that failed their tag check
         * and claim a length-only device write: the PCIe-SC sealed
         * nothing and kept no replay copy, so the collection fails
         * at once instead of asking for replays. */
        obs::CounterHandle d2hSyntheticRecords;

        /** Completion-ring occupancy (produced - consumed) sampled
         * at each batched record reap. */
        obs::HistogramHandle metaRingOccupancy;
        obs::HistogramHandle cpuQueueTicks;   ///< runOnCpu wait
        obs::HistogramHandle h2dCpuTicks;     ///< seal-stage CPU time
        obs::HistogramHandle d2hCpuTicks;     ///< open-stage CPU time
        obs::HistogramHandle h2dPrepareTicks; ///< prepareH2d e2e
        obs::HistogramHandle d2hCollectTicks; ///< collectD2h e2e
    } s_;

    /** Downstream ARQ channel (writes awaiting the SC's ack). */
    pcie::ArqSender arq_;

    obs::Tracer *tracer_;
    obs::TrackId track_ = obs::kNoTrack;

    /** This adaptor's trace track (lazily named after the object). */
    obs::TrackId
    traceTrack()
    {
        return tracer_->trackCached(track_, name());
    }
};

} // namespace ccai::tvm

#endif // CCAI_TVM_ADAPTOR_HH
