/**
 * @file
 * Component-level crash recovery (robustness layer over paper §4.2
 * and §6): fault domains, a seeded replayable CrashInjector, a
 * watchdog HealthMonitor that probes the PCIe-SC / xPU / HRoT-Blade,
 * and a per-tenant recovery state machine
 *
 *   Healthy -> Suspect -> Resetting -> ReAttesting -> Resuming
 *
 * driven by the RecoveryManager. Reset fires the EnvGuard scrub and
 * tears every session down; re-attestation re-runs the PCR quote
 * verification and DHKE and re-derives workload keys; in-flight
 * guarded operations are replayed from their journaled plaintext with
 * bit-identical results. Tenants that keep failing are quarantined:
 * admission is rejected and the rest of the platform keeps serving.
 *
 * The manager is deliberately decoupled from the Platform: every
 * interaction with the machine goes through std::function hooks (the
 * EnvGuard reset-hook idiom), so this layer depends only on sim/ and
 * obs/ and is unit-testable with scripted hooks.
 */

#ifndef CCAI_CCAI_RECOVERY_HH
#define CCAI_CCAI_RECOVERY_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "ccai/chaos.hh"
#include "obs/trace.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"

namespace ccai
{

/** Period of the health-monitor heartbeat. */
inline constexpr Tick kHeartbeatPeriod = 1 * kTicksPerMs;
/**
 * Round-trip deadline for one liveness probe (MMIO heartbeat to the
 * PCIe-SC, status read from the xPU). Must exceed the worst-case
 * queueing a probe completion can see behind bulk traffic, and stay
 * well below the ARQ exhaustion time so the watchdog detects a hang
 * before retries fabricate aborts.
 */
inline constexpr Tick kProbeDeadline = 500 * kTicksPerUs;
/** Consecutive failed probe rounds before recovery starts. */
inline constexpr int kSuspectRounds = 2;
/** Modeled component reset / firmware reboot time. */
inline constexpr Tick kResetLatency = 400 * kTicksPerUs;
/** Modeled per-tenant re-attestation handshake time. */
inline constexpr Tick kReattestLatency = 200 * kTicksPerUs;
/** Extra guarded-op deadline per payload byte (crypto + wire). */
inline constexpr Tick kOpDeadlinePerByte = 400; ///< ticks (ps) per byte
/**
 * Whole-platform reset+re-attest attempts per episode before the
 * slot whose re-attestation keeps failing is quarantined.
 */
inline constexpr int kMaxEpisodeAttempts = 3;
/** Issue attempts per guarded op before its tenant is deemed
 * unrecoverable. */
inline constexpr int kMaxOpAttempts = 5;

/** Watchdog / recovery tuning. */
struct RecoveryConfig
{
    /** Flat completion-deadline margin for guarded operations. */
    Tick opDeadlineMargin = 20 * kTicksPerMs;
    /**
     * Episodes in which a tenant may have its in-flight work replayed
     * before it is quarantined as repeatedly-failing. The default
     * never quarantines on replay count alone.
     */
    std::uint32_t tenantReplayBudget = 0xffffffffu;
};

/**
 * Health monitor + recovery state machine + guarded-op journal.
 *
 * Guarded operations (roundTrip / guardedKernel) are journaled until
 * they complete; when a recovery episode invalidates in-flight work,
 * the journal re-issues it under the new session epoch. Completion
 * callbacks carry an attempt number so completions of a superseded
 * attempt (e.g. fabricated CompleterAbort data from an exhausted
 * retry budget) are discarded instead of corrupting results.
 */
class RecoveryManager : public sim::SimObject
{
  public:
    /** Round-trip result: ok + the D2H readback bytes. */
    using RoundTripCb = std::function<void(bool ok, const Bytes &)>;
    using KernelCb = std::function<void(bool ok)>;

    /** Everything the manager does to the machine goes through
     * these. Unset hooks degrade to no-ops / always-healthy. */
    struct Hooks
    {
        /** Make the component of @p domain fail. */
        std::function<void(FaultDomain)> inject;
        /** Async liveness probes; must call reply(ok) exactly once
         * (late replies are ignored via a round generation). */
        std::function<void(std::function<void(bool)>)> probeSc;
        std::function<void(std::function<void(bool)>)> probeXpu;
        /** Synchronous HRoT keep-alive. */
        std::function<bool()> probeHrot;
        /**
         * Repair every crashed component, scrub the device (EnvGuard)
         * and tear down all sessions + transport state. Synchronous;
         * the manager charges kResetLatency afterwards.
         */
        std::function<void(FaultDomain blamed)> resetPlatform;
        /** Re-run attestation + DHKE + key derivation for one slot;
         * false when the platform cannot be re-trusted. */
        std::function<bool(std::uint32_t slot)> reattest;
        /** Issue one H2D+D2H round trip for @p slot; @p done gets the
         * decrypted readback. */
        std::function<void(std::uint32_t slot, Addr devAddr,
                           const Bytes &data,
                           std::function<void(Bytes)> done)>
            issueRoundTrip;
        /** Launch + synchronize one kernel for @p slot. */
        std::function<void(std::uint32_t slot, Tick duration,
                           std::function<void()> done)>
            issueKernel;
        /** Optional notification when a slot is quarantined. */
        std::function<void(std::uint32_t slot)> onQuarantine;
        /**
         * Serving-layer drain hooks. onDomainDown fires when an
         * episode begins (the blamed component is about to be reset):
         * a scheduler above the platform should drain queued work off
         * the affected component and re-route it to healthy peers.
         * onDomainUp fires when the episode resolves and the
         * component has re-attested — it may take placements again.
         */
        std::function<void(FaultDomain)> onDomainDown;
        std::function<void(FaultDomain)> onDomainUp;
    };

    /** One detected crash and its recovery, for replay assertions. */
    struct Episode
    {
        FaultDomain domain = FaultDomain::PcieSc;
        Tick injectedAt = 0; ///< 0 when no injection was recorded
        Tick detectedAt = 0;
        Tick resolvedAt = 0;
        /** Last state before returning to Healthy: Resuming, or
         * Quarantined when no tenant was left to resume. */
        RecoveryState finalState = RecoveryState::Healthy;
        int attempts = 0;
        std::uint32_t replayedOps = 0;
        std::uint32_t quarantinedTenants = 0;

        bool operator==(const Episode &) const = default;
    };

    RecoveryManager(sim::System &sys, std::string name,
                    const RecoveryConfig &config = {});

    void setHooks(Hooks hooks) { hooks_ = std::move(hooks); }
    const RecoveryConfig &config() const { return config_; }

    /** Declare a tenant slot (0 = owner) and its requester ID. */
    void registerTenant(std::uint32_t slot, std::uint16_t bdfRaw);

    // ---- Watchdog ----

    /** Run heartbeat probes until @p horizon (absolute tick); beats
     * extend automatically while an episode or guarded op is open. */
    void startWatchdog(Tick horizon);

    // ---- Crash injection ----

    /** Schedule the injector's crash stream from now and arm the
     * watchdog across it. */
    void armChaos(const CrashConfig &config);
    const CrashInjector &injector() const { return injector_; }
    /** Inject one crash immediately (tests / operator action). */
    void injectCrash(FaultDomain domain);

    // ---- Guarded operations (journaled + replayed) ----

    /** Journal and issue an H2D+D2H round trip; replayed across
     * recovery episodes until it completes or the tenant is
     * quarantined. Returns the op id. */
    std::uint64_t roundTrip(std::uint32_t slot, Addr devAddr,
                            Bytes data, RoundTripCb done);
    /** Journal and issue a kernel launch + synchronize. */
    std::uint64_t guardedKernel(std::uint32_t slot, Tick duration,
                                KernelCb done);
    std::size_t pendingOps() const;

    // ---- State inspection ----

    RecoveryState platformState() const { return state_; }
    RecoveryState tenantState(std::uint32_t slot) const;
    bool quarantined(std::uint32_t slot) const;
    /** Admission check: true when @p bdfRaw belongs to a quarantined
     * tenant (Platform rejects re-admission). */
    bool quarantinedBdf(std::uint16_t bdfRaw) const
    {
        return quarantinedBdfs_.count(bdfRaw) != 0;
    }
    /** Quarantine a slot (policy decision or operator action). */
    void quarantine(std::uint32_t slot, const char *reason);

    const std::vector<Episode> &episodes() const { return episodes_; }
    bool episodeActive() const { return episodeActive_; }

    obs::MetricGroup &stats() { return stats_; }

  private:
    struct GuardedOp
    {
        enum class Kind
        {
            RoundTrip,
            Kernel
        };

        std::uint64_t id = 0;
        Kind kind = Kind::RoundTrip;
        Addr devAddr = 0;
        Bytes data;       ///< journaled plaintext (RoundTrip)
        Tick duration = 0; ///< Kernel
        RoundTripCb doneRt;
        KernelCb doneKernel;
        int attempts = 0; ///< issue attempts so far
        bool issued = false;
    };

    struct TenantRec
    {
        std::uint16_t bdfRaw = 0;
        RecoveryState state = RecoveryState::Healthy;
        bool quarantined = false;
        std::uint32_t replayEpisodes = 0;
        std::deque<GuardedOp> ops; ///< serialized per tenant
        /** Owned deadline timer for the in-flight head op; the
         * (id, attempt) it was armed for live beside it so a fired
         * deadline can still detect a superseded op. */
        std::unique_ptr<sim::EventFunctionWrapper> opTimer;
        std::uint64_t opTimerId = 0;
        int opTimerAttempt = 0;
    };

    struct ProbeRound
    {
        bool scOk = false;
        bool xpuOk = false;
        bool hrotOk = false;
        bool fromOpTimeout = false;
    };

    void setState(RecoveryState next);
    void scheduleBeat();
    void beat();
    bool anyTenantAlive() const;
    bool continueBeats() const;
    void startProbeRound(bool fromOpTimeout);
    void evaluateProbeRound();
    void beginEpisode(FaultDomain domain);
    void runResetPhase();
    void runReattestPhase();
    void reattestSlot(std::size_t idx);
    void runResumePhase();
    void finishEpisode();

    std::uint64_t submitOp(std::uint32_t slot, GuardedOp op);
    void issueHead(std::uint32_t slot);
    void armOpDeadline(std::uint32_t slot, std::uint64_t id,
                       int attempt, Tick deadline);
    void onOpComplete(std::uint32_t slot, std::uint64_t id,
                      int attempt, Bytes readback);
    void onOpDeadline(std::uint32_t slot, std::uint64_t id,
                      int attempt);
    void failAllOps(std::uint32_t slot);
    void reissueStalledHeads();
    Tick opDeadline(const GuardedOp &op) const;

    obs::TrackId traceTrack()
    {
        return tracer_->trackCached(track_, "recovery");
    }

    RecoveryConfig config_;
    Hooks hooks_;
    CrashInjector injector_;

    RecoveryState state_ = RecoveryState::Healthy;
    Tick stateSince_ = 0;

    bool watchdogArmed_ = false;
    /** Owned heartbeat timer, re-armed in place each beat. */
    sim::EventFunctionWrapper beatTimer_;
    Tick horizon_ = 0;

    bool probeInFlight_ = false;
    /** Guards in-flight probe hook callbacks (not queue events). */
    std::uint64_t probeGen_ = 0;
    /** Owned probe-round evaluation deadline. */
    sim::EventFunctionWrapper probeTimer_;
    ProbeRound round_;
    int suspectRounds_ = 0;
    Tick suspectAt_ = 0;

    bool episodeActive_ = false;
    std::uint64_t episodeGen_ = 0;
    int episodeAttempts_ = 0;
    std::vector<std::uint32_t> episodeOrder_;
    std::vector<Episode> episodes_;

    /** Tick each domain's outstanding (undetected) crash landed. */
    Tick outstandingSince_[kFaultDomainCount] = {0, 0, 0};

    std::map<std::uint32_t, TenantRec> tenants_;
    std::set<std::uint16_t> quarantinedBdfs_;
    std::uint64_t nextOpId_ = 1;

    obs::MetricGroup stats_;

    /** Typed handles resolved once (observability plane idiom). */
    struct Handles
    {
        explicit Handles(obs::MetricGroup &g);

        obs::CounterHandle crashesInjected;
        obs::CounterHandle crashesPcieSc;
        obs::CounterHandle crashesXpu;
        obs::CounterHandle crashesHrot;
        obs::CounterHandle watchdogBeats;
        obs::CounterHandle probeRounds;
        obs::CounterHandle probeTimeouts;
        obs::CounterHandle falseAlarms;
        obs::CounterHandle episodesStarted;
        obs::CounterHandle episodesResolved;
        obs::CounterHandle resets;
        obs::CounterHandle reattests;
        obs::CounterHandle reattestFailures;
        obs::CounterHandle stateSuspect;
        obs::CounterHandle stateResetting;
        obs::CounterHandle stateReattesting;
        obs::CounterHandle stateResuming;
        obs::CounterHandle opsSubmitted;
        obs::CounterHandle opsCompleted;
        obs::CounterHandle opsFailed;
        obs::CounterHandle opReplays;
        obs::CounterHandle opDeadlines;
        obs::CounterHandle opStaleCompletions;
        obs::CounterHandle quarantines;

        obs::HistogramHandle detectLatencyTicks;
        obs::HistogramHandle recoveryLatencyTicks;
        obs::HistogramHandle opLatencyTicks;
    } s_;

    /** Submit tick per open op id, for the op-latency histogram. */
    std::map<std::uint64_t, Tick> opSubmitTick_;

    obs::Tracer *tracer_;
    obs::TrackId track_ = obs::kNoTrack;
};

} // namespace ccai

#endif // CCAI_CCAI_RECOVERY_HH
