/**
 * @file
 * Fleet-scale multi-tenant serving simulator with an overload-robust
 * control plane: an open-loop load generator drives secure inference
 * sessions from thousands of tenants across a heterogeneous xPU
 * fleet through admission control (per-tenant token buckets, bounded
 * per-device queues, deadline-aware shedding), client-side capped
 * jittered exponential backoff retry, and health-aware least-loaded
 * routing, and reports SLO percentiles (TTFT, TPS, end-to-end
 * latency) over the admitted population.
 *
 * Every tenant owns a Poisson or trace-driven ArrivalProcess fed by
 * its own Rng stream (derived from one root seed) plus a separate
 * retry Rng for backoff jitter, so enabling retries never perturbs
 * the arrival draws. Requests carry their own absolute deadline
 * (firstArrival + sloDeadline); an SLO miss is charged at completion
 * time when the request finished late — per request, never the old
 * one-shared-timer-per-tenant undercount. Devices price prefill and
 * per-token decode with the whole-model llm/roofline.hh plus one
 * kernel launch per pass, scaled by the protection backend's
 * compute-overhead factor.
 *
 * A seeded crash schedule (ccai::CrashInjector, xPU domain) can kill
 * devices mid-serving: the victim's queued and in-flight requests
 * drain through the FleetRouter to healthy devices — paying the
 * backend's session-establishment cost again for the re-placement —
 * while the victim walks Resetting -> ReAttesting -> Healthy and
 * rejoins the fleet. Admitted requests are never lost: they either
 * complete (possibly late) or are counted shed-on-deadline.
 */

#ifndef CCAI_SERVE_LOAD_GENERATOR_HH
#define CCAI_SERVE_LOAD_GENERATOR_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backend/protection_backend.hh"
#include "ccai/chaos.hh"
#include "llm/model_spec.hh"
#include "obs/metric_group.hh"
#include "serve/admission.hh"
#include "serve/arrival.hh"
#include "serve/router.hh"
#include "sim/sim_object.hh"
#include "xpu/xpu_spec.hh"

namespace ccai::serve
{

/** Workload shape shared by every tenant. */
struct TenantProfile
{
    /** Aggregate offered load (req/s) split evenly over tenants. */
    double aggregateRatePerSec = 20.0;
    /** Optional inter-arrival trace (ticks); overrides Poisson. */
    std::vector<Tick> traceGaps;
    std::uint32_t promptTokens = 128;
    std::uint32_t genTokens = 32;
    /** Per-request completion deadline for the SLO-miss counter. */
    Tick sloDeadline = 8 * kTicksPerSec;
};

/** Client-side retry policy for shed requests. */
struct RetryConfig
{
    bool enabled = false;
    /** Total admission attempts per request, first one included. */
    std::uint32_t maxAttempts = 3;
    /** First retry delay before jitter. */
    Tick baseBackoff = kTicksPerSec / 100;
    /** Exponential backoff cap. */
    Tick maxBackoff = kTicksPerSec;
};

/** Mid-serving crash injection (xPU domain only). */
struct ChaosConfig
{
    bool enabled = false;
    /** Mean xPU crashes per simulated second over the horizon. */
    double xpuCrashesPerSec = 0.0;
    /** Explicit crash ticks; overrides the rate when non-empty. */
    std::vector<Tick> crashAt;
    /** Victim walk: Resetting then ReAttesting, then rejoin. */
    Tick resetTicks = kTicksPerSec / 10;
    Tick reattestTicks = kTicksPerSec / 5;
};

/** One serving experiment's configuration. */
struct ServeConfig
{
    std::uint32_t tenants = 100;
    std::uint64_t seed = 1;
    /** Arrivals stop here; queued work drains afterwards. */
    Tick horizon = 20 * kTicksPerSec;
    /** 0 = unbounded until the horizon. */
    std::uint32_t maxRequestsPerTenant = 0;

    /**
     * Secure sessions: compute inflated by the protection backend's
     * compute-overhead factor plus its per-request setup cost, both
     * taken from backend::costModelFor(protection). This replaces
     * the old free-floating secureComputeOverhead/secureSetupTicks
     * knobs, which duplicated the backend cost model.
     */
    bool secure = true;
    backend::Kind protection = backend::Kind::CcaiSc;

    llm::ModelSpec model = llm::ModelSpec::llama2_7b();
    /** Fleet devices; tenants are assigned round-robin. */
    std::vector<xpu::XpuSpec> fleet;
    TenantProfile profile;

    /**
     * Health-aware least-loaded routing. Off, each tenant stays
     * pinned to its round-robin device (the original plane); chaos
     * forces it on — crash drain needs somewhere to re-place work.
     */
    bool leastLoadedRouting = false;
    /** Sample fleet health every this many ticks; 0 = no probe. */
    Tick healthProbeInterval = 0;

    AdmissionConfig admission;
    RetryConfig retry;
    ChaosConfig chaos;
};

/**
 * Aggregated results of one run (simulated time only).
 *
 * Request ledger: arrivals = admitted + shedOnAdmit, and
 * admitted = completed + shedOnDeadline once the queue drained —
 * no admitted request is ever lost, crashes included. issued counts
 * admission attempts (arrivals + retries), keeping its historical
 * meaning when retries are off. Latency percentiles cover admitted
 * requests only; shed requests never enter the samples.
 */
struct ServeReport
{
    std::uint64_t issued = 0; ///< admission attempts
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t sloMisses = 0;

    std::uint64_t shedOnAdmit = 0;
    std::uint64_t shedOnDeadline = 0;
    std::uint64_t shedRate = 0;
    std::uint64_t shedQueueFull = 0;
    std::uint64_t shedDeadlineAdmit = 0;
    std::uint64_t shedNoDevice = 0;

    std::uint64_t retries = 0;
    std::uint64_t retriesExhausted = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t crashes = 0;

    double simSeconds = 0.0;
    /** Deadline-met completions per offered second of the horizon. */
    double goodputPerSec = 0.0;

    double ttftP50 = 0.0, ttftP95 = 0.0, ttftP99 = 0.0;
    double tpsP50 = 0.0, tpsP5 = 0.0;
    double e2eP50 = 0.0, e2eP95 = 0.0, e2eP99 = 0.0;
};

/**
 * The load generator. start() arms every tenant's first arrival;
 * running the event queue to drain then completes all admitted
 * requests. Identical (config, seed) pairs replay identically.
 */
class LoadGenerator : public sim::SimObject
{
  public:
    LoadGenerator(sim::System &sys, std::string name,
                  const ServeConfig &config);

    /** Schedule every tenant's first arrival (and crash schedule). */
    void start();

    /** Aggregate results (call after the queue drained). */
    ServeReport report() const;

    std::uint64_t issued() const { return s_.issued.value(); }
    std::uint64_t completed() const { return s_.completed.value(); }

    /** Completion ticks of late requests (SLO-miss burst analysis). */
    const std::vector<Tick> &missTicks() const { return missTicks_; }
    /** Ticks at which a device crashed (recovery-window analysis). */
    const std::vector<Tick> &crashTicks() const
    {
        return crashTicks_;
    }

    const FleetRouter &router() const { return router_; }

    /**
     * Roofline whole-request service estimate on one device
     * (prefill + genTokens mid-sequence decode steps), computed once
     * at construction. Public so benchmarks can size offered load
     * against fleet capacity.
     */
    Tick serviceEstimate(std::uint32_t device) const
    {
        return router_.serviceEstimate(device);
    }

  private:
    struct Request
    {
        std::uint32_t tenant = 0;
        /** Global admit order; deterministic retry/ledger key. */
        std::uint64_t id = 0;
        Tick firstArrival = 0;
        /** firstArrival + sloDeadline; fixed across retries. */
        Tick deadline = 0;
        Tick ttftTick = 0;
        /** TTFT sampled once even if a crash forces a re-prefill. */
        bool ttftRecorded = false;
        std::uint32_t stepsDone = 0;
        std::uint32_t attempts = 1;
        /** Crash re-placements pay session establishment again. */
        Tick extraSetup = 0;
        /** This request's backlog contribution on its device. */
        Tick estimate = 0;
    };

    struct TenantState
    {
        sim::Rng rng;      ///< arrival stream
        sim::Rng retryRng; ///< backoff jitter
        ArrivalProcess arrivals;
        std::uint32_t device = 0; ///< round-robin pin (routing off)
        std::uint32_t issued = 0;
        sim::EventFunctionWrapper arrivalTimer;
        sim::EventFunctionWrapper retryTimer;
        /** Backoff-pending requests keyed (dueTick, request id). */
        std::map<std::pair<Tick, std::uint64_t>, Request>
            pendingRetries;

        TenantState(std::uint64_t seed, std::uint64_t retrySeed,
                    ArrivalProcess ap)
            : rng(seed), retryRng(retrySeed), arrivals(std::move(ap))
        {}
    };

    struct DeviceState
    {
        xpu::XpuSpec spec;
        std::deque<Request> queue;
        Request active;
        bool busy = false;
        bool prefilling = false;
        sim::EventFunctionWrapper stepTimer;
        sim::EventFunctionWrapper recoveryTimer;
    };

    void onArrival(std::uint32_t tenant);
    void onRetryDue(std::uint32_t tenant);
    void onDeviceStep(std::uint32_t device);
    void onCrash();
    void onRecoveryStep(std::uint32_t device);
    void onHealthProbe();
    void startNext(std::uint32_t device);

    /** Run one admission attempt; sheds schedule retries. */
    void attemptAdmit(Request req, bool rerouted);
    void enqueue(Request req, std::uint32_t device);
    void scheduleRetryOrGiveUp(Request req, AdmitDecision decision);
    void armRetryTimer(TenantState &t);
    void finishRequest(std::uint32_t device);
    void reroute(Request req);
    void drainOrphans();
    void recordShedAttempt(AdmitDecision decision);

    Tick prefillTicks(const xpu::XpuSpec &spec) const;
    Tick decodeStepTicks(const xpu::XpuSpec &spec,
                         std::uint32_t seqLen) const;
    Tick secureScaled(Tick t) const;
    /** serviceEstimate() of every fleet device, for the router.
     * Reads only config_ and cost_, which are built before router_. */
    std::vector<Tick> serviceEstimates() const;

    ServeConfig config_;
    /** Resolved once from config_.protection. */
    backend::CostModel cost_;
    std::vector<std::unique_ptr<TenantState>> tenants_;
    std::vector<std::unique_ptr<DeviceState>> devices_;

    AdmissionController admission_;
    FleetRouter router_;

    /** Crash schedule walk (chaos only). */
    CrashInjector crashInjector_;
    std::vector<CrashEvent> crashSchedule_;
    std::size_t nextCrash_ = 0;
    sim::Rng chaosRng_;
    sim::EventFunctionWrapper chaosTimer_;
    sim::EventFunctionWrapper probeTimer_;

    /** Admitted work with nowhere to run (whole fleet down). */
    std::deque<Request> orphans_;

    std::uint64_t nextRequestId_ = 0;
    /** The two ledger facts without a counter in stats_. */
    std::uint64_t shedDeadlineAdmit_ = 0;
    std::uint64_t retriesExhausted_ = 0;

    std::vector<double> ttftSeconds_;
    std::vector<double> tpsValues_;
    std::vector<double> e2eSeconds_;
    std::vector<Tick> missTicks_;
    std::vector<Tick> crashTicks_;

    obs::MetricGroup stats_;
    struct Handles
    {
        explicit Handles(obs::MetricGroup &g);
        obs::CounterHandle issued;
        obs::CounterHandle arrivals;
        obs::CounterHandle admitted;
        obs::CounterHandle completed;
        obs::CounterHandle sloMisses;
        obs::CounterHandle shedOnAdmit;
        obs::CounterHandle shedOnDeadline;
        obs::CounterHandle shedRate;
        obs::CounterHandle shedQueueFull;
        obs::CounterHandle shedNoDevice;
        obs::CounterHandle retries;
        obs::CounterHandle rerouted;
        obs::CounterHandle crashes;
        obs::HistogramHandle ttftTicks;
        obs::HistogramHandle e2eTicks;
        obs::HistogramHandle backoffTicks;
        obs::HistogramHandle queueDepth;
        obs::HistogramHandle healthyDevices;
    } s_;
};

} // namespace ccai::serve

#endif // CCAI_SERVE_LOAD_GENERATOR_HH
