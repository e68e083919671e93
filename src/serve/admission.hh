/**
 * @file
 * Admission control for the serving control plane: per-tenant
 * token-bucket rate limiting, bounded per-device queues and
 * deadline-feasibility shedding, decided once at arrival so an
 * overloaded fleet rejects work it cannot finish instead of
 * queueing it into guaranteed SLO misses.
 *
 * Everything here is deterministic: the token bucket refills lazily
 * from elapsed simulated ticks (no wall clock, no randomness), so a
 * replay with the same seed and config reproduces every admit/shed
 * decision bit for bit.
 */

#ifndef CCAI_SERVE_ADMISSION_HH
#define CCAI_SERVE_ADMISSION_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ccai::serve
{

/** Admission policy knobs. Defaults keep every check disabled. */
struct AdmissionConfig
{
    /** Master switch; false restores the admit-everything plane. */
    bool enabled = false;
    /** Per-tenant sustained admit rate (req/s); 0 = no rate limit. */
    double tokenRatePerSec = 0.0;
    /** Burst capacity of each tenant's bucket, in requests. */
    double tokenBurst = 8.0;
    /** Per-device queue bound (requests); 0 = unbounded. */
    std::uint32_t maxQueueDepth = 0;
    /**
     * Shed requests whose roofline completion estimate already
     * overruns their deadline — at admission and again at dispatch.
     */
    bool deadlineShedding = false;
};

/** Outcome of one admission attempt. */
enum class AdmitDecision
{
    Admit,
    ShedRate,      ///< tenant token bucket empty
    ShedQueueFull, ///< target device queue at its bound
    ShedDeadline,  ///< completion estimate overruns the deadline
    ShedNoDevice,  ///< no healthy device in the fleet
};

/** Stable lowercase name ("admit", "shed_rate", ...). */
const char *admitDecisionName(AdmitDecision decision);

/** May a retry later succeed where this decision shed? */
inline bool
retryable(AdmitDecision decision)
{
    // Deadline sheds are final: waiting only moves the estimate
    // further past the deadline. Everything else is transient.
    return decision == AdmitDecision::ShedRate ||
           decision == AdmitDecision::ShedQueueFull ||
           decision == AdmitDecision::ShedNoDevice;
}

/**
 * Deterministic token bucket over simulated time. Tokens refill
 * lazily on each tryTake from the tick delta since the last refill,
 * capped at the burst size.
 */
class TokenBucket
{
  public:
    TokenBucket() = default;
    TokenBucket(double ratePerSec, double burst);

    /** Consume one token at @p now; false when the bucket is dry. */
    bool tryTake(Tick now);

  private:
    double ratePerTick_ = 0.0;
    double burst_ = 0.0;
    double tokens_ = 0.0;
    Tick lastRefill_ = 0;
};

/**
 * One admission attempt's inputs, gathered by the caller (the load
 * generator knows the router's device pick and the roofline service
 * estimate; admission only applies policy to them).
 */
struct AdmitContext
{
    std::uint32_t tenant = 0;
    Tick now = 0;
    /** Router found a Healthy device for this request. */
    bool deviceAvailable = false;
    /** Queue depth on the chosen device. */
    std::uint32_t queueDepth = 0;
    /** now + device backlog + this request's service estimate. */
    Tick estimatedCompletion = 0;
    /** Absolute completion deadline (firstArrival + sloDeadline). */
    Tick deadline = 0;
    /**
     * Crash-drain re-placements bypass the token bucket and the
     * queue bound: the request was already admitted once and must
     * not be lost to its device dying.
     */
    bool rerouted = false;
};

/**
 * The per-fleet admission controller: one token bucket per tenant
 * plus the stateless queue/deadline checks, applied in a fixed
 * order (device -> rate -> queue -> deadline) so replays shed for
 * identical reasons.
 */
class AdmissionController
{
  public:
    AdmissionController(const AdmissionConfig &config,
                        std::uint32_t tenants);

    /**
     * Decide one attempt. Consumes a token exactly when the rate
     * check is reached and passes; a later queue/deadline shed does
     * not refund it (the tenant spent its slot on an unservable
     * request — standard bucket semantics, and deterministic).
     */
    AdmitDecision decide(const AdmitContext &ctx);

    const AdmissionConfig &config() const { return config_; }

  private:
    AdmissionConfig config_;
    std::vector<TokenBucket> buckets_;
};

} // namespace ccai::serve

#endif // CCAI_SERVE_ADMISSION_HH
