#include "serve/admission.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ccai::serve
{

const char *
admitDecisionName(AdmitDecision decision)
{
    switch (decision) {
      case AdmitDecision::Admit:
        return "admit";
      case AdmitDecision::ShedRate:
        return "shed_rate";
      case AdmitDecision::ShedQueueFull:
        return "shed_queue_full";
      case AdmitDecision::ShedDeadline:
        return "shed_deadline";
      case AdmitDecision::ShedNoDevice:
        return "shed_no_device";
    }
    return "unknown";
}

TokenBucket::TokenBucket(double ratePerSec, double burst)
    : ratePerTick_(ratePerSec / static_cast<double>(kTicksPerSec)),
      burst_(burst), tokens_(burst)
{}

bool
TokenBucket::tryTake(Tick now)
{
    ccai_assert(now >= lastRefill_);
    tokens_ = std::min(
        burst_, tokens_ + ratePerTick_ * static_cast<double>(
                                             now - lastRefill_));
    lastRefill_ = now;
    if (tokens_ < 1.0)
        return false;
    tokens_ -= 1.0;
    return true;
}

AdmissionController::AdmissionController(const AdmissionConfig &config,
                                         std::uint32_t tenants)
    : config_(config)
{
    if (config_.enabled && config_.tokenRatePerSec > 0.0) {
        buckets_.reserve(tenants);
        for (std::uint32_t i = 0; i < tenants; ++i)
            buckets_.emplace_back(config_.tokenRatePerSec,
                                  config_.tokenBurst);
    }
}

AdmitDecision
AdmissionController::decide(const AdmitContext &ctx)
{
    // A dead fleet sheds even rerouted work back to the caller's
    // orphan queue; every other check is waived for re-placements.
    if (!ctx.deviceAvailable)
        return AdmitDecision::ShedNoDevice;
    if (!config_.enabled || ctx.rerouted)
        return AdmitDecision::Admit;

    if (!buckets_.empty() &&
        !buckets_[ctx.tenant].tryTake(ctx.now))
        return AdmitDecision::ShedRate;
    if (config_.maxQueueDepth != 0 &&
        ctx.queueDepth >= config_.maxQueueDepth)
        return AdmitDecision::ShedQueueFull;
    if (config_.deadlineShedding &&
        ctx.estimatedCompletion > ctx.deadline)
        return AdmitDecision::ShedDeadline;
    return AdmitDecision::Admit;
}

} // namespace ccai::serve
