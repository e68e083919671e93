/**
 * @file
 * Admission-control tests: deterministic token-bucket refill and
 * burst semantics, the fixed decide order (device -> rate -> queue
 * -> deadline) and the rerouted-bypass contract for crash-drain
 * re-placements.
 */

#include <gtest/gtest.h>

#include "serve/admission.hh"

using namespace ccai;
using namespace ccai::serve;

TEST(TokenBucket, BurstThenDry)
{
    // 1 req/s sustained, burst of 3: three immediate takes succeed,
    // the fourth finds the bucket dry.
    TokenBucket bucket(1.0, 3.0);
    EXPECT_TRUE(bucket.tryTake(0));
    EXPECT_TRUE(bucket.tryTake(0));
    EXPECT_TRUE(bucket.tryTake(0));
    EXPECT_FALSE(bucket.tryTake(0));
}

TEST(TokenBucket, LazyRefillFromSimTime)
{
    TokenBucket bucket(2.0, 1.0);
    EXPECT_TRUE(bucket.tryTake(0));
    EXPECT_FALSE(bucket.tryTake(0));
    // 2 req/s -> one token back after half a simulated second.
    EXPECT_FALSE(bucket.tryTake(kTicksPerSec / 4));
    EXPECT_TRUE(bucket.tryTake(3 * kTicksPerSec / 4));
    EXPECT_FALSE(bucket.tryTake(3 * kTicksPerSec / 4));
}

TEST(TokenBucket, RefillCapsAtBurst)
{
    TokenBucket bucket(1000.0, 2.0);
    EXPECT_TRUE(bucket.tryTake(0));
    EXPECT_TRUE(bucket.tryTake(0));
    // An hour of idle refill still holds only `burst` tokens.
    const Tick later = 3600 * kTicksPerSec;
    EXPECT_TRUE(bucket.tryTake(later));
    EXPECT_TRUE(bucket.tryTake(later));
    EXPECT_FALSE(bucket.tryTake(later));
}

TEST(Admission, RetryableClassification)
{
    EXPECT_TRUE(retryable(AdmitDecision::ShedRate));
    EXPECT_TRUE(retryable(AdmitDecision::ShedQueueFull));
    EXPECT_TRUE(retryable(AdmitDecision::ShedNoDevice));
    // Waiting never un-sheds a deadline-infeasible request.
    EXPECT_FALSE(retryable(AdmitDecision::ShedDeadline));
    EXPECT_FALSE(retryable(AdmitDecision::Admit));
}

TEST(Admission, DecisionNames)
{
    EXPECT_STREQ(admitDecisionName(AdmitDecision::Admit), "admit");
    EXPECT_STREQ(admitDecisionName(AdmitDecision::ShedRate),
                 "shed_rate");
    EXPECT_STREQ(admitDecisionName(AdmitDecision::ShedQueueFull),
                 "shed_queue_full");
    EXPECT_STREQ(admitDecisionName(AdmitDecision::ShedDeadline),
                 "shed_deadline");
    EXPECT_STREQ(admitDecisionName(AdmitDecision::ShedNoDevice),
                 "shed_no_device");
}

namespace
{

AdmitContext
baseCtx()
{
    AdmitContext ctx;
    ctx.tenant = 0;
    ctx.now = 0;
    ctx.deviceAvailable = true;
    ctx.queueDepth = 0;
    ctx.estimatedCompletion = 10;
    ctx.deadline = 100;
    return ctx;
}

} // namespace

TEST(Admission, DisabledAdmitsEverything)
{
    AdmissionController ctl(AdmissionConfig{}, 4);
    AdmitContext ctx = baseCtx();
    ctx.queueDepth = 1000;
    ctx.estimatedCompletion = 1000;
    ctx.deadline = 1;
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::Admit);
}

TEST(Admission, NoDeviceShedsEvenWhenDisabled)
{
    // A dead fleet has nowhere to put the request regardless of
    // policy — and even rerouted work bounces back to the orphan
    // queue.
    AdmissionController ctl(AdmissionConfig{}, 1);
    AdmitContext ctx = baseCtx();
    ctx.deviceAvailable = false;
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::ShedNoDevice);
    ctx.rerouted = true;
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::ShedNoDevice);
}

TEST(Admission, RateLimitShedsPerTenant)
{
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.tokenRatePerSec = 1.0;
    cfg.tokenBurst = 1.0;
    AdmissionController ctl(cfg, 2);

    AdmitContext ctx = baseCtx();
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::Admit);
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::ShedRate);
    // Buckets are per tenant: tenant 1's burst is untouched.
    ctx.tenant = 1;
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::Admit);
}

TEST(Admission, QueueBoundSheds)
{
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.maxQueueDepth = 2;
    AdmissionController ctl(cfg, 1);

    AdmitContext ctx = baseCtx();
    ctx.queueDepth = 1;
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::Admit);
    ctx.queueDepth = 2;
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::ShedQueueFull);
}

TEST(Admission, DeadlineShedsInfeasibleWork)
{
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.deadlineShedding = true;
    AdmissionController ctl(cfg, 1);

    AdmitContext ctx = baseCtx();
    ctx.estimatedCompletion = ctx.deadline;
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::Admit);
    ctx.estimatedCompletion = ctx.deadline + 1;
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::ShedDeadline);
}

TEST(Admission, ReroutedBypassesRateAndQueue)
{
    // Crash-drain re-placements were already admitted once; the
    // bucket and the queue bound must not drop them.
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.tokenRatePerSec = 1.0;
    cfg.tokenBurst = 1.0;
    cfg.maxQueueDepth = 1;
    cfg.deadlineShedding = true;
    AdmissionController ctl(cfg, 1);

    AdmitContext ctx = baseCtx();
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::Admit); // bucket now dry
    ctx.rerouted = true;
    ctx.queueDepth = 50;
    ctx.estimatedCompletion = ctx.deadline + 1000;
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::Admit);
}

TEST(Admission, QueueShedStillConsumesToken)
{
    // The decide order is rate -> queue: a queue-full shed has
    // already spent the tenant's token, so the next attempt at the
    // same tick sheds on rate. Deterministic, documented semantics.
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.tokenRatePerSec = 1.0;
    cfg.tokenBurst = 1.0;
    cfg.maxQueueDepth = 1;
    AdmissionController ctl(cfg, 1);

    AdmitContext ctx = baseCtx();
    ctx.queueDepth = 1;
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::ShedQueueFull);
    ctx.queueDepth = 0;
    EXPECT_EQ(ctl.decide(ctx), AdmitDecision::ShedRate);
}
