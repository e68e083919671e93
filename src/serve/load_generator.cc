#include "load_generator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "llm/roofline.hh"

namespace ccai::serve
{

namespace
{

/** Nearest-rank percentile of an unsorted sample set. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = p / 100.0 * static_cast<double>(values.size());
    std::size_t idx = rank <= 1.0
                          ? 0
                          : static_cast<std::size_t>(
                                std::ceil(rank)) -
                                1;
    if (idx >= values.size())
        idx = values.size() - 1;
    return values[idx];
}

ServeConfig
normalized(ServeConfig config)
{
    if (config.fleet.empty())
        config.fleet.push_back(xpu::XpuSpec::a100());
    // Crash drain re-places work through the router; static pinning
    // would strand a crashed device's tenants.
    if (config.chaos.enabled)
        config.leastLoadedRouting = true;
    return config;
}

} // namespace

LoadGenerator::Handles::Handles(obs::MetricGroup &g)
    : issued(g.counterHandle("requests_issued")),
      arrivals(g.counterHandle("requests_arrived")),
      admitted(g.counterHandle("requests_admitted")),
      completed(g.counterHandle("requests_completed")),
      sloMisses(g.counterHandle("slo_misses")),
      shedOnAdmit(g.counterHandle("shed_on_admit")),
      shedOnDeadline(g.counterHandle("shed_on_deadline")),
      shedRate(g.counterHandle("shed_rate")),
      shedQueueFull(g.counterHandle("shed_queue_full")),
      shedNoDevice(g.counterHandle("shed_no_device")),
      retries(g.counterHandle("retries")),
      rerouted(g.counterHandle("rerouted")),
      crashes(g.counterHandle("crashes")),
      ttftTicks(g.histogramHandle("ttft_ticks")),
      e2eTicks(g.histogramHandle("e2e_ticks")),
      backoffTicks(g.histogramHandle("backoff_ticks")),
      queueDepth(g.histogramHandle("queue_depth")),
      healthyDevices(g.histogramHandle("healthy_devices"))
{}

LoadGenerator::LoadGenerator(sim::System &sys, std::string name,
                             const ServeConfig &config)
    : sim::SimObject(sys, std::move(name)),
      config_(normalized(config)),
      cost_(backend::costModelFor(config_.protection)),
      admission_(config_.admission, config_.tenants),
      router_(serviceEstimates()),
      stats_(sys.metrics(), this->name()), s_(stats_)
{
    if (config_.tenants == 0)
        panic("serve: tenant count must be positive");

    const double perTenantRate =
        config_.profile.aggregateRatePerSec /
        static_cast<double>(config_.tenants);

    devices_.reserve(config_.fleet.size());
    for (std::size_t d = 0; d < config_.fleet.size(); ++d) {
        auto dev = std::make_unique<DeviceState>();
        dev->spec = config_.fleet[d];
        dev->stepTimer.setCallback(
            [this, d] {
                onDeviceStep(static_cast<std::uint32_t>(d));
            },
            "serve-device-step");
        dev->recoveryTimer.setCallback(
            [this, d] {
                onRecoveryStep(static_cast<std::uint32_t>(d));
            },
            "serve-device-recovery");
        devices_.push_back(std::move(dev));
    }

    tenants_.reserve(config_.tenants);
    for (std::uint32_t i = 0; i < config_.tenants; ++i) {
        ArrivalProcess arrivals =
            config_.profile.traceGaps.empty()
                ? ArrivalProcess::poisson(perTenantRate)
                : ArrivalProcess::trace(config_.profile.traceGaps);
        std::uint64_t seed =
            config_.seed ^
            sim::seedHash(this->name() + "/tenant/" +
                          std::to_string(i));
        // Separate jitter stream: enabling retries must not perturb
        // the tenant's arrival draws.
        std::uint64_t retrySeed =
            config_.seed ^
            sim::seedHash(this->name() + "/tenant/" +
                          std::to_string(i) + "/retry");
        auto t = std::make_unique<TenantState>(
            seed, retrySeed, std::move(arrivals));
        t->device = i % static_cast<std::uint32_t>(devices_.size());
        t->arrivalTimer.setCallback([this, i] { onArrival(i); },
                                    "serve-arrival");
        t->retryTimer.setCallback([this, i] { onRetryDue(i); },
                                  "serve-retry");
        tenants_.push_back(std::move(t));
    }

    const std::uint64_t chaosSeed =
        config_.seed ^ sim::seedHash(this->name() + "/chaos");
    chaosRng_ = sim::Rng(chaosSeed);
    chaosTimer_.setCallback([this] { onCrash(); },
                            "serve-chaos-crash");
    probeTimer_.setCallback([this] { onHealthProbe(); },
                            "serve-health-probe");
    if (config_.chaos.enabled) {
        if (!config_.chaos.crashAt.empty()) {
            for (Tick at : config_.chaos.crashAt)
                if (at < config_.horizon)
                    crashSchedule_.push_back(
                        {at, FaultDomain::Xpu});
            std::sort(crashSchedule_.begin(), crashSchedule_.end(),
                      [](const CrashEvent &a, const CrashEvent &b) {
                          return a.when < b.when;
                      });
        } else {
            CrashConfig cc;
            cc.seed = chaosSeed;
            cc.xpuPerSec = config_.chaos.xpuCrashesPerSec;
            cc.horizon = config_.horizon;
            crashInjector_.configure(cc);
            crashSchedule_ = crashInjector_.schedule();
        }
    }
}

void
LoadGenerator::start()
{
    for (auto &t : tenants_) {
        Tick gap = t->arrivals.nextGap(t->rng);
        if (curTick() + gap < config_.horizon)
            eventq().rescheduleIn(&t->arrivalTimer, gap);
    }
    if (!crashSchedule_.empty() &&
        nextCrash_ < crashSchedule_.size())
        eventq().rescheduleIn(&chaosTimer_,
                              crashSchedule_[nextCrash_].when -
                                  curTick());
    if (config_.healthProbeInterval > 0 &&
        curTick() + config_.healthProbeInterval < config_.horizon)
        eventq().rescheduleIn(&probeTimer_,
                              config_.healthProbeInterval);
}

Tick
LoadGenerator::secureScaled(Tick t) const
{
    if (!config_.secure)
        return t;
    return static_cast<Tick>(static_cast<double>(t) *
                             cost_.computeOverhead);
}

Tick
LoadGenerator::prefillTicks(const xpu::XpuSpec &spec) const
{
    // Whole-model roofline (one part) plus one launch per pass.
    Tick t = llm::prefillTicks(config_.model, spec, 1,
                               config_.profile.promptTokens, 1) +
             spec.kernelLaunchOverhead;
    t = secureScaled(t);
    if (config_.secure)
        t += cost_.perRequestSetup;
    return t;
}

Tick
LoadGenerator::decodeStepTicks(const xpu::XpuSpec &spec,
                               std::uint32_t seqLen) const
{
    Tick t = llm::decodeTicks(config_.model, spec, 1, seqLen, 1) +
             spec.kernelLaunchOverhead;
    return secureScaled(t);
}

std::vector<Tick>
LoadGenerator::serviceEstimates() const
{
    // Whole-request roofline estimate per device: prefill plus
    // genTokens decode steps at the mid-sequence length. Used for
    // routing, backlog accounting and deadline feasibility. It
    // depends only on the spec, the fixed profile and the cost
    // model, so it is computed once, before the router exists.
    std::vector<Tick> estimates;
    estimates.reserve(config_.fleet.size());
    for (const xpu::XpuSpec &spec : config_.fleet)
        estimates.push_back(
            prefillTicks(spec) +
            static_cast<Tick>(config_.profile.genTokens) *
                decodeStepTicks(spec, config_.profile.promptTokens +
                                          config_.profile.genTokens /
                                              2));
    return estimates;
}

void
LoadGenerator::onArrival(std::uint32_t tenant)
{
    TenantState &t = *tenants_[tenant];
    if (curTick() >= config_.horizon)
        return;

    Request req;
    req.tenant = tenant;
    req.id = nextRequestId_++;
    req.firstArrival = curTick();
    req.deadline = curTick() + config_.profile.sloDeadline;
    ++t.issued;
    s_.arrivals.inc();
    attemptAdmit(std::move(req), /*rerouted=*/false);

    if (t.arrivals.done())
        return;
    if (config_.maxRequestsPerTenant != 0 &&
        t.issued >= config_.maxRequestsPerTenant)
        return;
    Tick gap = t.arrivals.nextGap(t.rng);
    if (curTick() + gap < config_.horizon)
        eventq().rescheduleIn(&t.arrivalTimer, gap);
}

void
LoadGenerator::attemptAdmit(Request req, bool rerouted)
{
    s_.issued.inc();

    std::optional<std::uint32_t> device;
    if (config_.leastLoadedRouting) {
        device = router_.pick();
    } else if (router_.healthy(tenants_[req.tenant]->device)) {
        device = tenants_[req.tenant]->device;
    }

    AdmitContext ctx;
    ctx.tenant = req.tenant;
    ctx.now = curTick();
    ctx.deviceAvailable = device.has_value();
    ctx.deadline = req.deadline;
    ctx.rerouted = rerouted;
    if (device) {
        const DeviceStatus &st = router_.device(*device);
        ctx.queueDepth = st.queueDepth;
        ctx.estimatedCompletion = curTick() + st.backlogTicks +
                                  serviceEstimate(*device) +
                                  req.extraSetup;
    }

    AdmitDecision decision = admission_.decide(ctx);
    if (decision == AdmitDecision::Admit) {
        s_.admitted.inc();
        enqueue(std::move(req), *device);
        return;
    }
    recordShedAttempt(decision);
    scheduleRetryOrGiveUp(std::move(req), decision);
}

void
LoadGenerator::recordShedAttempt(AdmitDecision decision)
{
    // Per-attempt reason counters: one request can be rate-shed
    // several times across its retries, so these sum to shed
    // attempts, not to finally-shed requests (shed_on_admit).
    switch (decision) {
      case AdmitDecision::ShedRate:
        s_.shedRate.inc();
        break;
      case AdmitDecision::ShedQueueFull:
        s_.shedQueueFull.inc();
        break;
      case AdmitDecision::ShedDeadline:
        ++shedDeadlineAdmit_;
        break;
      case AdmitDecision::ShedNoDevice:
        s_.shedNoDevice.inc();
        break;
      case AdmitDecision::Admit:
        break;
    }
}

void
LoadGenerator::scheduleRetryOrGiveUp(Request req,
                                     AdmitDecision decision)
{
    const RetryConfig &rc = config_.retry;
    const bool transient = retryable(decision);
    if (rc.enabled && transient &&
        req.attempts < rc.maxAttempts) {
        TenantState &t = *tenants_[req.tenant];
        // Capped exponential backoff with jitter in [b/2, b]; the
        // jitter comes from the tenant's dedicated retry stream.
        Tick backoff = rc.baseBackoff;
        for (std::uint32_t i = 1;
             i < req.attempts && backoff < rc.maxBackoff; ++i)
            backoff *= 2;
        backoff = std::min(backoff, rc.maxBackoff);
        Tick half = backoff / 2;
        Tick jitter =
            half + static_cast<Tick>(
                       t.retryRng.uniform01() *
                       static_cast<double>(backoff - half));
        jitter = std::max<Tick>(jitter, 1);
        s_.backoffTicks.sample(jitter);
        t.pendingRetries.emplace(
            std::make_pair(curTick() + jitter, req.id),
            std::move(req));
        armRetryTimer(t);
        return;
    }

    if (rc.enabled && transient && req.attempts >= rc.maxAttempts)
        ++retriesExhausted_;
    s_.shedOnAdmit.inc();
}

void
LoadGenerator::armRetryTimer(TenantState &t)
{
    if (t.pendingRetries.empty()) {
        if (t.retryTimer.scheduled())
            eventq().deschedule(&t.retryTimer);
        return;
    }
    Tick due = t.pendingRetries.begin()->first.first;
    Tick delay = due > curTick() ? due - curTick() : 0;
    eventq().rescheduleIn(&t.retryTimer, delay);
}

void
LoadGenerator::onRetryDue(std::uint32_t tenant)
{
    TenantState &t = *tenants_[tenant];
    std::vector<Request> due;
    while (!t.pendingRetries.empty() &&
           t.pendingRetries.begin()->first.first <= curTick()) {
        due.push_back(std::move(t.pendingRetries.begin()->second));
        t.pendingRetries.erase(t.pendingRetries.begin());
    }
    for (Request &req : due) {
        ++req.attempts;
        s_.retries.inc();
        attemptAdmit(std::move(req), /*rerouted=*/false);
    }
    armRetryTimer(t);
}

void
LoadGenerator::enqueue(Request req, std::uint32_t device)
{
    DeviceState &dev = *devices_[device];
    req.estimate = serviceEstimate(device) + req.extraSetup;
    router_.addBacklog(device, req.estimate);
    dev.queue.push_back(std::move(req));
    router_.setQueueDepth(device,
                          static_cast<std::uint32_t>(dev.queue.size()));
    if (!dev.busy && router_.healthy(device))
        startNext(device);
}

void
LoadGenerator::startNext(std::uint32_t device)
{
    DeviceState &dev = *devices_[device];
    while (true) {
        if (dev.queue.empty()) {
            dev.busy = false;
            return;
        }
        Request req = std::move(dev.queue.front());
        dev.queue.pop_front();
        router_.setQueueDepth(
            device, static_cast<std::uint32_t>(dev.queue.size()));
        // Second deadline gate at dispatch: the admission-time
        // estimate can be stale after crashes or queue churn.
        if (admission_.config().enabled &&
            admission_.config().deadlineShedding &&
            curTick() + req.estimate > req.deadline) {
            router_.releaseBacklog(device, req.estimate);
            s_.shedOnDeadline.inc();
            continue;
        }
        dev.busy = true;
        dev.prefilling = true;
        Tick setup = req.extraSetup;
        dev.active = std::move(req);
        eventq().rescheduleIn(&dev.stepTimer,
                              prefillTicks(dev.spec) + setup);
        return;
    }
}

void
LoadGenerator::onDeviceStep(std::uint32_t device)
{
    DeviceState &dev = *devices_[device];
    Request &req = dev.active;

    if (dev.prefilling) {
        dev.prefilling = false;
        req.ttftTick = curTick();
        if (!req.ttftRecorded) {
            // Sampled once per request: a crash-forced re-prefill
            // extends this first TTFT, it does not resample it.
            req.ttftRecorded = true;
            double ttft =
                ticksToSeconds(curTick() - req.firstArrival);
            ttftSeconds_.push_back(ttft);
            s_.ttftTicks.sample(curTick() - req.firstArrival);
        }
        eventq().rescheduleIn(
            &dev.stepTimer,
            decodeStepTicks(dev.spec, config_.profile.promptTokens));
        return;
    }

    ++req.stepsDone;
    if (req.stepsDone < config_.profile.genTokens) {
        eventq().rescheduleIn(
            &dev.stepTimer,
            decodeStepTicks(dev.spec, config_.profile.promptTokens +
                                          req.stepsDone));
        return;
    }

    finishRequest(device);
}

void
LoadGenerator::finishRequest(std::uint32_t device)
{
    DeviceState &dev = *devices_[device];
    Request &req = dev.active;

    Tick e2eTicksV = curTick() - req.firstArrival;
    double e2e = ticksToSeconds(e2eTicksV);
    e2eSeconds_.push_back(e2e);
    s_.e2eTicks.sample(e2eTicksV);
    double decodeSeconds = ticksToSeconds(curTick() - req.ttftTick);
    tpsValues_.push_back(decodeSeconds > 0
                             ? config_.profile.genTokens /
                                   decodeSeconds
                             : 0.0);
    s_.completed.inc();

    // Per-request deadline accounting: a miss is charged exactly
    // when this request completed late — never the old shared
    // per-tenant timer, which undercounted under queueing.
    if (curTick() > req.deadline) {
        s_.sloMisses.inc();
        missTicks_.push_back(curTick());
    }

    router_.releaseBacklog(device, req.estimate);

    startNext(device);
}

void
LoadGenerator::onCrash()
{
    ccai_assert(nextCrash_ < crashSchedule_.size());
    ++nextCrash_;

    // Victim pool: healthy devices with work in flight, so a crash
    // lands mid-serving and exercises the drain path (a fleet with
    // routing concentrates load — a uniform pick would mostly kill
    // idle stragglers). Falls back to any healthy device.
    std::vector<std::uint32_t> healthy;
    for (std::uint32_t d = 0; d < router_.deviceCount(); ++d)
        if (router_.healthy(d) && (devices_[d]->busy ||
                                   !devices_[d]->queue.empty()))
            healthy.push_back(d);
    if (healthy.empty())
        for (std::uint32_t d = 0; d < router_.deviceCount(); ++d)
            if (router_.healthy(d))
                healthy.push_back(d);
    if (!healthy.empty()) {
        std::uint32_t victim = healthy[chaosRng_.uniform(
            0, healthy.size() - 1)];
        s_.crashes.inc();
        crashTicks_.push_back(curTick());

        DeviceState &dev = *devices_[victim];
        router_.setState(victim, RecoveryState::Resetting);
        router_.releaseBacklog(victim,
                               router_.device(victim).backlogTicks);
        router_.setQueueDepth(victim, 0);

        // Displace in-flight then queued work, in order. The KV
        // cache died with the device, so progress resets and the
        // re-placement pays session establishment again.
        std::vector<Request> displaced;
        if (dev.busy) {
            if (dev.stepTimer.scheduled())
                eventq().deschedule(&dev.stepTimer);
            dev.active.stepsDone = 0;
            displaced.push_back(std::move(dev.active));
            dev.busy = false;
            dev.prefilling = false;
        }
        for (Request &r : dev.queue)
            displaced.push_back(std::move(r));
        dev.queue.clear();

        eventq().rescheduleIn(&dev.recoveryTimer,
                              config_.chaos.resetTicks);
        for (Request &r : displaced)
            reroute(std::move(r));
    }

    if (nextCrash_ < crashSchedule_.size())
        eventq().rescheduleIn(&chaosTimer_,
                              crashSchedule_[nextCrash_].when -
                                  curTick());
}

void
LoadGenerator::reroute(Request req)
{
    req.stepsDone = 0;
    std::optional<std::uint32_t> device = router_.pick();
    if (!device) {
        // Whole fleet down: park the request; it re-places when the
        // first device rejoins. Never dropped — the zero-loss
        // ledger (admitted = completed + shedOnDeadline) holds.
        orphans_.push_back(std::move(req));
        return;
    }
    if (config_.secure)
        req.extraSetup += cost_.sessionEstablishTicks;
    s_.rerouted.inc();
    enqueue(std::move(req), *device);
}

void
LoadGenerator::drainOrphans()
{
    while (!orphans_.empty() && router_.healthyCount() > 0) {
        Request req = std::move(orphans_.front());
        orphans_.pop_front();
        reroute(std::move(req));
    }
}

void
LoadGenerator::onRecoveryStep(std::uint32_t device)
{
    const RecoveryState state = router_.device(device).state;
    if (state == RecoveryState::Resetting) {
        router_.setState(device, RecoveryState::ReAttesting);
        eventq().rescheduleIn(&devices_[device]->recoveryTimer,
                              config_.chaos.reattestTicks);
        return;
    }
    ccai_assert(state == RecoveryState::ReAttesting);
    router_.setState(device, RecoveryState::Healthy);
    drainOrphans();
    DeviceState &dev = *devices_[device];
    if (!dev.busy && !dev.queue.empty())
        startNext(device);
}

void
LoadGenerator::onHealthProbe()
{
    s_.healthyDevices.sample(router_.healthyCount());
    for (std::uint32_t d = 0; d < router_.deviceCount(); ++d)
        s_.queueDepth.sample(router_.device(d).queueDepth);
    if (curTick() + config_.healthProbeInterval < config_.horizon)
        eventq().rescheduleIn(&probeTimer_,
                              config_.healthProbeInterval);
}

ServeReport
LoadGenerator::report() const
{
    ServeReport r;
    r.issued = s_.issued.value();
    r.arrivals = s_.arrivals.value();
    r.admitted = s_.admitted.value();
    r.completed = s_.completed.value();
    r.sloMisses = s_.sloMisses.value();
    r.shedOnAdmit = s_.shedOnAdmit.value();
    r.shedOnDeadline = s_.shedOnDeadline.value();
    r.shedRate = s_.shedRate.value();
    r.shedQueueFull = s_.shedQueueFull.value();
    r.shedDeadlineAdmit = shedDeadlineAdmit_;
    r.shedNoDevice = s_.shedNoDevice.value();
    r.retries = s_.retries.value();
    r.retriesExhausted = retriesExhausted_;
    r.rerouted = s_.rerouted.value();
    r.crashes = s_.crashes.value();
    r.simSeconds = ticksToSeconds(curTick());
    // Goodput normalizes by the offered-load horizon, not the drain
    // tail, so overload factors compare like for like.
    double horizonSec = ticksToSeconds(config_.horizon);
    if (horizonSec > 0)
        r.goodputPerSec =
            static_cast<double>(r.completed - r.sloMisses) /
            horizonSec;
    r.ttftP50 = percentile(ttftSeconds_, 50.0);
    r.ttftP95 = percentile(ttftSeconds_, 95.0);
    r.ttftP99 = percentile(ttftSeconds_, 99.0);
    r.tpsP50 = percentile(tpsValues_, 50.0);
    r.tpsP5 = percentile(tpsValues_, 5.0);
    r.e2eP50 = percentile(e2eSeconds_, 50.0);
    r.e2eP95 = percentile(e2eSeconds_, 95.0);
    r.e2eP99 = percentile(e2eSeconds_, 99.0);
    return r;
}

} // namespace ccai::serve
