/**
 * @file
 * RecoveryManager implementation: crash schedule generation, the
 * heartbeat watchdog, probe-round blame assignment, the
 * Healthy/Suspect/Resetting/ReAttesting/Resuming episode driver, the
 * guarded-operation journal and the quarantine policy.
 */

#include "ccai/recovery.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace ccai
{

RecoveryManager::Handles::Handles(obs::MetricGroup &g)
    : crashesInjected(g.counterHandle("crashes_injected")),
      crashesPcieSc(g.counterHandle("crashes_injected_pcie_sc")),
      crashesXpu(g.counterHandle("crashes_injected_xpu")),
      crashesHrot(g.counterHandle("crashes_injected_hrot")),
      watchdogBeats(g.counterHandle("watchdog_beats")),
      probeRounds(g.counterHandle("probe_rounds")),
      probeTimeouts(g.counterHandle("probe_timeouts")),
      falseAlarms(g.counterHandle("false_alarms")),
      episodesStarted(g.counterHandle("episodes_started")),
      episodesResolved(g.counterHandle("episodes_resolved")),
      resets(g.counterHandle("resets")),
      reattests(g.counterHandle("reattests")),
      reattestFailures(g.counterHandle("reattest_failures")),
      stateSuspect(g.counterHandle("state_suspect")),
      stateResetting(g.counterHandle("state_resetting")),
      stateReattesting(g.counterHandle("state_reattesting")),
      stateResuming(g.counterHandle("state_resuming")),
      opsSubmitted(g.counterHandle("ops_submitted")),
      opsCompleted(g.counterHandle("ops_completed")),
      opsFailed(g.counterHandle("ops_failed")),
      opReplays(g.counterHandle("op_replays")),
      opDeadlines(g.counterHandle("op_deadlines")),
      opStaleCompletions(g.counterHandle("op_stale_completions")),
      quarantines(g.counterHandle("quarantines")),
      detectLatencyTicks(g.histogramHandle("detect_latency_ticks")),
      recoveryLatencyTicks(
          g.histogramHandle("recovery_latency_ticks")),
      opLatencyTicks(g.histogramHandle("op_latency_ticks"))
{
}

RecoveryManager::RecoveryManager(sim::System &sys, std::string name,
                                 const RecoveryConfig &config)
    : sim::SimObject(sys, std::move(name)),
      config_(config),
      stats_(sys.metrics(), "recovery"),
      s_(stats_),
      tracer_(&sys.tracer())
{
    beatTimer_.setCallback([this] { beat(); }, "recovery-beat");
    probeTimer_.setCallback([this] { evaluateProbeRound(); },
                            "recovery-probe-deadline");
}

void
RecoveryManager::registerTenant(std::uint32_t slot,
                                std::uint16_t bdfRaw)
{
    tenants_[slot].bdfRaw = bdfRaw;
}

// ---- Watchdog -----------------------------------------------------

void
RecoveryManager::startWatchdog(Tick horizon)
{
    horizon_ = std::max(horizon_, horizon);
    if (!watchdogArmed_) {
        watchdogArmed_ = true;
        scheduleBeat();
    }
}

void
RecoveryManager::scheduleBeat()
{
    eventq().rescheduleIn(&beatTimer_, kHeartbeatPeriod);
}

bool
RecoveryManager::anyTenantAlive() const
{
    if (tenants_.empty())
        return true; // standalone manager: nothing to rule out
    for (const auto &[slot, tenant] : tenants_) {
        if (!tenant.quarantined)
            return true;
    }
    return false;
}

bool
RecoveryManager::continueBeats() const
{
    if (curTick() < horizon_)
        return true;
    if (episodeActive_ || probeInFlight_)
        return true;
    // An undetected crash keeps the watchdog alive past the horizon —
    // but only while someone is left to recover. With every tenant
    // quarantined the probe vehicle is gone (the SC filters their
    // requester IDs) and the crash could never be observed anyway.
    if (anyTenantAlive()) {
        for (Tick since : outstandingSince_) {
            if (since)
                return true;
        }
    }
    return pendingOps() > 0;
}

void
RecoveryManager::beat()
{
    if (!watchdogArmed_)
        return;
    s_.watchdogBeats.inc();
    // Decide before launching a probe round: a round started by this
    // very beat would count as in-flight work and keep the watchdog
    // alive forever past the horizon.
    if (!continueBeats()) {
        watchdogArmed_ = false;
        return;
    }
    if (!episodeActive_ && !probeInFlight_)
        startProbeRound(false);
    scheduleBeat();
}

void
RecoveryManager::startProbeRound(bool fromOpTimeout)
{
    probeInFlight_ = true;
    ++probeGen_;
    const std::uint64_t gen = probeGen_;
    round_ = {};
    round_.fromOpTimeout = fromOpTimeout;
    s_.probeRounds.inc();

    round_.hrotOk = hooks_.probeHrot ? hooks_.probeHrot() : true;
    if (hooks_.probeSc) {
        hooks_.probeSc([this, gen](bool ok) {
            if (gen == probeGen_)
                round_.scOk = ok;
        });
    } else {
        round_.scOk = true;
    }
    if (hooks_.probeXpu) {
        hooks_.probeXpu([this, gen](bool ok) {
            if (gen == probeGen_)
                round_.xpuOk = ok;
        });
    } else {
        round_.xpuOk = true;
    }

    eventq().rescheduleIn(&probeTimer_, kProbeDeadline);
}

void
RecoveryManager::evaluateProbeRound()
{
    probeInFlight_ = false;
    const bool fromOpTimeout = round_.fromOpTimeout;

    // Blame priority: the SC sits between host and device, so a hung
    // SC also fails the xPU probe; blame the closest-to-host failure.
    std::optional<FaultDomain> blame;
    if (!round_.scOk)
        blame = FaultDomain::PcieSc;
    else if (!round_.xpuOk)
        blame = FaultDomain::Xpu;
    else if (!round_.hrotOk)
        blame = FaultDomain::Hrot;

    if (!blame) {
        if (state_ == RecoveryState::Suspect) {
            s_.falseAlarms.inc();
            suspectRounds_ = 0;
            setState(RecoveryState::Healthy);
        }
        if (fromOpTimeout) {
            // The platform looks healthy: the stalled op was lost in
            // flight (e.g. to a transient wire fault beyond the ARQ
            // budget); reissue it rather than resetting the world.
            reissueStalledHeads();
        }
        return;
    }

    s_.probeTimeouts.inc();
    if (state_ == RecoveryState::Healthy) {
        suspectAt_ = curTick();
        suspectRounds_ = 1;
        setState(RecoveryState::Suspect);
    } else {
        ++suspectRounds_;
    }

    if (suspectRounds_ >= kSuspectRounds)
        beginEpisode(*blame);
    else
        startProbeRound(fromOpTimeout); // confirm before resetting
}

// ---- Crash injection ----------------------------------------------

void
RecoveryManager::armChaos(const CrashConfig &config)
{
    injector_.configure(config);
    for (const CrashEvent &ev : injector_.schedule()) {
        eventq().scheduleIn(ev.when, [this, domain = ev.domain] {
            injectCrash(domain);
        });
    }
    startWatchdog(curTick() + config.horizon);
}

void
RecoveryManager::injectCrash(FaultDomain domain)
{
    s_.crashesInjected.inc();
    switch (domain) {
      case FaultDomain::PcieSc:
        s_.crashesPcieSc.inc();
        break;
      case FaultDomain::Xpu:
        s_.crashesXpu.inc();
        break;
      case FaultDomain::Hrot:
        s_.crashesHrot.inc();
        break;
    }
    if (!outstandingSince_[static_cast<int>(domain)]) {
        // 0 is the no-outstanding-crash sentinel; a crash landing at
        // tick 0 (tests inject before run()) must still register.
        outstandingSince_[static_cast<int>(domain)] =
            std::max<Tick>(curTick(), 1);
    }
    inform("recovery: injecting %s crash", faultDomainName(domain));
    tracer_->instant(traceTrack(),
                     std::string("crash.") + faultDomainName(domain),
                     curTick());
    if (hooks_.inject)
        hooks_.inject(domain);
    // Keep beating until this crash is detected and resolved, even
    // past the nominal watchdog horizon.
    startWatchdog(curTick());
}

// ---- Episode driver -----------------------------------------------

void
RecoveryManager::setState(RecoveryState next)
{
    if (next == state_)
        return;
    if (state_ != RecoveryState::Healthy &&
        state_ != RecoveryState::Quarantined) {
        tracer_->complete(traceTrack(),
                          std::string("state.") +
                              recoveryStateName(state_),
                          stateSince_, curTick() - stateSince_);
    }
    switch (next) {
      case RecoveryState::Suspect:
        s_.stateSuspect.inc();
        break;
      case RecoveryState::Resetting:
        s_.stateResetting.inc();
        break;
      case RecoveryState::ReAttesting:
        s_.stateReattesting.inc();
        break;
      case RecoveryState::Resuming:
        s_.stateResuming.inc();
        break;
      default:
        break;
    }
    state_ = next;
    stateSince_ = curTick();
}

void
RecoveryManager::beginEpisode(FaultDomain domain)
{
    episodeActive_ = true;
    suspectRounds_ = 0;
    episodeAttempts_ = 0;

    Episode ep;
    ep.domain = domain;
    ep.injectedAt = outstandingSince_[static_cast<int>(domain)];
    ep.detectedAt = suspectAt_ ? suspectAt_ : curTick();
    episodes_.push_back(ep);
    s_.episodesStarted.inc();
    if (ep.injectedAt && ep.detectedAt >= ep.injectedAt)
        s_.detectLatencyTicks.sample(ep.detectedAt - ep.injectedAt);

    warn("recovery: %s failure detected at %llu, starting recovery",
         faultDomainName(domain),
         static_cast<unsigned long long>(ep.detectedAt));
    tracer_->begin(traceTrack(),
                   std::string("episode.") + faultDomainName(domain),
                   curTick());

    // Let the serving layer drain queued work off the failed
    // component before the reset discards it.
    if (hooks_.onDomainDown)
        hooks_.onDomainDown(domain);

    // In-flight guarded work is invalid: sessions are about to be
    // torn down. Mark heads for replay under the new epoch.
    for (auto &[slot, tenant] : tenants_) {
        if (tenant.quarantined)
            continue;
        tenant.state = RecoveryState::Resetting;
        if (!tenant.ops.empty())
            tenant.ops.front().issued = false;
    }

    runResetPhase();
}

void
RecoveryManager::runResetPhase()
{
    setState(RecoveryState::Resetting);
    s_.resets.inc();
    ++episodeAttempts_;
    ++episodes_.back().attempts;

    if (hooks_.resetPlatform)
        hooks_.resetPlatform(episodes_.back().domain);
    // The reset hook repairs every crashed component, not just the
    // blamed one; clear all outstanding-crash records.
    for (Tick &since : outstandingSince_)
        since = 0;

    eventq().scheduleIn(kResetLatency,
                        [this, gen = episodeGen_] {
                            if (episodeActive_ && gen == episodeGen_)
                                runReattestPhase();
                        });
}

void
RecoveryManager::runReattestPhase()
{
    setState(RecoveryState::ReAttesting);
    episodeOrder_.clear();
    for (const auto &[slot, tenant] : tenants_) {
        if (!tenant.quarantined)
            episodeOrder_.push_back(slot);
    }
    reattestSlot(0);
}

void
RecoveryManager::reattestSlot(std::size_t idx)
{
    // Skip slots quarantined while this pass was running.
    while (idx < episodeOrder_.size() &&
           tenants_[episodeOrder_[idx]].quarantined)
        ++idx;
    if (idx >= episodeOrder_.size()) {
        runResumePhase();
        return;
    }

    eventq().scheduleIn(
        kReattestLatency, [this, gen = episodeGen_, idx] {
            if (!episodeActive_ || gen != episodeGen_)
                return;
            const std::uint32_t slot = episodeOrder_[idx];
            TenantRec &tenant = tenants_[slot];
            const bool ok =
                hooks_.reattest ? hooks_.reattest(slot) : true;
            if (ok) {
                s_.reattests.inc();
                tenant.state = RecoveryState::ReAttesting;
                reattestSlot(idx + 1);
                return;
            }
            s_.reattestFailures.inc();
            warn("recovery: re-attestation failed for slot %u "
                 "(attempt %d/%d)",
                 slot, episodeAttempts_, kMaxEpisodeAttempts);
            if (episodeAttempts_ >= kMaxEpisodeAttempts) {
                quarantine(slot, "re-attestation kept failing");
                episodeAttempts_ = 0;
            }
            // Tear everything down again and retry the whole pass:
            // each kMaxEpisodeAttempts window either succeeds or
            // quarantines at least one slot, so this terminates.
            runResetPhase();
        });
}

void
RecoveryManager::runResumePhase()
{
    setState(RecoveryState::Resuming);
    Episode &ep = episodes_.back();
    for (std::uint32_t slot : episodeOrder_) {
        TenantRec &tenant = tenants_[slot];
        if (tenant.quarantined)
            continue;
        if (tenant.ops.empty())
            continue;
        ++tenant.replayEpisodes;
        if (tenant.replayEpisodes > config_.tenantReplayBudget) {
            quarantine(slot, "replay budget exhausted");
            continue;
        }
        ep.replayedOps += 1;
        tenant.state = RecoveryState::Resuming;
    }
    finishEpisode();
}

void
RecoveryManager::finishEpisode()
{
    Episode &ep = episodes_.back();
    ep.resolvedAt = curTick();
    bool anyAlive = tenants_.empty();
    for (const auto &[slot, tenant] : tenants_) {
        if (!tenant.quarantined)
            anyAlive = true;
    }
    ep.finalState =
        anyAlive ? RecoveryState::Resuming : RecoveryState::Quarantined;
    if (ep.resolvedAt >= ep.detectedAt)
        s_.recoveryLatencyTicks.sample(ep.resolvedAt - ep.detectedAt);
    s_.episodesResolved.inc();

    tracer_->end(traceTrack(),
                 std::string("episode.") + faultDomainName(ep.domain),
                 curTick());
    inform("recovery: episode resolved (%s, %d attempt(s), "
           "%u replayed, %u quarantined)",
           recoveryStateName(ep.finalState), ep.attempts,
           ep.replayedOps, ep.quarantinedTenants);

    episodeActive_ = false;
    ++episodeGen_;
    suspectRounds_ = 0;
    suspectAt_ = 0;
    for (auto &[slot, tenant] : tenants_) {
        if (!tenant.quarantined)
            tenant.state = RecoveryState::Healthy;
    }
    setState(RecoveryState::Healthy);

    // The component re-attested and may take placements again.
    if (hooks_.onDomainUp)
        hooks_.onDomainUp(ep.domain);

    // Reissue journaled work under the fresh sessions.
    for (auto &[slot, tenant] : tenants_) {
        (void)tenant;
        issueHead(slot);
    }
}

void
RecoveryManager::quarantine(std::uint32_t slot, const char *reason)
{
    TenantRec &tenant = tenants_[slot];
    if (tenant.quarantined)
        return;
    tenant.quarantined = true;
    tenant.state = RecoveryState::Quarantined;
    quarantinedBdfs_.insert(tenant.bdfRaw);
    s_.quarantines.inc();
    if (episodeActive_)
        ++episodes_.back().quarantinedTenants;
    warn("recovery: quarantining tenant slot %u (%s)", slot, reason);
    tracer_->instant(traceTrack(), "quarantine", curTick(),
                     std::string("slot ") + std::to_string(slot) +
                         ": " + reason);
    failAllOps(slot);
    if (hooks_.onQuarantine)
        hooks_.onQuarantine(slot);
}

// ---- Guarded operations -------------------------------------------

std::uint64_t
RecoveryManager::roundTrip(std::uint32_t slot, Addr devAddr,
                           Bytes data, RoundTripCb done)
{
    GuardedOp op;
    op.kind = GuardedOp::Kind::RoundTrip;
    op.devAddr = devAddr;
    op.data = std::move(data);
    op.doneRt = std::move(done);
    return submitOp(slot, std::move(op));
}

std::uint64_t
RecoveryManager::guardedKernel(std::uint32_t slot, Tick duration,
                               KernelCb done)
{
    GuardedOp op;
    op.kind = GuardedOp::Kind::Kernel;
    op.duration = duration;
    op.doneKernel = std::move(done);
    return submitOp(slot, std::move(op));
}

std::uint64_t
RecoveryManager::submitOp(std::uint32_t slot, GuardedOp op)
{
    op.id = nextOpId_++;
    s_.opsSubmitted.inc();
    TenantRec &tenant = tenants_[slot];
    if (tenant.quarantined) {
        // Reject asynchronously so callers never reenter themselves.
        s_.opsFailed.inc();
        eventq().scheduleIn(0, [op = std::move(op)]() mutable {
            if (op.doneRt)
                op.doneRt(false, {});
            if (op.doneKernel)
                op.doneKernel(false);
        });
        return op.id;
    }
    const std::uint64_t id = op.id;
    opSubmitTick_[id] = curTick();
    tenant.ops.push_back(std::move(op));
    issueHead(slot);
    return id;
}

std::size_t
RecoveryManager::pendingOps() const
{
    std::size_t n = 0;
    for (const auto &[slot, tenant] : tenants_)
        n += tenant.ops.size();
    return n;
}

Tick
RecoveryManager::opDeadline(const GuardedOp &op) const
{
    return config_.opDeadlineMargin + op.duration +
           static_cast<Tick>(op.data.size()) *
               kOpDeadlinePerByte;
}

void
RecoveryManager::issueHead(std::uint32_t slot)
{
    TenantRec &tenant = tenants_[slot];
    if (tenant.quarantined || episodeActive_ || tenant.ops.empty())
        return;
    GuardedOp &op = tenant.ops.front();
    if (op.issued)
        return;
    op.issued = true;
    ++op.attempts;
    if (op.attempts > 1)
        s_.opReplays.inc();

    const std::uint64_t id = op.id;
    const int attempt = op.attempts;
    const Tick deadline = opDeadline(op);
    if (op.kind == GuardedOp::Kind::RoundTrip) {
        if (hooks_.issueRoundTrip) {
            hooks_.issueRoundTrip(
                slot, op.devAddr, op.data,
                [this, slot, id, attempt](Bytes readback) {
                    onOpComplete(slot, id, attempt,
                                 std::move(readback));
                });
        }
    } else {
        if (hooks_.issueKernel) {
            hooks_.issueKernel(slot, op.duration,
                               [this, slot, id, attempt] {
                                   onOpComplete(slot, id, attempt,
                                                {});
                               });
        }
    }
    armOpDeadline(slot, id, attempt, deadline);
}

void
RecoveryManager::armOpDeadline(std::uint32_t slot, std::uint64_t id,
                               int attempt, Tick deadline)
{
    TenantRec &tenant = tenants_[slot];
    if (!tenant.opTimer)
        tenant.opTimer = std::make_unique<sim::EventFunctionWrapper>(
            [this, slot] {
                TenantRec &t = tenants_[slot];
                onOpDeadline(slot, t.opTimerId, t.opTimerAttempt);
            },
            "recovery-op-deadline");
    tenant.opTimerId = id;
    tenant.opTimerAttempt = attempt;
    eventq().rescheduleIn(tenant.opTimer.get(), deadline);
}

void
RecoveryManager::onOpComplete(std::uint32_t slot, std::uint64_t id,
                              int attempt, Bytes readback)
{
    auto it = tenants_.find(slot);
    if (it == tenants_.end())
        return;
    TenantRec &tenant = it->second;
    if (tenant.ops.empty() || tenant.ops.front().id != id ||
        tenant.ops.front().attempts != attempt) {
        // Completion of a superseded attempt (replayed op finished
        // twice, or stale data fabricated by an exhausted retry).
        s_.opStaleCompletions.inc();
        return;
    }
    if (tenant.opTimer && tenant.opTimer->scheduled())
        eventq().deschedule(tenant.opTimer.get());
    GuardedOp op = std::move(tenant.ops.front());
    tenant.ops.pop_front();
    auto submitted = opSubmitTick_.find(id);
    if (submitted != opSubmitTick_.end()) {
        s_.opLatencyTicks.sample(curTick() - submitted->second);
        opSubmitTick_.erase(submitted);
    }
    s_.opsCompleted.inc();
    if (op.doneRt)
        op.doneRt(true, readback);
    if (op.doneKernel)
        op.doneKernel(true);
    issueHead(slot);
}

void
RecoveryManager::onOpDeadline(std::uint32_t slot, std::uint64_t id,
                              int attempt)
{
    auto it = tenants_.find(slot);
    if (it == tenants_.end())
        return;
    TenantRec &tenant = it->second;
    if (tenant.ops.empty() || tenant.ops.front().id != id ||
        tenant.ops.front().attempts != attempt ||
        !tenant.ops.front().issued) {
        return; // superseded: completed or already marked for replay
    }
    s_.opDeadlines.inc();
    if (episodeActive_ || tenant.quarantined)
        return; // recovery in progress will replay or fail it
    if (tenant.ops.front().attempts >= kMaxOpAttempts) {
        quarantine(slot, "guarded op kept timing out");
        return;
    }
    warn("recovery: guarded op %llu (slot %u) missed its deadline, "
         "probing",
         static_cast<unsigned long long>(id), slot);
    tenant.ops.front().issued = false;
    if (probeInFlight_)
        round_.fromOpTimeout = true;
    else
        startProbeRound(true);
}

void
RecoveryManager::failAllOps(std::uint32_t slot)
{
    TenantRec &tenant = tenants_[slot];
    if (tenant.opTimer && tenant.opTimer->scheduled())
        eventq().deschedule(tenant.opTimer.get());
    while (!tenant.ops.empty()) {
        GuardedOp op = std::move(tenant.ops.front());
        tenant.ops.pop_front();
        opSubmitTick_.erase(op.id);
        s_.opsFailed.inc();
        if (op.doneRt)
            op.doneRt(false, {});
        if (op.doneKernel)
            op.doneKernel(false);
    }
}

void
RecoveryManager::reissueStalledHeads()
{
    for (auto &[slot, tenant] : tenants_) {
        if (!tenant.quarantined && !tenant.ops.empty() &&
            !tenant.ops.front().issued)
            issueHead(slot);
    }
}

// ---- Misc ---------------------------------------------------------

RecoveryState
RecoveryManager::tenantState(std::uint32_t slot) const
{
    auto it = tenants_.find(slot);
    return it == tenants_.end() ? RecoveryState::Healthy
                                : it->second.state;
}

bool
RecoveryManager::quarantined(std::uint32_t slot) const
{
    auto it = tenants_.find(slot);
    return it != tenants_.end() && it->second.quarantined;
}

} // namespace ccai
