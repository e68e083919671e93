#include "link.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ccai::pcie
{

Link::Handles::Handles(obs::MetricGroup &g)
    : tlps(g.counterHandle("tlps")),
      wireTlps(g.counterHandle("wire_tlps")),
      payloadBytes(g.counterHandle("payload_bytes")),
      faultsInjected(g.counterHandle("faults_injected")),
      faultFlapEpisodes(g.counterHandle("fault_flap_episodes")),
      faultFlapDrops(g.counterHandle("fault_flap_drops")),
      crcDiscards(g.counterHandle("crc_discards")),
      faultDrops(g.counterHandle("fault_drops")),
      faultCorruptSilent(g.counterHandle("fault_corrupt_silent")),
      faultDelays(g.counterHandle("fault_delays")),
      faultReorders(g.counterHandle("fault_reorders")),
      faultDuplicates(g.counterHandle("fault_duplicates")),
      wireTicks(g.histogramHandle("wire_ticks")),
      queueTicks(g.histogramHandle("queue_ticks"))
{}

Link::Link(sim::System &sys, std::string name, const LinkConfig &config)
    : sim::SimObject(sys, std::move(name)), config_(config),
      stats_(sys.metrics(), this->name()), s_(stats_),
      tracer_(&sys.tracer())
{
}

void
Link::connect(PcieNode *src, PcieNode *dst)
{
    src_ = src;
    dst_ = dst;
}

Tick
Link::serializationDelay(const Tlp &tlp) const
{
    std::uint32_t units = tlp.unitCount();
    std::uint64_t wire_bytes =
        std::uint64_t(tlp.hasData() ? tlp.payloadBytes() : 0) +
        std::uint64_t(units) * (tlp.headerBytes() + config_.framingBytes);
    double seconds = wire_bytes / config_.bytesPerSecond();
    return secondsToTicks(seconds);
}

void
Link::setFaultConfig(const FaultConfig &config)
{
    injector_ = std::make_unique<FaultInjector>(config, name());
}

void
Link::deliver(const TlpPtr &tlp, Tick when)
{
    PcieNode *from = src_;
    PcieNode *to = dst_;
    eventq().schedule(when,
                      [tlp, from, to] { to->receiveTlp(tlp, from); });
}

void
Link::releaseHeld(Tick when)
{
    if (!held_)
        return;
    TlpPtr held = std::move(held_);
    held_.reset();
    ++holdGen_; // invalidates the pending deadline flush
    deliver(held, when);
}

void
Link::send(const TlpPtr &tlp)
{
    if (!dst_)
        panic("link %s: send before connect", name().c_str());

    Tick start = std::max(curTick(), busyUntil_);
    Tick ser = serializationDelay(*tlp);
    busyUntil_ = start + ser;
    Tick arrival = busyUntil_ + config_.propagationDelay;

    s_.tlps.inc();
    s_.wireTlps.inc(tlp->unitCount());
    s_.payloadBytes.inc(tlp->hasData() ? tlp->payloadBytes() : 0);
    s_.wireTicks.sample(ser);
    s_.queueTicks.sample(start - curTick());
    if (tracer_->enabled())
        tracer_->complete(traceTrack(), "wire", start, ser);

    // Fast path: an unfaulted link is bit-identical to the seed model.
    if (!injector_ || !injector_->enabled()) {
        deliver(tlp, arrival);
        return;
    }

    FaultDecision d = injector_->decide(*tlp, start);
    if (d.any()) {
        s_.faultsInjected.inc();
        if (tracer_->enabled())
            tracer_->instant(traceTrack(), "fault", curTick());
    }
    if (d.flapStarted)
        s_.faultFlapEpisodes.inc();

    if (d.drop) {
        // Drops still occupied the wire: random loss and CRC
        // discards happen at the far end, flap loss at the
        // transmitter, but charging serialization uniformly keeps
        // the timing model simple and deterministic.
        if (d.flapDrop)
            s_.faultFlapDrops.inc();
        else if (d.crcDiscard)
            s_.crcDiscards.inc();
        else
            s_.faultDrops.inc();
        // A dropped TLP cannot overtake anything; release any held
        // packet so a drop right after a reorder-hold does not
        // extend the hold indefinitely.
        releaseHeld(arrival);
        return;
    }

    TlpPtr out = tlp;
    if (d.corruptSilent) {
        s_.faultCorruptSilent.inc();
        out = std::make_shared<Tlp>(*tlp);
        injector_->corruptPayload(*out);
    }
    if (d.extraDelay > 0) {
        s_.faultDelays.inc();
        arrival += d.extraDelay;
    }

    // Release any previously held TLP just after this one: the new
    // packet overtakes it (the reorder the hold was for).
    releaseHeld(arrival + 1);

    if (d.reorderHold) {
        s_.faultReorders.inc();
        held_ = out;
        std::uint64_t gen = ++holdGen_;
        // Deadline flush: if nothing overtakes it, deliver late
        // anyway so the TLP is delayed, not lost.
        Tick deadline = arrival + 20 * kTicksPerUs;
        eventq().schedule(deadline, [this, gen, deadline] {
            if (held_ && holdGen_ == gen) {
                TlpPtr held = std::move(held_);
                held_.reset();
                deliver(held, deadline);
            }
        });
        return;
    }

    deliver(out, arrival);
    if (d.duplicate) {
        s_.faultDuplicates.inc();
        deliver(std::make_shared<Tlp>(*out), arrival + ser + 1);
    }
}

DuplexLink::DuplexLink(sim::System &sys, const std::string &name,
                       PcieNode *a, PcieNode *b,
                       const LinkConfig &config)
    : down_(std::make_unique<Link>(sys, name + ".down", config)),
      up_(std::make_unique<Link>(sys, name + ".up", config))
{
    down_->connect(a, b);
    up_->connect(b, a);
}

} // namespace ccai::pcie
