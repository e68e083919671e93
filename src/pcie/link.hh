/**
 * @file
 * PCIe link timing model and the node/port abstraction that wires
 * the fabric together.
 *
 * A PcieNode receives TLPs; a Link connects two nodes and delivers
 * TLPs with serialization + propagation delay computed from the
 * configured generation (GT/s) and lane count. Links serialize: a TLP
 * cannot start transmitting before the previous one finished, which
 * models bandwidth contention for Figure 12a's stress test.
 */

#ifndef CCAI_PCIE_LINK_HH
#define CCAI_PCIE_LINK_HH

#include <memory>
#include <optional>
#include <string>

#include "obs/metric_group.hh"
#include "obs/trace.hh"
#include "pcie/fault_injector.hh"
#include "pcie/tlp.hh"
#include "sim/sim_object.hh"

namespace ccai::pcie
{

/** Receiving end of a link: anything that accepts TLPs. */
class PcieNode
{
  public:
    virtual ~PcieNode() = default;

    /** Handle an inbound TLP arriving from @p from. */
    virtual void receiveTlp(const TlpPtr &tlp, PcieNode *from) = 0;

    /** Node name for diagnostics. */
    virtual const std::string &nodeName() const = 0;
};

/** Physical-layer parameters of one link. */
struct LinkConfig
{
    double gtPerSec = 16.0; ///< per-lane signalling rate (GT/s)
    int lanes = 16;
    /** Encoding efficiency: 128b/130b for Gen3+; 8b/10b would be 0.8. */
    double encodingEfficiency = 128.0 / 130.0;
    /** Propagation + SERDES latency per traversal. */
    Tick propagationDelay = 50 * kTicksPerNs;
    /** Per-wire-TLP framing overhead (STP/end, LCRC, DLLP share). */
    std::uint32_t framingBytes = 12;

    /**
     * Raw post-encoding lane bandwidth in bytes per second. This is
     * deliberately NOT net of framing: framingBytes is charged per
     * wire-level TLP in Link::serializationDelay() (alongside the
     * header bytes), because framing is a per-packet cost, not a
     * rate derating — a 4 KiB burst pays 16 x (header + framing) at
     * this raw rate. Dividing framing into the rate here as well
     * would double-count it. tests/pcie/link_property_test.cc pins
     * the resulting Gen3/Gen4/Gen5 per-TLP wire times.
     */
    double
    bytesPerSecond() const
    {
        return gtPerSec * 1e9 * lanes * encodingEfficiency / 8.0;
    }
};

/**
 * Unidirectional link between two fabric nodes. Bidirectional
 * connections instantiate one Link per direction (PCIe is full
 * duplex).
 */
class Link : public sim::SimObject
{
  public:
    Link(sim::System &sys, std::string name, const LinkConfig &config);

    /** Attach endpoints; @p src is used only for attribution. */
    void connect(PcieNode *src, PcieNode *dst);

    /**
     * Queue a TLP for transmission. Serialization delay covers every
     * wire-level packet a burst TLP represents.
     */
    void send(const TlpPtr &tlp);

    const LinkConfig &config() const { return config_; }

    /**
     * Install (or replace) the deterministic fault injector. The
     * injector's random stream is derived from (config.seed, link
     * name), so two links sharing a FaultConfig still make
     * independent — but per-seed reproducible — decisions.
     */
    void setFaultConfig(const FaultConfig &config);

    obs::MetricGroup &stats() { return stats_; }

    /** Serialization time for one TLP (all its wire units). */
    Tick serializationDelay(const Tlp &tlp) const;

  private:
    /** Schedule delivery of @p tlp at @p when. */
    void deliver(const TlpPtr &tlp, Tick when);
    /** Release a held (reordered) TLP, if any. */
    void releaseHeld(Tick when);

    LinkConfig config_;
    PcieNode *src_ = nullptr;
    PcieNode *dst_ = nullptr;
    /** Time the link becomes free for the next TLP. */
    Tick busyUntil_ = 0;

    std::unique_ptr<FaultInjector> injector_;
    /** One-slot reorder buffer: (tlp, generation for the deadline
     * flush that fires when no later TLP overtakes it). */
    TlpPtr held_;
    std::uint64_t holdGen_ = 0;

    obs::MetricGroup stats_;

    /** Typed handles resolved once; no name lookup per TLP. */
    struct Handles
    {
        explicit Handles(obs::MetricGroup &g);

        obs::CounterHandle tlps;
        obs::CounterHandle wireTlps;
        obs::CounterHandle payloadBytes;
        obs::CounterHandle faultsInjected;
        obs::CounterHandle faultFlapEpisodes;
        obs::CounterHandle faultFlapDrops;
        obs::CounterHandle crcDiscards;
        obs::CounterHandle faultDrops;
        obs::CounterHandle faultCorruptSilent;
        obs::CounterHandle faultDelays;
        obs::CounterHandle faultReorders;
        obs::CounterHandle faultDuplicates;

        obs::HistogramHandle wireTicks;
        obs::HistogramHandle queueTicks;
    } s_;

    obs::Tracer *tracer_;
    obs::TrackId track_ = obs::kNoTrack;
    obs::TrackId traceTrack()
    {
        return tracer_->trackCached(track_, name());
    }
};

/**
 * Convenience holder for a full-duplex connection (a Link in each
 * direction) between two nodes.
 */
class DuplexLink
{
  public:
    DuplexLink(sim::System &sys, const std::string &name,
               PcieNode *a, PcieNode *b, const LinkConfig &config);

    /** Send from a-side to b-side. */
    Link &downstream() { return *down_; }
    /** Send from b-side to a-side. */
    Link &upstream() { return *up_; }

  private:
    std::unique_ptr<Link> down_;
    std::unique_ptr<Link> up_;
};

} // namespace ccai::pcie

#endif // CCAI_PCIE_LINK_HH
