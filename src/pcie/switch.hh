/**
 * @file
 * PCIe switch: routes TLPs between ports by address range (memory
 * requests), routing ID (completions/config), or broadcast
 * (messages). The root complex and the PCIe-SC's internal fabric are
 * both built from this component.
 */

#ifndef CCAI_PCIE_SWITCH_HH
#define CCAI_PCIE_SWITCH_HH

#include <map>
#include <vector>

#include "pcie/link.hh"

namespace ccai::pcie
{

/** An address window claimed by a downstream port (a BAR range). */
struct AddrRange
{
    Addr base = 0;
    std::uint64_t size = 0;

    bool
    contains(Addr a) const
    {
        return a >= base && a < base + size;
    }

    bool
    contains(Addr a, std::uint64_t len) const
    {
        return a >= base && a + len <= base + size;
    }
};

/**
 * N-port store-and-forward switch. Each port is a Link to a
 * neighbour; routing tables map address ranges and routing IDs to
 * ports. Per-TLP forwarding latency models the switch's pipeline.
 */
class Switch : public sim::SimObject, public PcieNode
{
  public:
    Switch(sim::System &sys, std::string name,
           Tick forwardLatency = 150 * kTicksPerNs);

    /** Register a port; returns the port index. */
    int addPort(Link *out);

    /** Route memory requests in [base, base+size) to @p port. */
    void mapAddressRange(const AddrRange &range, int port);

    /** Route ID-based TLPs for @p id to @p port. */
    void mapRoutingId(Bdf id, int port);

    /** Port that receives TLPs matching no table entry (-1 = drop). */
    void setDefaultPort(int port) { defaultPort_ = port; }

    // PcieNode interface
    void receiveTlp(const TlpPtr &tlp, PcieNode *from) override;
    const std::string &nodeName() const override { return name(); }

    obs::MetricGroup &stats() { return stats_; }

  private:
    int routePort(const Tlp &tlp) const;

    std::vector<Link *> ports_;
    std::vector<std::pair<AddrRange, int>> addrMap_;
    std::map<std::uint16_t, int> idMap_;
    int defaultPort_ = -1;
    Tick forwardLatency_;
    obs::MetricGroup stats_;

    /** Typed handles resolved once; no name lookup per TLP. */
    struct Handles
    {
        explicit Handles(obs::MetricGroup &g)
            : forwarded(g.counterHandle("forwarded")),
              dropped(g.counterHandle("dropped"))
        {}

        obs::CounterHandle forwarded;
        obs::CounterHandle dropped;
    } s_;
};

} // namespace ccai::pcie

#endif // CCAI_PCIE_SWITCH_HH
