/**
 * @file
 * PCIe bus attacker (paper §2.2/§8.2): an interposer on a link that
 * can snoop, tamper with, replay, reorder, drop, or inject TLPs —
 * the physical bus adversary ccAI's A2/A3 protections defend
 * against. Tests splice a BusTap into the fabric and assert that
 * sensitive payloads are unreadable and that manipulations are
 * detected or rendered harmless.
 */

#ifndef CCAI_ATTACK_BUS_TAP_HH
#define CCAI_ATTACK_BUS_TAP_HH

#include <deque>
#include <functional>
#include <vector>

#include "pcie/link.hh"
#include "sim/sim_object.hh"

namespace ccai::attack
{

/** Active manipulation the tap applies to traffic. */
enum class TapMode
{
    SnoopOnly,    ///< record copies, forward unmodified
    TamperPayload,///< flip bits in data payloads
    /** Mark a data TLP length-only (synthetic): keep lengthBytes,
     * drop the bytes. The flag sits outside every MAC. */
    StripPayload,
    Replay,       ///< forward and re-inject recorded packets
    /** Replay with the sequence number re-stamped to the next value
     * the receiver expects, defeating the transport-layer duplicate
     * suppression — the forgery must instead fail the A3 MAC, which
     * covers the sequence fields. */
    ReplayResequenced,
    Drop,         ///< silently drop matching packets
    Reorder,      ///< delay packets to invert ordering
};

/**
 * The interposer. Splice it between two nodes by giving it the two
 * outgoing links; it forwards (possibly manipulated) traffic and
 * keeps a capture log for the snooping analysis.
 */
class BusTap : public sim::SimObject, public pcie::PcieNode
{
  public:
    using Filter = std::function<bool(const pcie::Tlp &)>;

    BusTap(sim::System &sys, std::string name);

    /** Attach the two directions, like a PCIe-SC would. */
    void connect(pcie::Link *towardsA, pcie::PcieNode *neighborA,
                 pcie::Link *towardsB, pcie::PcieNode *neighborB);

    void setMode(TapMode mode) { mode_ = mode; }

    /** Restrict manipulation to packets matching @p filter. */
    void setTargetFilter(Filter filter) { filter_ = std::move(filter); }

    // PcieNode interface
    void receiveTlp(const pcie::TlpPtr &tlp, pcie::PcieNode *from)
        override;
    const std::string &nodeName() const override { return name(); }

    /** Everything that crossed the tap (deep copies). */
    const std::vector<pcie::Tlp> &captured() const { return captured_; }

    /** Captured packets that carried data payloads. */
    std::vector<pcie::Tlp> capturedWithData() const;

    /** Inject an arbitrary TLP into the fabric. */
    void inject(const pcie::Tlp &tlp, bool towardsB);

    std::uint64_t dropped() const { return dropped_; }
    std::uint64_t tampered() const { return tampered_; }

  private:
    void forward(const pcie::TlpPtr &tlp, bool towardsB);

    pcie::Link *linkA_ = nullptr; ///< towards neighbour A
    pcie::Link *linkB_ = nullptr; ///< towards neighbour B
    pcie::PcieNode *neighborA_ = nullptr;
    pcie::PcieNode *neighborB_ = nullptr;

    TapMode mode_ = TapMode::SnoopOnly;
    Filter filter_;
    std::vector<pcie::Tlp> captured_;
    std::uint64_t dropped_ = 0;
    std::uint64_t tampered_ = 0;
    pcie::TlpPtr heldBack_; ///< reorder buffer (one slot)
    bool heldTowardsB_ = false;
};

/**
 * A malicious PCIe device: issues DMA to arbitrary host addresses,
 * probes the xPU, and forges requester IDs — the "attacks from
 * malicious devices" adversary of §8.2.
 */
class MaliciousDevice : public sim::SimObject, public pcie::PcieNode
{
  public:
    MaliciousDevice(sim::System &sys, std::string name,
                    pcie::Bdf bdf = pcie::wellknown::kMaliciousDevice);

    void connectUpstream(pcie::Link *up) { up_ = up; }

    /** DMA-read @p len bytes from host address @p addr. */
    void dmaReadHost(Addr addr, std::uint32_t len);

    /** DMA-write a payload to host or device address @p addr. */
    void dmaWrite(Addr addr, Bytes payload);

    /** Probe the protected xPU's MMIO space. */
    void probeXpu(Addr addr, std::uint32_t len);

    /** Send a request with a forged requester ID. */
    void spoofRequester(pcie::Bdf spoofed, Addr addr,
                        std::uint32_t len);

    // PcieNode interface
    void receiveTlp(const pcie::TlpPtr &tlp, pcie::PcieNode *from)
        override;
    const std::string &nodeName() const override { return name(); }

    /** Completions the attack actually got back. */
    const std::vector<pcie::Tlp> &loot() const { return loot_; }

    /** Number of completer-abort responses received. */
    std::uint64_t aborts() const { return aborts_; }

  private:
    pcie::Bdf bdf_;
    pcie::Link *up_ = nullptr;
    std::uint8_t nextTag_ = 0;
    std::vector<pcie::Tlp> loot_;
    std::uint64_t aborts_ = 0;
};

} // namespace ccai::attack

#endif // CCAI_ATTACK_BUS_TAP_HH
