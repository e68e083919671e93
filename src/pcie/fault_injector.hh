/**
 * @file
 * Deterministic fault injection for PCIe links.
 *
 * A FaultInjector sits inside Link::send() and decides, per TLP, a
 * set of faults to apply: drop, bit-corrupt, duplicate, extra delay,
 * a one-slot reorder hold, and link-flap episodes during which every
 * TLP is lost. Decisions come from a private Rng seeded with
 * (config.seed ^ fnv1a(linkName)), so for a fixed seed the schedule
 * on every link is a pure function of the TLP sequence it carries —
 * two runs of the same binary with the same seed inject the exact
 * same faults (see DESIGN.md "Fault model").
 *
 * Corruption semantics: real PCIe protects every TLP with an LCRC,
 * so random bit errors are detected at the data-link layer and the
 * packet is discarded (equivalent to a drop; the end-to-end ARQ
 * heals it). We model that as `crc_discards`. A configurable
 * fraction (`corruptSilentFraction`, default 0) instead models an
 * adversarial interposer that fixes up the CRC: the mangled payload
 * is delivered. Silent corruption is only applied to
 * ciphertext-bearing TLPs (large completions and encrypted writes),
 * where the GCM/HMAC integrity layer — not the CRC — is the defense
 * the paper claims; control-path TLPs stay CRC-protected.
 */

#ifndef CCAI_PCIE_FAULT_INJECTOR_HH
#define CCAI_PCIE_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "pcie/tlp.hh"
#include "sim/rng.hh"

namespace ccai::pcie
{

/** Per-link fault schedule configuration. All rates are per-TLP. */
struct FaultConfig
{
    /** Root seed; each link derives its own stream from this. */
    std::uint64_t seed = 1;

    /** P(drop the TLP entirely). */
    double dropRate = 0.0;
    /** P(bit-corrupt the TLP). Detected by LCRC => drop, except for
     * the silent fraction below. */
    double corruptRate = 0.0;
    /**
     * Fraction of corruptions that evade the CRC (adversarial
     * tamper). Applied only to ciphertext-bearing TLPs; a CRC-evading
     * corruption of any other TLP is still modelled as a discard.
     */
    double corruptSilentFraction = 0.0;
    /** P(deliver the TLP twice). */
    double duplicateRate = 0.0;
    /** P(add extra latency). */
    double delayRate = 0.0;
    /** Extra latency bounds for delayed TLPs. */
    Tick delayMin = 1 * kTicksPerUs;
    Tick delayMax = 50 * kTicksPerUs;
    /** P(hold this TLP back one slot so the next one overtakes it). */
    double reorderRate = 0.0;
    /** P(a link-flap episode starts at this TLP). While flapping,
     * every TLP is dropped. */
    double flapRate = 0.0;
    /** Flap episode duration bounds. */
    Tick flapMin = 5 * kTicksPerUs;
    Tick flapMax = 100 * kTicksPerUs;

    /** True when any fault can ever fire. */
    bool
    anyEnabled() const
    {
        return dropRate > 0 || corruptRate > 0 || duplicateRate > 0 ||
               delayRate > 0 || reorderRate > 0 || flapRate > 0;
    }

    /** Uniform preset: every kind at @p rate (flap slightly rarer). */
    static FaultConfig
    uniform(std::uint64_t seed, double rate)
    {
        FaultConfig c;
        c.seed = seed;
        c.dropRate = rate;
        c.corruptRate = rate;
        c.duplicateRate = rate;
        c.delayRate = rate;
        c.reorderRate = rate;
        c.flapRate = rate / 10.0;
        return c;
    }
};

/** What Link::send() should do with one TLP. */
struct FaultDecision
{
    bool drop = false;        ///< do not deliver
    bool crcDiscard = false;  ///< the drop is a detected corruption
    bool flapDrop = false;    ///< the drop is due to a flap episode
    bool flapStarted = false; ///< this TLP opened a flap episode
    bool corruptSilent = false; ///< deliver with mangled payload
    bool duplicate = false;   ///< deliver a second copy
    Tick extraDelay = 0;      ///< add to the arrival time
    bool reorderHold = false; ///< hold one slot, release on next send

    bool
    any() const
    {
        return drop || corruptSilent || duplicate || extraDelay > 0 ||
               reorderHold;
    }
};

/**
 * Pure decision engine: consumes randomness in a fixed order per TLP
 * so the schedule is reproducible. The Link owns scheduling; this
 * class owns only the dice and the flap-episode clock.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultConfig &config, const std::string &linkName)
        : config_(config), salt_(linkName),
          rng_(config.seed ^ sim::seedHash(salt_))
    {
    }

    const FaultConfig &config() const { return config_; }

    /** Fast path: when false the link behaves exactly as unfaulted. */
    bool enabled() const { return config_.anyEnabled(); }

    /**
     * Decide the faults for one TLP sent at @p now. Draws happen in
     * a fixed order (flap, drop, corrupt, duplicate, delay, reorder)
     * regardless of earlier outcomes, so one fault firing never
     * shifts the schedule of later TLPs.
     */
    FaultDecision decide(const Tlp &tlp, Tick now);

    /** Mangle a TLP copy for silent corruption (payload bit flips). */
    void corruptPayload(Tlp &tlp);

    /** True when @p tlp carries ciphertext the integrity layer (not
     * the CRC) is responsible for — the only silent-corruption
     * targets. */
    static bool carriesCiphertext(const Tlp &tlp);

  private:
    FaultConfig config_;
    std::string salt_;
    sim::Rng rng_;
    Tick flapUntil_ = 0;
    std::uint64_t corruptCount_ = 0;
};

} // namespace ccai::pcie

#endif // CCAI_PCIE_FAULT_INJECTOR_HH
