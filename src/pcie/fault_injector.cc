#include "fault_injector.hh"

#include <algorithm>

namespace ccai::pcie
{

bool
FaultInjector::carriesCiphertext(const Tlp &tlp)
{
    // A2 ciphertext travels either as an encrypted MemWrite (bounce
    // DMA) or as a bulk read completion. Small completions are
    // control-path values (record counts, MMIO registers) whose loss
    // the ARQ heals but whose silent corruption nothing could — and
    // a real interposer targets the ciphertext, not the CRC-checked
    // control plane.
    if (tlp.type == TlpType::MemWrite && tlp.encrypted)
        return true;
    if (tlp.type == TlpType::Completion && tlp.data.size() >= 1024)
        return true;
    return false;
}

FaultDecision
FaultInjector::decide(const Tlp &tlp, Tick now)
{
    FaultDecision d;

    // Fixed draw order: every TLP consumes the same number of
    // uniforms no matter which faults fire, so the decision for TLP
    // k depends only on (seed, link, k) — the determinism guarantee
    // the replay tests pin down.
    double flapDraw = rng_.uniform01();
    double dropDraw = rng_.uniform01();
    double corruptDraw = rng_.uniform01();
    double silentDraw = rng_.uniform01();
    double dupDraw = rng_.uniform01();
    double delayDraw = rng_.uniform01();
    std::uint64_t delayPick =
        rng_.uniform(config_.delayMin, config_.delayMax);
    double reorderDraw = rng_.uniform01();
    std::uint64_t flapPick =
        rng_.uniform(config_.flapMin, config_.flapMax);

    if (config_.flapRate > 0 && flapDraw < config_.flapRate &&
        now >= flapUntil_) {
        flapUntil_ = now + flapPick;
        d.flapStarted = true;
    }
    if (now < flapUntil_) {
        d.drop = true;
        d.flapDrop = true;
        return d; // a down link delivers nothing; other faults moot
    }

    if (dropDraw < config_.dropRate) {
        d.drop = true;
        return d;
    }

    if (corruptDraw < config_.corruptRate) {
        bool silent = silentDraw < config_.corruptSilentFraction &&
                      carriesCiphertext(tlp);
        if (silent) {
            d.corruptSilent = true;
        } else {
            // LCRC catches it; the data-link layer discards.
            d.drop = true;
            d.crcDiscard = true;
            return d;
        }
    }

    if (dupDraw < config_.duplicateRate)
        d.duplicate = true;
    if (delayDraw < config_.delayRate)
        d.extraDelay = delayPick;
    if (reorderDraw < config_.reorderRate)
        d.reorderHold = true;
    return d;
}

void
FaultInjector::corruptPayload(Tlp &tlp)
{
    if (tlp.data.empty()) {
        // Synthetic payloads carry no bytes; flag the corruption via
        // the integrity tag so verification still fails.
        if (!tlp.integrityTag.empty())
            tlp.integrityTag[0] ^= 0x80;
        return;
    }
    // Mangle a handful of bytes at deterministic positions. A derived
    // stream (not rng_) keeps the per-TLP decision draw count fixed:
    // mangling one payload never shifts later TLPs' fault schedule.
    // Distinct positions with nonzero masks guarantee the payload
    // actually changes (independent single-bit flips could cancel).
    sim::Rng mangler(config_.seed ^ sim::seedHash(salt_ + "#corrupt") ^
                     ++corruptCount_);
    std::size_t flips = 1 + std::size_t(mangler.uniform(0, 3));
    flips = std::min(flips, tlp.data.size());
    std::size_t base = mangler.uniform(0, tlp.data.size() - 1);
    for (std::size_t i = 0; i < flips; ++i) {
        std::size_t pos = (base + i) % tlp.data.size();
        tlp.data[pos] ^= std::uint8_t(1 + mangler.uniform(0, 254));
    }
}

} // namespace ccai::pcie
