#include "env_guard.hh"

#include "common/logging.hh"

namespace ccai::sc
{

namespace mm = pcie::memmap;

void
EnvGuard::addConstraint(const MmioConstraint &constraint)
{
    constraints_[constraint.regOffset] = constraint;
}

bool
EnvGuard::checkMmioWrite(const pcie::Tlp &tlp)
{
    if (!mm::kXpuMmio.contains(tlp.address))
        return true;
    Addr offset = tlp.address - mm::kXpuMmio.base;
    auto it = constraints_.find(offset);
    if (it == constraints_.end())
        return true;

    // Check the value the device will latch: XpuDevice::handleMmioWrite
    // latches 0 for a synthetic write or one shorter than 8 bytes, so
    // those are checked as 0 rather than passed unchecked.
    std::uint64_t value = 0;
    if (!tlp.synthetic && tlp.data.size() >= 8) {
        for (int i = 7; i >= 0; --i)
            value = (value << 8) | tlp.data[i];
    }

    const MmioConstraint &c = it->second;
    if (value < c.minValue || value > c.maxValue) {
        violations_.inc();
        violationsHandle_.inc();
        warn("env guard: MMIO write 0x%llx to reg 0x%llx outside "
             "[0x%llx, 0x%llx]",
             (unsigned long long)value, (unsigned long long)offset,
             (unsigned long long)c.minValue,
             (unsigned long long)c.maxValue);
        return false;
    }
    return true;
}

void
EnvGuard::cleanEnvironment(bool device_supports_soft_reset)
{
    cleans_.inc();
    cleansHandle_.inc();
    if (device_supports_soft_reset && softReset_) {
        softReset_();
        return;
    }
    if (coldReset_) {
        coldReset_();
        return;
    }
    // A skipped scrub means residual tenant data stays on the
    // device (§4.2): count it so the metrics JSON surfaces it.
    scrubsSkipped_.inc();
    scrubsSkippedHandle_.inc();
    warn("env guard: scrub requested but no reset hook installed — "
         "device environment NOT cleaned (%llu skipped so far)",
         (unsigned long long)scrubsSkipped_.value());
}

} // namespace ccai::sc
