/**
 * @file
 * xPU Environment Guard (paper §4.2): validates security-critical
 * MMIO values during computing (A3 "Security Verify") and scrubs the
 * xPU environment when a task terminates, so the next tenant cannot
 * recover residual data from device memory, caches, registers or
 * TLBs.
 */

#ifndef CCAI_SC_ENV_GUARD_HH
#define CCAI_SC_ENV_GUARD_HH

#include <functional>
#include <map>

#include "obs/metric_group.hh"
#include "pcie/memory_map.hh"
#include "pcie/tlp.hh"

namespace ccai::sc
{

/** An MMIO register whose written values the guard constrains. */
struct MmioConstraint
{
    Addr regOffset = 0;  ///< offset within the xPU MMIO BAR
    std::uint64_t minValue = 0;
    std::uint64_t maxValue = UINT64_MAX;
};

/**
 * Runtime MMIO validation plus environment scrubbing.
 *
 * The canonical constraint is the xPU page-table base register: a
 * malicious driver could point the device MMU at another tenant's
 * memory; the guard pins it inside the window the Adaptor set up.
 */
class EnvGuard
{
  public:
    /** Pin the value range of an MMIO register. */
    void addConstraint(const MmioConstraint &constraint);

    /**
     * Validate an MMIO write heading to the xPU. Non-constrained
     * registers always pass.
     */
    bool checkMmioWrite(const pcie::Tlp &tlp);

    /** Hook invoked to cold-reset the device (FPGA-driven). */
    void setColdResetHook(std::function<void()> hook)
    {
        coldReset_ = std::move(hook);
    }

    /** Hook invoked to request a software reset via the Adaptor. */
    void setSoftResetHook(std::function<void()> hook)
    {
        softReset_ = std::move(hook);
    }

    /**
     * Clean the xPU computing environment at task teardown. Prefers
     * the software reset path when the device supports it, falling
     * back to a cold boot reset (§4.2).
     */
    void cleanEnvironment(bool device_supports_soft_reset);

    /**
     * Mirror the guard's counters into @p group (the owning SC's
     * metric group) so they appear in the metrics JSON. The local
     * counters keep working for standalone/unit-test guards.
     */
    void bindStats(obs::MetricGroup &group)
    {
        violationsHandle_ =
            group.counterHandle("env_guard_violations");
        cleansHandle_ = group.counterHandle("env_guard_cleans");
        scrubsSkippedHandle_ =
            group.counterHandle("env_guard_scrubs_skipped");
    }

    std::uint64_t violations() const { return violations_.value(); }
    std::uint64_t cleans() const { return cleans_.value(); }
    /** Scrub requests dropped because no reset hook was installed —
     * each one is a tenant whose residue was NOT cleared. */
    std::uint64_t scrubsSkipped() const
    {
        return scrubsSkipped_.value();
    }

  private:
    std::map<Addr, MmioConstraint> constraints_;
    std::function<void()> coldReset_;
    std::function<void()> softReset_;
    obs::Counter violations_;
    obs::Counter cleans_;
    obs::Counter scrubsSkipped_;
    obs::CounterHandle violationsHandle_;
    obs::CounterHandle cleansHandle_;
    obs::CounterHandle scrubsSkippedHandle_;
};

} // namespace ccai::sc

#endif // CCAI_SC_ENV_GUARD_HH
