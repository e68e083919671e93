/**
 * @file
 * Request arrival processes for the fleet load generator: open-loop
 * Poisson arrivals (exponential inter-arrival times drawn from a
 * per-tenant Rng stream) and trace-driven arrivals replaying an
 * explicit inter-arrival schedule. Open-loop means arrivals do not
 * wait for completions — queueing delay shows up in the SLO
 * percentiles instead of being hidden by a closed feedback loop.
 */

#ifndef CCAI_SERVE_ARRIVAL_HH
#define CCAI_SERVE_ARRIVAL_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/rng.hh"

namespace ccai::serve
{

/**
 * One tenant's arrival process. A non-empty trace takes precedence
 * over the Poisson rate; when the trace is exhausted the process
 * reports done (Poisson processes never finish on their own — the
 * load generator's horizon stops them).
 */
class ArrivalProcess
{
  public:
    /** Poisson arrivals at @p ratePerSec requests per second. */
    static ArrivalProcess
    poisson(double ratePerSec)
    {
        ArrivalProcess p;
        p.ratePerSec_ = ratePerSec;
        return p;
    }

    /** Replay explicit inter-arrival gaps (ticks between requests). */
    static ArrivalProcess
    trace(std::vector<Tick> gaps)
    {
        ArrivalProcess p;
        p.gaps_ = std::move(gaps);
        return p;
    }

    /** True when a finite trace has been fully replayed. */
    bool
    done() const
    {
        return !gaps_.empty() && cursor_ >= gaps_.size();
    }

    /**
     * Draw the gap until the next arrival. Poisson gaps come from
     * inverting the exponential CDF with this tenant's own Rng
     * stream, so tenants are statistically independent but each is
     * individually reproducible. A zero-tick gap is rounded up to
     * one tick to keep arrivals strictly ordered per tenant.
     */
    Tick
    nextGap(sim::Rng &rng)
    {
        if (!gaps_.empty()) {
            Tick gap = gaps_[cursor_ % gaps_.size()];
            ++cursor_;
            return gap > 0 ? gap : 1;
        }
        // u in (0, 1]: uniform01 returns [0, 1) and log(0) is -inf.
        double u = 1.0 - rng.uniform01();
        double seconds = -std::log(u) / ratePerSec_;
        Tick gap = secondsToTicks(seconds);
        return gap > 0 ? gap : 1;
    }

  private:
    ArrivalProcess() = default;

    double ratePerSec_ = 1.0;
    std::vector<Tick> gaps_;
    std::size_t cursor_ = 0;
};

} // namespace ccai::serve

#endif // CCAI_SERVE_ARRIVAL_HH
