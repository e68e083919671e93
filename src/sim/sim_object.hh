/**
 * @file
 * Base class for simulated components and the System container that
 * owns the event queue, metrics registry and tracer they share.
 */

#ifndef CCAI_SIM_SIM_OBJECT_HH
#define CCAI_SIM_SIM_OBJECT_HH

#include <string>

#include "obs/metric_group.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"

namespace ccai::sim
{

class System;

/**
 * A named component on a System's shared event queue. Components
 * that keep statistics register their obs::MetricGroup with the
 * System's metrics registry, which is the one directory of them.
 */
class SimObject
{
  public:
    SimObject(System &sys, std::string name)
        : sys_(sys), name_(std::move(name))
    {}

    const std::string &name() const { return name_; }
    System &system() { return sys_; }

    /** Current simulated time (forwarded from the system queue). */
    Tick curTick() const;

  protected:
    EventQueue &eventq();

  private:
    System &sys_;
    std::string name_;
};

/**
 * Top-level simulation container: the event queue, the metrics
 * registry and the tracer of one simulated machine. A System runs
 * once; a new run builds a new System.
 */
class System
{
  public:
    System() = default;
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    EventQueue &eventq() { return eventq_; }
    Tick now() const { return eventq_.now(); }

    /** Observability plane: directory of component metric groups. */
    obs::MetricsRegistry &metrics() { return metrics_; }
    const obs::MetricsRegistry &metrics() const { return metrics_; }

    /** Span tracer (off by default; sim-time stamped). */
    obs::Tracer &tracer() { return tracer_; }
    const obs::Tracer &tracer() const { return tracer_; }

    /** Run the event loop to completion. */
    std::uint64_t run(std::uint64_t limit = UINT64_MAX)
    {
        return eventq_.run(limit);
    }

  private:
    EventQueue eventq_;
    obs::MetricsRegistry metrics_;
    obs::Tracer tracer_;
};

inline Tick
SimObject::curTick() const
{
    return sys_.now();
}

inline EventQueue &
SimObject::eventq()
{
    return sys_.eventq();
}

} // namespace ccai::sim

#endif // CCAI_SIM_SIM_OBJECT_HH
