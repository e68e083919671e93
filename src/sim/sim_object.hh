/**
 * @file
 * Base class for simulated components and the System container that
 * owns the event queue they share.
 */

#ifndef CCAI_SIM_SIM_OBJECT_HH
#define CCAI_SIM_SIM_OBJECT_HH

#include <memory>
#include <string>
#include <vector>

#include "obs/metric_group.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"

namespace ccai::sim
{

class System;

/**
 * A named component attached to a System. SimObjects share the
 * system's event queue and are enumerated for reset/statistics.
 */
class SimObject
{
  public:
    SimObject(System &sys, std::string name);
    virtual ~SimObject() = default;

    const std::string &name() const { return name_; }
    System &system() { return sys_; }

    /** Current simulated time (forwarded from the system queue). */
    Tick curTick() const;

    /** Restore power-on state. Called by System::resetAll(). */
    virtual void reset() {}

    /** Statistics group, when the object keeps one. */
    virtual obs::MetricGroup *statGroup() { return nullptr; }

  protected:
    EventQueue &eventq();

  private:
    System &sys_;
    std::string name_;
};

/**
 * Top-level simulation container: owns the event queue and tracks all
 * SimObjects registered against it.
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

    /** Reset every registered object and the queue. */
    void
    resetAll()
    {
        eventq_.reset();
        for (SimObject *obj : objects_)
            obj->reset();
    }

    const std::vector<SimObject *> &objects() const { return objects_; }

    /**
     * Sum a named counter across every registered object's stat
     * group. Used by fault/soak tests to aggregate e.g.
     * "faults_injected" over all links without enumerating them.
     */
    std::uint64_t
    sumCounter(const std::string &name)
    {
        std::uint64_t total = 0;
        for (SimObject *obj : objects_) {
            if (obs::MetricGroup *stats = obj->statGroup()) {
                auto it = stats->counters().find(name);
                if (it != stats->counters().end())
                    total += it->second.value();
            }
        }
        return total;
    }

    /** Render every registered object's statistics (gem5-style). */
    std::string
    dumpStats()
    {
        std::string out;
        for (SimObject *obj : objects_) {
            if (obs::MetricGroup *stats = obj->statGroup())
                out += stats->dump();
        }
        return out;
    }

  private:
    friend class SimObject;
    void registerObject(SimObject *obj) { objects_.push_back(obj); }

    EventQueue eventq_;
    std::vector<SimObject *> objects_;
    obs::MetricsRegistry metrics_;
    obs::Tracer tracer_;
};

inline
SimObject::SimObject(System &sys, std::string name)
    : sys_(sys), name_(std::move(name))
{
    sys_.registerObject(this);
}

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
