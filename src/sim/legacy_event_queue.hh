/**
 * @file
 * The seed priority-queue event kernel, kept as the differential-test
 * oracle for the timer-wheel EventQueue and as the baseline side of
 * bench_serve_fleet's events/sec comparison.
 *
 * One defect of the seed version is fixed here (the wheel kernel
 * never had it): run()/runUntil() copied events_.top() — a full
 * std::function copy per dispatched event — before popping. The
 * binary heap is now managed explicitly with std::pop_heap so the
 * hot event is moved out of the container instead.
 *
 * Ordering contract (identical to EventQueue): (tick, priority,
 * sequence), ties on insertion order.
 */

#ifndef CCAI_SIM_LEGACY_EVENT_QUEUE_HH
#define CCAI_SIM_LEGACY_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/event_queue.hh" // EventPriority

namespace ccai::sim
{

/**
 * Deterministic min-heap of std::function callbacks — the seed
 * kernel. O(log n) schedule/dispatch, no cancellation: cancelled
 * timers must be emulated with generation-counter no-ops, which stay
 * queued until their tick arrives (exactly what the wheel kernel's
 * deschedule() eliminates).
 */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    LegacyEventQueue() = default;
    LegacyEventQueue(const LegacyEventQueue &) = delete;
    LegacyEventQueue &operator=(const LegacyEventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p cb to run at absolute tick @p when. */
    void
    schedule(Tick when, Callback cb,
             EventPriority prio = EventPriority::Default)
    {
        if (when < now_)
            panic("scheduling event in the past (%llu < %llu)",
                  (unsigned long long)when, (unsigned long long)now_);
        events_.push_back(Event{when, static_cast<int>(prio),
                                nextSeq_++, std::move(cb)});
        std::push_heap(events_.begin(), events_.end(), Later{});
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    void
    scheduleIn(Tick delay, Callback cb,
               EventPriority prio = EventPriority::Default)
    {
        schedule(now_ + delay, std::move(cb), prio);
    }

    /** True when no events remain. */
    bool empty() const { return events_.empty(); }

    /** Number of pending events. */
    size_t pending() const { return events_.size(); }

    /**
     * Run events until the queue drains or @p limit events have been
     * processed.
     *
     * @return number of events processed.
     */
    std::uint64_t
    run(std::uint64_t limit = UINT64_MAX)
    {
        std::uint64_t processed = 0;
        while (!events_.empty() && processed < limit) {
            Event ev = popTop();
            ccai_assert(ev.when >= now_);
            now_ = ev.when;
            ev.cb();
            ++processed;
        }
        return processed;
    }

    /** Run events up to and including tick @p until. */
    std::uint64_t
    runUntil(Tick until)
    {
        std::uint64_t processed = 0;
        while (!events_.empty() && events_.front().when <= until) {
            Event ev = popTop();
            now_ = ev.when;
            ev.cb();
            ++processed;
        }
        if (now_ < until)
            now_ = until;
        return processed;
    }

    /** Advance time with no event processing (test helper). */
    void
    warp(Tick to)
    {
        ccai_assert(to >= now_);
        ccai_assert(events_.empty());
        now_ = to;
    }

  private:
    struct Event
    {
        Tick when;
        int prio;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    /** Move the root out of the heap — no std::function copy. */
    Event
    popTop()
    {
        std::pop_heap(events_.begin(), events_.end(), Later{});
        Event ev = std::move(events_.back());
        events_.pop_back();
        return ev;
    }

    std::vector<Event> events_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace ccai::sim

#endif // CCAI_SIM_LEGACY_EVENT_QUEUE_HH
