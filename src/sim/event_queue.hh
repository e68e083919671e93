/**
 * @file
 * Discrete-event simulation kernel: hierarchical timer wheel.
 *
 * The queue orders callbacks by (tick, priority, sequence) — the exact
 * contract of the original priority-queue kernel (kept as
 * LegacyEventQueue, the differential-test oracle) — but stores pending
 * events in a gem5/Linux-style hierarchical timer wheel so that
 * schedule, deschedule and reschedule are O(1) and dispatch is
 * amortized O(1) per event:
 *
 *   level 0   4096 buckets x 1 tick        (low 12 bits of the tick)
 *   level 1     64 buckets x 4096 ticks    (bits 12..17)
 *   level k     64 buckets x 2^(12+6(k-1)) (bits 12+6(k-1) ..)
 *   level 7     64 buckets x 2^48 ticks    (bits 48..53)
 *   overflow  sorted tick -> bucket map beyond 2^54 ticks (~5 sim-h)
 *
 * An event lives at the level of the most significant digit in which
 * its tick differs from the queue cursor (now + 1). Advancing time
 * cascades the then-current bucket of each level downward, so every
 * event is relinked at most once per level before it reaches the
 * level-0 bucket of its exact tick. Same-tick events are batch-sorted
 * by (priority, sequence) into the current-tick dispatch list, which
 * preserves the deterministic replay contract bit-for-bit.
 *
 * Events are intrusive (Event base class with bucket links), so
 * components own their recurring timers and re-arm them without any
 * allocation, and cancelled timers leave the queue immediately
 * instead of surviving as generation-counter no-ops. The closure API
 * (schedule(tick, std::function)) is backed by a slab freelist of
 * one-shot wrapper events, recycled after dispatch.
 *
 * Simulated time is entirely decoupled from wall-clock time: the LLM
 * benchmarks report results in simulated seconds.
 */

#ifndef CCAI_SIM_EVENT_QUEUE_HH
#define CCAI_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace ccai::sim
{

class EventQueue;

/** Ordering hint for events scheduled at the same tick. */
enum class EventPriority : int
{
    High = 0,
    Default = 50,
    Low = 100,
};

/**
 * Intrusive schedulable entity. Components derive from Event (or
 * embed an EventFunctionWrapper) for recurring timers: the object is
 * relinked in place on schedule/deschedule/reschedule, so re-arming
 * an ARQ or watchdog timer allocates nothing.
 *
 * An Event may be scheduled on at most one queue at a time. If it is
 * destroyed while scheduled it deschedules itself, so component
 * teardown with armed timers is safe.
 */
class Event
{
  public:
    explicit Event(EventPriority prio = EventPriority::Default)
        : prio_(static_cast<std::int16_t>(prio))
    {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when simulated time reaches when(). */
    virtual void process() = 0;

    /** Debug label. */
    virtual const char *name() const { return "event"; }

    /** Tick this event is scheduled for (valid while scheduled). */
    Tick when() const { return when_; }

    bool scheduled() const { return where_ != kUnscheduled; }

    int priority() const { return prio_; }

    /** Only legal while unscheduled. */
    void
    setPriority(EventPriority prio)
    {
        ccai_assert(!scheduled());
        prio_ = static_cast<std::int16_t>(prio);
    }

  private:
    friend class EventQueue;

    static constexpr std::int32_t kUnscheduled = -1;
    static constexpr std::int32_t kCurList = -2;
    static constexpr std::int32_t kOverflow = -3;

    static constexpr std::uint8_t kManaged = 1; ///< queue-owned slab node

    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    Event *prev_ = nullptr;
    Event *next_ = nullptr;
    EventQueue *queue_ = nullptr;
    /** kUnscheduled / kCurList / kOverflow or flat bucket index. */
    std::int32_t where_ = kUnscheduled;
    std::int16_t prio_;
    std::uint8_t flags_ = 0;
};

/**
 * Event carrying a callback set once at construction — the gem5
 * EventFunctionWrapper idiom for component-owned timers: the closure
 * is allocated once per component, not once per arm.
 */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper() = default;
    explicit EventFunctionWrapper(std::function<void()> fn,
                                  const char *name = "wrapped",
                                  EventPriority prio =
                                      EventPriority::Default)
        : Event(prio), fn_(std::move(fn)), name_(name)
    {}

    void
    setCallback(std::function<void()> fn, const char *name = "wrapped")
    {
        ccai_assert(!scheduled());
        fn_ = std::move(fn);
        name_ = name;
    }

    void process() override { fn_(); }
    const char *name() const override { return name_; }

  private:
    std::function<void()> fn_;
    const char *name_ = "wrapped";
};

/**
 * Global event queue with deterministic ordering.
 *
 * Determinism: ties on (tick, priority) break on insertion sequence
 * number, so two runs with identical inputs replay identically —
 * including across wheel level boundaries and cascades, which never
 * reorder same-tick events.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Event-core counters for the observability plane. */
    struct Stats
    {
        std::uint64_t scheduled = 0;  ///< schedule()/reschedule() calls
        std::uint64_t dispatched = 0; ///< events whose process() ran
        std::uint64_t cancelled = 0;  ///< deschedule()d before firing
        std::uint64_t cascades = 0;   ///< event relinks between levels
        std::uint64_t pending = 0;
        std::uint64_t maxPending = 0; ///< high-watermark of pending
        /** Per-level occupancy high-watermarks (level 0..7). */
        std::uint64_t levelHwm[8] = {};
        std::uint64_t overflowHwm = 0;
        /** Slab-allocated one-shot wrapper nodes (capacity). */
        std::uint64_t oneShotCapacity = 0;
        std::uint64_t oneShotLive = 0;
    };

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    // ---- intrusive API (owned events) ----

    /** Schedule @p ev to fire at absolute tick @p when. */
    void schedule(Event *ev, Tick when);

    /** Schedule @p ev to fire @p delay ticks from now. */
    void scheduleIn(Event *ev, Tick delay)
    {
        schedule(ev, now_ + delay);
    }

    /** Remove a pending event in O(1); it simply never fires. */
    void deschedule(Event *ev);

    /** Move a (possibly pending) event to @p when; takes a fresh
     * sequence number, exactly as deschedule + schedule would. */
    void
    reschedule(Event *ev, Tick when)
    {
        if (ev->scheduled())
            deschedule(ev);
        schedule(ev, when);
    }

    void
    rescheduleIn(Event *ev, Tick delay)
    {
        reschedule(ev, now_ + delay);
    }

    // ---- closure API (slab-backed one-shot events) ----

    /** Schedule @p cb to run at absolute tick @p when. */
    void schedule(Tick when, Callback cb,
                  EventPriority prio = EventPriority::Default);

    /** Schedule @p cb to run @p delay ticks from now. */
    void
    scheduleIn(Tick delay, Callback cb,
               EventPriority prio = EventPriority::Default)
    {
        schedule(now_ + delay, std::move(cb), prio);
    }

    // ---- execution ----

    /** True when no events remain. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending events. */
    size_t pending() const { return pending_; }

    /**
     * Run events until the queue drains or @p limit events have been
     * processed.
     *
     * @return number of events processed.
     */
    std::uint64_t run(std::uint64_t limit = UINT64_MAX);

    /** Run events up to and including tick @p until. */
    std::uint64_t runUntil(Tick until);

    /** Tick of the earliest pending event (pending() must be > 0).
     * May relink events between levels; never changes dispatch
     * order. */
    Tick nextEventTick();

    /** Advance time with no event processing (test helper). */
    void
    warp(Tick to)
    {
        ccai_assert(to >= now_);
        ccai_assert(empty());
        now_ = to;
    }

    // ---- statistics ----

    Stats snapshotStats() const;

    std::uint64_t statScheduled() const { return stats_.scheduled; }
    std::uint64_t statDispatched() const { return stats_.dispatched; }
    std::uint64_t statCancelled() const { return stats_.cancelled; }
    std::uint64_t oneShotCapacity() const
    {
        return slabs_.size() * kSlabSize;
    }
    std::uint64_t oneShotLive() const { return liveOneShots_; }

  private:
    // ---- wheel geometry ----
    static constexpr int kL0Bits = 12;
    static constexpr std::uint32_t kL0Buckets = 1u << kL0Bits;
    static constexpr Tick kMask0 = kL0Buckets - 1;
    static constexpr int kLevelBits = 6;
    static constexpr int kUpperLevels = 7;
    static constexpr int kLevels = kUpperLevels + 1;
    /** Bits covered by the whole wheel; beyond lives in overflow_. */
    static constexpr int kTopShift =
        kL0Bits + kUpperLevels * kLevelBits;
    static constexpr std::uint32_t kNumFlat =
        kL0Buckets + kUpperLevels * 64;
    static constexpr std::uint32_t kSlabSize = 256;

    static constexpr int
    shiftFor(int level)
    {
        return kL0Bits + (level - 1) * kLevelBits;
    }

    static std::uint32_t
    digitOf(Tick t, int level)
    {
        return static_cast<std::uint32_t>(t >> shiftFor(level)) & 63u;
    }

    class OneShotEvent;

    // ---- internal linkage ----
    void insertScheduled(Event *ev);
    void insertCurSorted(Event *ev);
    void removeLinked(Event *ev);
    void cascadeBucket(int level, std::uint32_t idx);
    /** Cascade the non-empty bucket of tick @p t's digit on every
     * upper level, top level first. */
    void cascadeCurrent(Tick t);
    bool findNext(Tick *out);
    void serviceTick(Tick t);
    void dispatchOne();

    OneShotEvent *allocOneShot();
    void releaseOneShot(OneShotEvent *ev);

    bool l0FindAtOrAfter(std::uint32_t from, std::uint32_t *out) const;
    void l0Set(std::uint32_t idx);
    void l0ClearIfEmpty(std::uint32_t idx);

    // ---- state ----
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t pending_ = 0;

    /** Flat bucket heads: level 0 first, then 7 x 64 upper buckets. */
    std::vector<Event *> buckets_;
    std::uint64_t l0Words_[kL0Buckets / 64] = {};
    std::uint64_t l0Summary_ = 0;
    std::uint64_t levelWord_[kUpperLevels] = {};
    std::uint64_t levelCount_[kLevels] = {};

    /** Current-tick dispatch list, sorted by (priority, sequence). */
    Event *curHead_ = nullptr;
    Event *curTail_ = nullptr;
    std::uint64_t curCount_ = 0;

    /** Far-future events: tick -> intrusive list head. */
    std::map<Tick, Event *> overflow_;
    std::uint64_t overflowCount_ = 0;

    /** When set, same-tick inserts collect here for one batch sort. */
    bool collecting_ = false;
    std::vector<Event *> scratch_;

    // One-shot wrapper slabs + freelist (chained through next_).
    std::vector<std::unique_ptr<OneShotEvent[]>> slabs_;
    Event *freeHead_ = nullptr;
    std::uint64_t liveOneShots_ = 0;

    Stats stats_;
};

} // namespace ccai::sim

#endif // CCAI_SIM_EVENT_QUEUE_HH
