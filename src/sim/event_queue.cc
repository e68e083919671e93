/**
 * @file
 * Hierarchical timer wheel implementation. See event_queue.hh for the
 * geometry and the determinism contract.
 */

#include "sim/event_queue.hh"

#include <algorithm>

namespace ccai::sim
{

/** Slab-recycled wrapper backing the closure schedule() API. */
class EventQueue::OneShotEvent final : public Event
{
  public:
    OneShotEvent() { flags_ = kManaged; }

    void process() override { fn_(); }
    const char *name() const override { return "one-shot"; }

    std::function<void()> fn_;
};

Event::~Event()
{
    if (scheduled() && queue_)
        queue_->deschedule(this);
}

EventQueue::EventQueue() : buckets_(kNumFlat, nullptr) {}

EventQueue::~EventQueue()
{
    // Unhook every still-scheduled owned event so its destructor does
    // not chase a dead queue. Slab nodes are freed with the slabs.
    for (Event *ev = curHead_; ev != nullptr; ev = ev->next_) {
        ev->where_ = Event::kUnscheduled;
        ev->queue_ = nullptr;
    }
    for (Event *head : buckets_) {
        for (Event *ev = head; ev != nullptr; ev = ev->next_) {
            ev->where_ = Event::kUnscheduled;
            ev->queue_ = nullptr;
        }
    }
    for (auto &[tick, head] : overflow_) {
        for (Event *ev = head; ev != nullptr; ev = ev->next_) {
            ev->where_ = Event::kUnscheduled;
            ev->queue_ = nullptr;
        }
    }
}

// ---- level-0 occupancy bitmap (4096 bits, one summary word) ----

void
EventQueue::l0Set(std::uint32_t idx)
{
    l0Words_[idx >> 6] |= 1ull << (idx & 63);
    l0Summary_ |= 1ull << (idx >> 6);
}

void
EventQueue::l0ClearIfEmpty(std::uint32_t idx)
{
    if (buckets_[idx] != nullptr)
        return;
    l0Words_[idx >> 6] &= ~(1ull << (idx & 63));
    if (l0Words_[idx >> 6] == 0)
        l0Summary_ &= ~(1ull << (idx >> 6));
}

bool
EventQueue::l0FindAtOrAfter(std::uint32_t from,
                            std::uint32_t *out) const
{
    std::uint32_t word = from >> 6;
    std::uint64_t w = l0Words_[word] & (~0ull << (from & 63));
    if (w) {
        *out = word * 64 + __builtin_ctzll(w);
        return true;
    }
    if (word == 63)
        return false;
    std::uint64_t s = l0Summary_ & (~0ull << (word + 1));
    if (!s)
        return false;
    word = __builtin_ctzll(s);
    *out = word * 64 + __builtin_ctzll(l0Words_[word]);
    return true;
}

// ---- insertion ----

void
EventQueue::insertCurSorted(Event *ev)
{
    ev->where_ = Event::kCurList;
    ++curCount_;
    Event *pos = curTail_;
    while (pos != nullptr &&
           (pos->prio_ > ev->prio_ ||
            (pos->prio_ == ev->prio_ && pos->seq_ > ev->seq_)))
        pos = pos->prev_;
    if (pos == nullptr) {
        ev->prev_ = nullptr;
        ev->next_ = curHead_;
        if (curHead_)
            curHead_->prev_ = ev;
        else
            curTail_ = ev;
        curHead_ = ev;
    } else {
        ev->prev_ = pos;
        ev->next_ = pos->next_;
        if (pos->next_)
            pos->next_->prev_ = ev;
        else
            curTail_ = ev;
        pos->next_ = ev;
    }
}

void
EventQueue::insertScheduled(Event *ev)
{
    Tick when = ev->when_;
    if (when == now_) {
        // Current-tick event: goes straight to the dispatch list (or
        // the batch-sort scratch while a tick is being serviced).
        if (collecting_) {
            ev->where_ = Event::kCurList;
            scratch_.push_back(ev);
            ++curCount_;
        } else {
            insertCurSorted(ev);
        }
        return;
    }

    const Tick cursor = now_ + 1;
    const Tick diff = when ^ cursor;
    if (diff >> kTopShift) {
        // Beyond the wheel span: sorted overflow buckets.
        auto [it, fresh] = overflow_.try_emplace(when, nullptr);
        ev->prev_ = nullptr;
        ev->next_ = it->second;
        if (it->second)
            it->second->prev_ = ev;
        it->second = ev;
        ev->where_ = Event::kOverflow;
        ++overflowCount_;
        if (overflowCount_ > stats_.overflowHwm)
            stats_.overflowHwm = overflowCount_;
        return;
    }

    // Level of the most significant digit where when differs from
    // the cursor; diff == 0 (when == now_ + 1) lands at level 0.
    const int msb = 63 - __builtin_clzll(diff | 1);
    std::uint32_t flat;
    int level;
    if (msb < kL0Bits) {
        level = 0;
        flat = static_cast<std::uint32_t>(when & kMask0);
        l0Set(flat);
    } else {
        level = (msb - kL0Bits) / kLevelBits + 1;
        const std::uint32_t idx = digitOf(when, level);
        flat = kL0Buckets + (level - 1) * 64 + idx;
        levelWord_[level - 1] |= 1ull << idx;
    }
    ev->prev_ = nullptr;
    ev->next_ = buckets_[flat];
    if (buckets_[flat])
        buckets_[flat]->prev_ = ev;
    buckets_[flat] = ev;
    ev->where_ = static_cast<std::int32_t>(flat);
    ++levelCount_[level];
    if (levelCount_[level] > stats_.levelHwm[level])
        stats_.levelHwm[level] = levelCount_[level];
}

void
EventQueue::removeLinked(Event *ev)
{
    if (ev->where_ == Event::kCurList) {
        if (ev->prev_)
            ev->prev_->next_ = ev->next_;
        else
            curHead_ = ev->next_;
        if (ev->next_)
            ev->next_->prev_ = ev->prev_;
        else
            curTail_ = ev->prev_;
        --curCount_;
    } else if (ev->where_ == Event::kOverflow) {
        if (ev->prev_) {
            ev->prev_->next_ = ev->next_;
            if (ev->next_)
                ev->next_->prev_ = ev->prev_;
        } else {
            auto it = overflow_.find(ev->when_);
            ccai_assert(it != overflow_.end() && it->second == ev);
            it->second = ev->next_;
            if (ev->next_)
                ev->next_->prev_ = nullptr;
            else
                overflow_.erase(it);
        }
        --overflowCount_;
    } else {
        const auto flat = static_cast<std::uint32_t>(ev->where_);
        if (ev->prev_)
            ev->prev_->next_ = ev->next_;
        else
            buckets_[flat] = ev->next_;
        if (ev->next_)
            ev->next_->prev_ = ev->prev_;
        if (flat < kL0Buckets) {
            --levelCount_[0];
            l0ClearIfEmpty(flat);
        } else {
            const int level = (flat - kL0Buckets) / 64 + 1;
            --levelCount_[level];
            if (buckets_[flat] == nullptr)
                levelWord_[level - 1] &=
                    ~(1ull << ((flat - kL0Buckets) % 64));
        }
    }
    ev->prev_ = nullptr;
    ev->next_ = nullptr;
    ev->where_ = Event::kUnscheduled;
}

void
EventQueue::cascadeBucket(int level, std::uint32_t idx)
{
    const std::uint32_t flat = kL0Buckets + (level - 1) * 64 + idx;
    Event *ev = buckets_[flat];
    ccai_assert(ev != nullptr);
    buckets_[flat] = nullptr;
    levelWord_[level - 1] &= ~(1ull << idx);
    while (ev != nullptr) {
        Event *next = ev->next_;
        --levelCount_[level];
        ++stats_.cascades;
        insertScheduled(ev);
        ev = next;
    }
}

void
EventQueue::cascadeCurrent(Tick t)
{
    // levelWord_ marks exactly the non-empty buckets, so testing it
    // skips the empty ones without changing what cascades.
    for (int level = kUpperLevels; level >= 1; --level) {
        const std::uint32_t idx = digitOf(t, level);
        if (levelWord_[level - 1] & (1ull << idx))
            cascadeBucket(level, idx);
    }
}

// ---- scheduling API ----

void
EventQueue::schedule(Event *ev, Tick when)
{
    if (ev->scheduled())
        panic("scheduling an already-scheduled event (%s)",
              ev->name());
    if (when < now_)
        panic("scheduling event in the past (%llu < %llu)",
              (unsigned long long)when, (unsigned long long)now_);
    ev->when_ = when;
    ev->seq_ = nextSeq_++;
    ev->queue_ = this;
    ++stats_.scheduled;
    ++pending_;
    if (pending_ > stats_.maxPending)
        stats_.maxPending = pending_;
    insertScheduled(ev);
}

void
EventQueue::deschedule(Event *ev)
{
    ccai_assert(ev->scheduled());
    ccai_assert(ev->queue_ == this);
    removeLinked(ev);
    --pending_;
    ++stats_.cancelled;
    if (ev->flags_ & Event::kManaged)
        releaseOneShot(static_cast<OneShotEvent *>(ev));
}

void
EventQueue::schedule(Tick when, Callback cb, EventPriority prio)
{
    if (when < now_)
        panic("scheduling event in the past (%llu < %llu)",
              (unsigned long long)when, (unsigned long long)now_);
    OneShotEvent *ev = allocOneShot();
    ev->fn_ = std::move(cb);
    ev->prio_ = static_cast<std::int16_t>(prio);
    schedule(ev, when);
}

// ---- one-shot slab ----

EventQueue::OneShotEvent *
EventQueue::allocOneShot()
{
    if (freeHead_ == nullptr) {
        slabs_.push_back(std::make_unique<OneShotEvent[]>(kSlabSize));
        OneShotEvent *slab = slabs_.back().get();
        for (std::uint32_t i = 0; i < kSlabSize; ++i) {
            slab[i].next_ = freeHead_;
            freeHead_ = &slab[i];
        }
    }
    auto *ev = static_cast<OneShotEvent *>(freeHead_);
    freeHead_ = ev->next_;
    ev->next_ = nullptr;
    ++liveOneShots_;
    return ev;
}

void
EventQueue::releaseOneShot(OneShotEvent *ev)
{
    ev->fn_ = nullptr; // drop captured state now, not at reuse
    ev->queue_ = nullptr;
    ev->next_ = freeHead_;
    freeHead_ = ev;
    --liveOneShots_;
}

// ---- execution ----

bool
EventQueue::findNext(Tick *out)
{
    if (curCount_ > 0) {
        *out = now_;
        return true;
    }
    if (pending_ == 0)
        return false;

    const Tick cursor = now_ + 1;

    // Cascade each level's current-digit bucket: those buckets cover
    // tick ranges that overlap the levels below, so their events must
    // sink before lower levels can be trusted as "earliest". Each
    // bucket is cascaded once per visit of its digit, keeping the
    // per-event relink count bounded by the level count.
    cascadeCurrent(cursor);

    std::uint32_t idx;
    if (l0FindAtOrAfter(static_cast<std::uint32_t>(cursor & kMask0),
                        &idx)) {
        *out = (cursor & ~kMask0) + idx;
        return true;
    }

    for (int level = 1; level <= kUpperLevels; ++level) {
        const std::uint32_t digit = digitOf(cursor, level);
        std::uint64_t w = levelWord_[level - 1];
        // All remaining buckets are strictly ahead of the cursor's
        // digit (the current-digit bucket cascaded above).
        w &= digit == 63 ? 0 : (~0ull << (digit + 1));
        if (!w)
            continue;
        const std::uint32_t flat =
            kL0Buckets + (level - 1) * 64 + __builtin_ctzll(w);
        Tick best = ~Tick(0);
        for (Event *ev = buckets_[flat]; ev; ev = ev->next_)
            best = std::min(best, ev->when_);
        *out = best;
        return true;
    }

    ccai_assert(overflowCount_ > 0);
    *out = overflow_.begin()->first;
    return true;
}

void
EventQueue::serviceTick(Tick t)
{
    ccai_assert(curCount_ == 0);
    now_ = t;

    // Pull overflow ticks that now fit in the wheel span.
    while (overflowCount_ > 0) {
        auto it = overflow_.begin();
        if ((it->first ^ (t + 1)) >> kTopShift && it->first != t)
            break;
        Event *ev = it->second;
        std::uint64_t n = 0;
        for (Event *e = ev; e; e = e->next_)
            ++n;
        overflowCount_ -= n;
        overflow_.erase(it);
        collecting_ = true;
        while (ev != nullptr) {
            Event *next = ev->next_;
            ++stats_.cascades;
            insertScheduled(ev);
            ev = next;
        }
        collecting_ = false;
    }

    // Sink this tick's events down the wheel; same-tick ones collect
    // into scratch_ for one batch sort instead of n^2 list inserts.
    collecting_ = true;
    cascadeCurrent(t);
    const auto flat = static_cast<std::uint32_t>(t & kMask0);
    Event *ev = buckets_[flat];
    buckets_[flat] = nullptr;
    l0ClearIfEmpty(flat);
    while (ev != nullptr) {
        Event *next = ev->next_;
        --levelCount_[0];
        ccai_assert(ev->when_ == t);
        ev->where_ = Event::kCurList;
        scratch_.push_back(ev);
        ++curCount_;
        ev = next;
    }
    collecting_ = false;

    std::sort(scratch_.begin(), scratch_.end(),
              [](const Event *a, const Event *b) {
                  if (a->prio_ != b->prio_)
                      return a->prio_ < b->prio_;
                  return a->seq_ < b->seq_;
              });
    Event *prev = curTail_;
    for (Event *e : scratch_) {
        e->prev_ = prev;
        e->next_ = nullptr;
        if (prev)
            prev->next_ = e;
        else
            curHead_ = e;
        prev = e;
    }
    curTail_ = prev;
    scratch_.clear();
}

void
EventQueue::dispatchOne()
{
    Event *ev = curHead_;
    ccai_assert(ev != nullptr);
    curHead_ = ev->next_;
    if (curHead_)
        curHead_->prev_ = nullptr;
    else
        curTail_ = nullptr;
    --curCount_;
    --pending_;
    ev->where_ = Event::kUnscheduled;
    ev->prev_ = nullptr;
    ev->next_ = nullptr;
    ++stats_.dispatched;
    ccai_assert(ev->when_ == now_);
    if (ev->flags_ & Event::kManaged) {
        auto *os = static_cast<OneShotEvent *>(ev);
        os->process();
        releaseOneShot(os);
    } else {
        ev->process();
    }
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t processed = 0;
    while (processed < limit) {
        if (curCount_ == 0) {
            Tick t;
            if (!findNext(&t))
                break;
            serviceTick(t);
        }
        dispatchOne();
        ++processed;
    }
    return processed;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t processed = 0;
    while (true) {
        Tick t;
        if (curCount_ > 0)
            t = now_; // pending current-tick events live at now_
        else if (!findNext(&t))
            break;
        if (t > until)
            break;
        if (curCount_ == 0)
            serviceTick(t);
        dispatchOne();
        ++processed;
    }
    if (now_ < until)
        now_ = until;
    return processed;
}

Tick
EventQueue::nextEventTick()
{
    Tick t = 0;
    const bool found = findNext(&t);
    ccai_assert(found);
    return t;
}

EventQueue::Stats
EventQueue::snapshotStats() const
{
    Stats s = stats_;
    s.pending = pending_;
    s.oneShotCapacity = oneShotCapacity();
    s.oneShotLive = liveOneShots_;
    return s;
}

} // namespace ccai::sim
