/**
 * @file
 * Timer-wheel kernel tests: deterministic ordering across wheel level
 * boundaries, O(1) deschedule/reschedule semantics, overflow ring,
 * slab recycling, and a large differential replay against the seed
 * priority-queue kernel (LegacyEventQueue) as the oracle.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/legacy_event_queue.hh"
#include "sim/rng.hh"

using namespace ccai;
using namespace ccai::sim;

namespace
{

// Wheel geometry mirrored from event_queue.hh: level 0 covers 4096
// one-tick buckets, each upper level adds 6 bits, the whole wheel
// covers 2^54 ticks.
constexpr Tick kL1Edge = Tick(1) << 12;
constexpr Tick kL2Edge = Tick(1) << 18;
constexpr Tick kWheelSpan = Tick(1) << 54;

} // namespace

TEST(TimerWheel, SameTickTiesAcrossLevelBoundaries)
{
    // Events landing exactly on a level boundary start life in an
    // upper-level bucket and cascade down; ties at the boundary tick
    // must still dispatch in (priority, sequence) order, interleaved
    // correctly with the neighbouring ticks.
    EventQueue q;
    std::vector<int> order;
    for (Tick edge : {kL1Edge, kL2Edge}) {
        order.clear();
        // Scheduled deliberately out of submission order.
        q.schedule(q.now() + edge + 1, [&] { order.push_back(6); });
        q.schedule(q.now() + edge, [&] { order.push_back(3); },
                   EventPriority::Low);
        q.schedule(q.now() + edge - 1, [&] { order.push_back(0); });
        q.schedule(q.now() + edge, [&] { order.push_back(1); },
                   EventPriority::High);
        q.schedule(q.now() + edge, [&] { order.push_back(4); },
                   EventPriority::Low);
        q.schedule(q.now() + edge, [&] { order.push_back(2); });
        q.schedule(q.now() + edge + 1, [&] { order.push_back(7); });
        q.schedule(q.now() + edge - 1, [&] { order.push_back(5); },
                   EventPriority::Low);
        q.run();
        EXPECT_EQ(order, (std::vector<int>{0, 5, 1, 2, 3, 4, 6, 7}))
            << "edge " << edge;
    }
}

TEST(TimerWheel, DescheduleThenRescheduleTakesFreshSequence)
{
    // reschedule() == deschedule() + schedule(): the moved event gets
    // a fresh sequence number, so it dispatches after a same-tick
    // event scheduled between the two arms.
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper moved([&] { order.push_back(1); }, "moved");
    q.schedule(&moved, 100);
    q.schedule(50, [&] { order.push_back(0); });
    q.reschedule(&moved, 200);
    q.schedule(200, [&] { order.push_back(2); });
    // "moved" was re-armed before the tick-200 closure, but both its
    // arms predate it... no: the reschedule consumed a sequence number
    // BEFORE the closure's, so it still fires first at tick 200.
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));

    // Now the other direction: a closure armed between deschedule and
    // re-arm outruns the timer at the same tick.
    order.clear();
    q.schedule(&moved, q.now() + 10);
    q.deschedule(&moved);
    q.schedule(q.now() + 10, [&] { order.push_back(0); });
    q.schedule(&moved, q.now() + 10);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(TimerWheel, DescheduledEventNeverFires)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper ev([&] { ++fired; }, "cancelled");
    q.schedule(&ev, 10);
    EXPECT_TRUE(ev.scheduled());
    q.deschedule(&ev);
    EXPECT_FALSE(ev.scheduled());
    q.schedule(20, [] {});
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.statCancelled(), 1u);
}

TEST(TimerWheel, DestructorDeschedules)
{
    EventQueue q;
    int fired = 0;
    {
        EventFunctionWrapper ev([&] { ++fired; }, "scoped");
        q.schedule(&ev, 10);
        EXPECT_EQ(q.pending(), 1u);
    }
    EXPECT_TRUE(q.empty());
    q.run();
    EXPECT_EQ(fired, 0);
}

TEST(TimerWheel, RunUntilOnBucketEdge)
{
    // runUntil(t) is inclusive of t even when t is the first tick of
    // a fresh level-0 rotation (4096), and leaves now() == t.
    EventQueue q;
    int fired = 0;
    q.schedule(kL1Edge - 1, [&] { ++fired; });
    q.schedule(kL1Edge, [&] { ++fired; });
    q.schedule(kL1Edge + 1, [&] { ++fired; });
    EXPECT_EQ(q.runUntil(kL1Edge), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), kL1Edge);
    q.run();
    EXPECT_EQ(fired, 3);
}

TEST(TimerWheel, OverflowBeyondWheelSpan)
{
    // Events beyond the wheel's 2^54-tick span live in the overflow
    // map and keep the ordering contract once time reaches them.
    EventQueue q;
    std::vector<int> order;
    const Tick far = kWheelSpan + 12345;
    q.schedule(far, [&] { order.push_back(1); }, EventPriority::Low);
    q.schedule(far, [&] { order.push_back(0); }, EventPriority::High);
    q.schedule(far + 1, [&] { order.push_back(2); });
    q.schedule(7, [&] { order.push_back(-1); });
    EXPECT_EQ(q.snapshotStats().overflowHwm, 3u);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
    EXPECT_EQ(q.now(), far + 1);
}

TEST(TimerWheel, NextEventTickAcrossLevels)
{
    EventQueue q;
    q.schedule(kL2Edge + 17, [] {});
    EXPECT_EQ(q.nextEventTick(), kL2Edge + 17);
    q.schedule(42, [] {});
    EXPECT_EQ(q.nextEventTick(), 42u);
    q.run();
    EXPECT_EQ(q.now(), kL2Edge + 17);
}

TEST(TimerWheel, WarpAdvancesTime)
{
    EventQueue q;
    q.warp(1000);
    EXPECT_EQ(q.now(), 1000u);
    int fired = 0;
    q.scheduleIn(5, [&] { ++fired; });
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 1005u);
}

TEST(TimerWheel, ResetReleasesSlabsAndShrinkBoundsCapacity)
{
    // Slab reuse: a drained burst returns every one-shot node to the
    // free list, so an identical second burst allocates no new slab
    // and capacity does not grow run over run.
    EventQueue q;
    auto burst = [&q] {
        for (int i = 0; i < 5000; ++i)
            q.scheduleIn(i + 1, [] {});
        q.run();
        EXPECT_EQ(q.oneShotLive(), 0u);
        return q.oneShotCapacity();
    };
    const std::uint64_t first = burst();
    EXPECT_GE(first, 5000u);
    EXPECT_EQ(burst(), first);
}

TEST(TimerWheel, StatsCountKernelWork)
{
    EventQueue q;
    EventFunctionWrapper ev([] {}, "counted");
    q.schedule(&ev, 10);
    q.reschedule(&ev, 20); // cancel + schedule
    q.schedule(5, [] {});
    q.run();
    const EventQueue::Stats st = q.snapshotStats();
    EXPECT_EQ(st.scheduled, 3u);
    EXPECT_EQ(st.dispatched, 2u);
    EXPECT_EQ(st.cancelled, 1u);
    EXPECT_EQ(st.maxPending, 2u);
    EXPECT_EQ(st.pending, 0u);
}

namespace
{

/**
 * Differential replay harness: the same logical timer workload driven
 * through the wheel kernel (owned events, real deschedule) and the
 * legacy heap kernel (generation-counter no-ops), recording the order
 * of live firings. The two kernels must agree event for event.
 *
 * The workload models the dominant ccAI pattern: per-timer re-arms
 * that usually land before the previous arm fires (ARQ/watchdog
 * churn), plus occasional cancels, with delays spanning every wheel
 * level and the overflow map.
 */
struct DifferentialScript
{
    struct Arm
    {
        Tick at = 0;       ///< driver tick performing the op
        Tick delay = 0;    ///< new timeout (0 = cancel)
        std::uint32_t timer = 0;
        EventPriority prio = EventPriority::Default;
    };
    std::vector<Arm> arms;
    std::uint32_t timers = 0;

    static DifferentialScript
    generate(std::uint64_t seed, std::uint32_t timers,
             std::uint32_t narms)
    {
        DifferentialScript s;
        s.timers = timers;
        Rng rng(seed);
        Tick at = 0;
        s.arms.reserve(narms);
        for (std::uint32_t i = 0; i < narms; ++i) {
            at += rng.uniform(0, 3); // several ops per tick
            Arm a;
            a.at = at;
            a.timer = static_cast<std::uint32_t>(
                rng.uniform(0, timers - 1));
            const auto kind = rng.uniform(0, 15);
            if (kind == 0) {
                a.delay = 0; // cancel
            } else {
                // Log-uniform delay: bit-width first, then value —
                // exercises every level plus the overflow map.
                const auto bits = rng.uniform(1, 56);
                a.delay = 1 + rng.uniform(
                    0, (Tick(1) << bits) - 1);
            }
            a.prio = a.timer % 3 == 0 ? EventPriority::High
                   : a.timer % 3 == 1 ? EventPriority::Default
                                      : EventPriority::Low;
            s.arms.push_back(a);
        }
        return s;
    }
};

struct Firing
{
    Tick at;
    std::uint32_t timer;
    bool operator==(const Firing &o) const
    {
        return at == o.at && timer == o.timer;
    }
};

std::vector<Firing>
replayWheel(const DifferentialScript &s)
{
    EventQueue q;
    std::vector<Firing> firings;
    std::vector<std::unique_ptr<EventFunctionWrapper>> timers;
    timers.reserve(s.timers);
    for (std::uint32_t i = 0; i < s.timers; ++i)
        timers.push_back(std::make_unique<EventFunctionWrapper>(
            [&q, &firings, i] {
                firings.push_back({q.now(), i});
            },
            "diff-timer"));
    for (const auto &a : s.arms) {
        EventFunctionWrapper *t = timers[a.timer].get();
        q.schedule(a.at, [&q, t, a] {
            if (t->scheduled())
                q.deschedule(t);
            if (a.delay != 0) {
                t->setPriority(a.prio);
                q.scheduleIn(t, a.delay);
            }
        });
    }
    q.run();
    return firings;
}

std::vector<Firing>
replayLegacy(const DifferentialScript &s)
{
    LegacyEventQueue q;
    std::vector<Firing> firings;
    std::vector<std::uint64_t> gen(s.timers, 0);
    for (const auto &a : s.arms) {
        q.schedule(a.at, [&q, &firings, &gen, a] {
            const std::uint64_t mygen = ++gen[a.timer];
            if (a.delay == 0)
                return; // cancel == nothing ever fires for mygen
            q.scheduleIn(a.delay,
                         [&q, &firings, &gen, a, mygen] {
                             if (gen[a.timer] != mygen)
                                 return; // stale no-op
                             firings.push_back({q.now(), a.timer});
                         },
                         a.prio);
        });
    }
    q.run();
    return firings;
}

} // namespace

TEST(TimerWheel, DifferentialReplayMatchesLegacyKernel)
{
    // >1M dispatched events on the legacy side (arms + live and stale
    // timer firings); the wheel must produce the identical live
    // firing sequence.
    const auto script =
        DifferentialScript::generate(0xd1ffu, 512, 600000);
    const auto legacy = replayLegacy(script);
    const auto wheel = replayWheel(script);
    ASSERT_EQ(wheel.size(), legacy.size());
    for (std::size_t i = 0; i < wheel.size(); ++i) {
        ASSERT_TRUE(wheel[i] == legacy[i])
            << "divergence at firing " << i << ": wheel ("
            << wheel[i].at << ", t" << wheel[i].timer
            << ") vs legacy (" << legacy[i].at << ", t"
            << legacy[i].timer << ")";
    }
    EXPECT_GT(wheel.size(), 50000u); // the workload actually fired
}

TEST(TimerWheel, DifferentialReplayIsDeterministic)
{
    const auto script =
        DifferentialScript::generate(0xcafeu, 64, 20000);
    const auto a = replayWheel(script);
    const auto b = replayWheel(script);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(a[i] == b[i]) << "divergence at firing " << i;
}
