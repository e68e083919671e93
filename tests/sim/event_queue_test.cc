/**
 * @file
 * Simulation-kernel tests: event ordering, determinism, priorities,
 * runUntil semantics, and the stats framework.
 */

#include <gtest/gtest.h>

#include "obs/metric_group.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"

using namespace ccai;
using namespace ccai::sim;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); }, EventPriority::Low);
    q.schedule(5, [&] { order.push_back(0); }, EventPriority::High);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.scheduleIn(1, [&] {
            ++fired;
            q.scheduleIn(1, [&] { ++fired; });
        });
    });
    q.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), 3u);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 15u);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunWithLimit)
{
    EventQueue q;
    int fired = 0;
    for (int i = 0; i < 5; ++i)
        q.schedule(i, [&] { ++fired; });
    EXPECT_EQ(q.run(3), 3u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.pending(), 2u);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(5, [] {}), "past");
}

TEST(Stats, CounterBasics)
{
    obs::Counter c;
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
}

TEST(Stats, GroupDump)
{
    obs::MetricGroup g("unit");
    g.counterHandle("hits").inc(3);
    g.histogramHandle("lat").sample(1);
    std::string dump = g.dump();
    EXPECT_NE(dump.find("unit.hits 3"), std::string::npos);
    EXPECT_NE(dump.find("unit.lat.count 1"), std::string::npos);
}

TEST(Rng, Deterministic)
{
    Rng a(99), b(99);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
    EXPECT_EQ(a.bytes(32), b.bytes(32));
}

TEST(Rng, RangeRespected)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniform(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}
