/**
 * @file
 * Unit tests for the event queue: ordering, determinism, run horizons
 * and the count of live one-shot events.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/eventq.hh"

using namespace fenceless;
using namespace fenceless::sim;

namespace
{

/** Schedule an event that appends @p id to @p log when it fires. */
void
record(EventQueue &eq, std::vector<int> &log, int id, Tick when,
       int priority = prio_default)
{
    eq.scheduleOneShot(when, [&log, id] { log.push_back(id); }, priority);
}

} // namespace

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    record(eq, log, 2, 20);
    record(eq, log, 1, 10);
    record(eq, log, 3, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickInsertionOrder)
{
    EventQueue eq;
    std::vector<int> log;
    record(eq, log, 1, 5);
    record(eq, log, 2, 5);
    record(eq, log, 3, 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityBeatsInsertion)
{
    EventQueue eq;
    std::vector<int> log;
    record(eq, log, 1, 5, prio_lowest);
    record(eq, log, 2, 5, prio_highest);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RunHorizonStopsEarly)
{
    EventQueue eq;
    std::vector<int> log;
    record(eq, log, 1, 10);
    record(eq, log, 2, 100);
    eq.run(50);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.curTick(), 50u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.scheduleOneShot(3, [&] {
        fired.push_back(eq.curTick());
        eq.scheduleOneShot(eq.curTick() + 7,
                           [&] { fired.push_back(eq.curTick()); });
    });
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{3, 10}));
}

TEST(EventQueue, OneShotSelfDeletes)
{
    EventQueue eq;
    int count = 0;
    eq.scheduleOneShot(5, [&] { ++count; });
    eq.scheduleOneShot(5, [&] { ++count; });
    eq.run();
    EXPECT_EQ(count, 2);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, StepFiresExactlyOne)
{
    EventQueue eq;
    std::vector<int> log;
    record(eq, log, 1, 1);
    record(eq, log, 2, 2);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, NumPendingTracksLazyDeletes)
{
    // Nothing is ever cancelled: a caller drops a callback lazily by
    // moving a generation the callback captured.  The orphaned event
    // stays pending, and counted, until it fires and returns.
    EventQueue eq;
    std::uint64_t gen = 0;
    int fired = 0;
    eq.scheduleOneShot(10, [&, g = gen] {
        if (g == gen)
            ++fired;
    });
    EXPECT_EQ(eq.numPending(), 1u);
    ++gen;
    EXPECT_EQ(eq.numPending(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.numPending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 10u);
    EXPECT_EQ(eq.stalePops(), 0u);
}

TEST(EventQueue, OneShotCountIsPeakOfLiveEvents)
{
    // oneShotNodesAllocated() is the peak of pending one-shots plus the
    // one firing: a callback's own event stays live while it runs, and
    // what it schedules into its own tick counts with it.
    EventQueue eq;
    std::vector<int> log;
    eq.scheduleOneShot(1, [&] {
        log.push_back(0);
        record(eq, log, 3, eq.curTick(), prio_lowest);
        record(eq, log, 4, eq.curTick(), prio_lowest);
        record(eq, log, 2, eq.curTick(), prio_highest);
    });
    record(eq, log, 5, 2);
    record(eq, log, 6, 2);
    EXPECT_EQ(eq.oneShotNodesAllocated(), 3u);

    EXPECT_TRUE(eq.step());
    // Event 0 ran with two pending and scheduled three: six live.
    EXPECT_EQ(eq.oneShotNodesAllocated(), 6u);
    EXPECT_EQ(eq.oneShotNodesFree(), 1u);

    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 2, 3, 4, 5, 6}));
    EXPECT_EQ(eq.curTick(), 2u);
    EXPECT_EQ(eq.oneShotNodesAllocated(), 6u);
    EXPECT_EQ(eq.oneShotNodesFree(), 6u);
}
