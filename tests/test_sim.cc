/**
 * @file
 * Unit tests for the event queue: ordering, determinism, deschedule/
 * reschedule semantics, and one-shot helpers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/eventq.hh"

using namespace fenceless;
using namespace fenceless::sim;

namespace
{

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<int> &log, int id,
                   int priority = prio_default)
        : Event(priority), log_(log), id_(id)
    {}

    void process() override { log_.push_back(id_); }

  private:
    std::vector<int> &log_;
    int id_;
};

} // namespace

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1), e2(log, 2), e3(log, 3);
    eq.schedule(&e2, 20);
    eq.schedule(&e1, 10);
    eq.schedule(&e3, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickInsertionOrder)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1), e2(log, 2), e3(log, 3);
    eq.schedule(&e1, 5);
    eq.schedule(&e2, 5);
    eq.schedule(&e3, 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityBeatsInsertion)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent low(log, 1, Event::prio_lowest);
    RecordingEvent high(log, 2, Event::prio_highest);
    eq.schedule(&low, 5);
    eq.schedule(&high, 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, Deschedule)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1), e2(log, 2);
    eq.schedule(&e1, 10);
    eq.schedule(&e2, 20);
    eq.deschedule(&e1);
    EXPECT_FALSE(e1.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, Reschedule)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1), e2(log, 2);
    eq.schedule(&e1, 10);
    eq.schedule(&e2, 20);
    eq.reschedule(&e1, 30); // move past e2
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RunHorizonStopsEarly)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1), e2(log, 2);
    eq.schedule(&e1, 10);
    eq.schedule(&e2, 100);
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
    EventFunctionWrapper second([&] { fired.push_back(eq.curTick()); },
                                "second");
    EventFunctionWrapper first(
        [&] {
            fired.push_back(eq.curTick());
            eq.schedule(&second, eq.curTick() + 7);
        },
        "first");
    eq.schedule(&first, 3);
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
    RecordingEvent e1(log, 1), e2(log, 2);
    eq.schedule(&e1, 1);
    eq.schedule(&e2, 2);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, NumPendingTracksLazyDeletes)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1);
    eq.schedule(&e1, 10);
    EXPECT_EQ(eq.numPending(), 1u);
    eq.deschedule(&e1);
    EXPECT_EQ(eq.numPending(), 0u);
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_TRUE(log.empty());
}
