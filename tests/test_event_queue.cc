/**
 * @file
 * Unit tests for the deterministic event queue.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/event_queue.hh"

using namespace libra;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTick(), maxTick);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickEventsRunInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.runUntil();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NowAdvancesToEventTick)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(42, [&] { seen = eq.now(); });
    eq.runOne();
    EXPECT_EQ(seen, 42u);
    EXPECT_EQ(eq.now(), 42u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(10, [&] {
        eq.scheduleAfter(5, [&] { seen = eq.now(); });
    });
    eq.runUntil();
    EXPECT_EQ(seen, 15u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 10)
            eq.scheduleAfter(1, chain);
    };
    eq.schedule(0, chain);
    eq.runUntil();
    EXPECT_EQ(count, 10);
    EXPECT_EQ(eq.now(), 9u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 0; t < 10; ++t)
        eq.schedule(t * 10, [&] { ++count; });
    const auto ran = eq.runUntil(45);
    EXPECT_EQ(ran, 5u); // ticks 0,10,20,30,40
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.nextEventTick(), 50u);
}

TEST(EventQueue, SchedulingAtCurrentTickAllowed)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(7, [&] {
        eq.schedule(7, [&] { ran = true; });
    });
    eq.runUntil();
    EXPECT_TRUE(ran);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.runOne();
    EXPECT_DEATH(eq.schedule(5, [] {}), "scheduling in the past");
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 17; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.runUntil();
    EXPECT_EQ(eq.eventsExecuted(), 17u);
}

TEST(EventQueue, PendingReflectsQueueSize)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.runOne();
    EXPECT_EQ(eq.pending(), 1u);
}

// ---------------------------------------------------------------------
// Timing wheel: differential ordering against a reference model.
// ---------------------------------------------------------------------

namespace
{

/**
 * Drives an EventQueue and a reference std::multimap keyed by
 * (when, seq) side by side. Every event checks, as it runs, that it is
 * the model's earliest entry; every driver step checks the queue's
 * pending count, emptiness and next tick against the model.
 */
class WheelHarness
{
  public:
    static constexpr Tick W = EventQueue::kWheel;

    explicit WheelHarness(std::uint64_t seed) : rng(seed) {}

    /** Deltas on and around the wheel's edges, plus near and far mixes. */
    Tick
    pickDelta()
    {
        static constexpr Tick edges[] = {0, 1, W - 1, W, W + 1, 10 * W};
        switch (rng.next() % 4) {
          case 0:
          case 1:
            return edges[rng.below(std::size(edges))];
          case 2:
            return 2 + rng.below(62);
          default:
            return rng.below(3 * W);
        }
    }

    void
    scheduleOne(Tick delta)
    {
        const Tick when = eq.now() + delta;
        const std::uint64_t id = nextId++;
        model.emplace(std::make_pair(when, seq++), id);
        eq.schedule(when, [this, when, id] { onRun(when, id); });
    }

    /** The model's view of nextEventTick(), pending() and empty(). */
    void
    checkAgainstModel() const
    {
        EXPECT_EQ(eq.pending(), model.size());
        EXPECT_EQ(eq.empty(), model.empty());
        EXPECT_EQ(eq.nextEventTick(),
                  model.empty() ? maxTick : model.begin()->first.first);
    }

    EventQueue eq;
    Rng rng;
    std::multimap<std::pair<Tick, std::uint64_t>, std::uint64_t> model;
    std::uint64_t seq = 0;
    std::uint64_t nextId = 0;
    std::uint64_t ran = 0;

  private:
    void
    onRun(Tick when, std::uint64_t id)
    {
        ASSERT_FALSE(model.empty()) << "event " << id << " ran twice";
        const auto front = model.begin();
        ASSERT_EQ(front->second, id)
            << "ran event " << id << " for tick " << when
            << " ahead of event " << front->second << " for tick "
            << front->first.first;
        ASSERT_EQ(eq.now(), when);
        model.erase(front);
        ++ran;
        // Re-entrant scheduling: grow while small, shrink while large.
        const std::uint64_t n = rng.below(model.size() < 64 ? 3 : 2);
        for (std::uint64_t i = 0; i < n; ++i)
            scheduleOne(pickDelta());
    }
};

} // namespace

TEST(EventQueueWheel, MatchesReferenceModelEventByEvent)
{
    constexpr Tick W = WheelHarness::W;
    for (const std::uint64_t seed : {1ull, 0xC0FFEEull, 104729ull}) {
        SCOPED_TRACE(seed);
        WheelHarness h(seed);
        for (int step = 0; step < 20000 && !HasFailure(); ++step) {
            switch (h.rng.next() % 5) {
              case 0:
              case 1:
                h.scheduleOne(h.pickDelta());
                break;
              case 2: {
                const bool expected = !h.model.empty();
                EXPECT_EQ(h.eq.runOne(), expected);
                break;
              }
              case 3: {
                const Tick limit = h.eq.now() + h.pickDelta();
                h.eq.runUntil(limit);
                if (!h.model.empty()) {
                    EXPECT_GT(h.model.begin()->first.first, limit);
                }
                break;
              }
              default:
                // A limit already in the past runs nothing.
                if (h.eq.now() > 0) {
                    EXPECT_EQ(h.eq.runUntil(h.eq.now() - 1), 0u);
                }
                break;
            }
            h.checkAgainstModel();
        }
        h.eq.runUntil();
        EXPECT_TRUE(h.model.empty());
        h.checkAgainstModel();
        EXPECT_EQ(h.eq.eventsExecuted(), h.ran);
        EXPECT_EQ(h.ran, h.nextId);
        // The clock wrapped the wheel many times over.
        EXPECT_GT(h.eq.now(), 100 * W);
    }
}

TEST(EventQueueWheel, OverflowEntryRunsBeforeLaterDirectAppendForSameTick)
{
    // X is scheduled kWheel + 5 ticks ahead, so it waits in the
    // overflow heap; Y targets the same tick once that tick is inside
    // the window. X's smaller seq must win.
    constexpr Tick W = EventQueue::kWheel;
    constexpr Tick X = W + 5;
    {
        EventQueue eq;
        std::vector<char> order;
        eq.schedule(X, [&] { order.push_back('X'); });
        eq.schedule(6, [&] {
            eq.schedule(X, [&] { order.push_back('Y'); });
        });
        eq.runUntil();
        EXPECT_EQ(order, (std::vector<char>{'X', 'Y'}));
        EXPECT_EQ(eq.now(), X);
    }
    {
        // With nothing in the wheel, runOne() jumps straight to the
        // overflow top; two overflow entries for one tick keep seq
        // order, ahead of anything scheduled at that tick.
        EventQueue eq;
        std::vector<char> order;
        eq.schedule(10 * W, [&] {
            order.push_back('A');
            eq.schedule(10 * W, [&] { order.push_back('C'); });
        });
        eq.schedule(10 * W, [&] { order.push_back('B'); });
        EXPECT_EQ(eq.nextEventTick(), 10 * W);
        eq.runUntil();
        EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
    }
}
