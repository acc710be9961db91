// Unit tests for the discrete-event simulation engine.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"

namespace hoplite::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, ExecutesEventAtScheduledTime) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.ScheduleAt(Milliseconds(5), [&] { fired_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(fired_at, Milliseconds(5));
  EXPECT_EQ(sim.Now(), Milliseconds(5));
}

TEST(SimulatorTest, ScheduleAfterIsRelativeToNow) {
  Simulator sim;
  SimTime inner_fired_at = -1;
  sim.ScheduleAt(Milliseconds(3), [&] {
    sim.ScheduleAfter(Milliseconds(4), [&] { inner_fired_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_fired_at, Milliseconds(7));
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Milliseconds(30), [&] { order.push_back(3); });
  sim.ScheduleAt(Milliseconds(10), [&] { order.push_back(1); });
  sim.ScheduleAt(Milliseconds(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimestampEventsFireInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.ScheduleAt(Milliseconds(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ZeroDelayEventRunsAtCurrentTime) {
  Simulator sim;
  bool inner = false;
  sim.ScheduleAt(Milliseconds(2), [&] {
    sim.ScheduleAfter(0, [&] {
      inner = true;
      EXPECT_EQ(sim.Now(), Milliseconds(2));
    });
  });
  sim.Run();
  EXPECT_TRUE(inner);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(Milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator sim;
  const EventId id = sim.ScheduleAt(Milliseconds(1), [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(EventId{}));
}

TEST(SimulatorTest, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(1, [&] { ++count; });
  sim.ScheduleAt(2, [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(Milliseconds(1), [&] { ++count; });
  sim.ScheduleAt(Milliseconds(5), [&] { ++count; });
  sim.ScheduleAt(Milliseconds(9), [&] { ++count; });
  sim.RunUntil(Milliseconds(5));
  EXPECT_EQ(count, 2);  // events at 1 ms and exactly 5 ms fire
  EXPECT_EQ(sim.Now(), Milliseconds(5));
  sim.Run();
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithEmptyQueue) {
  Simulator sim;
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(sim.Now(), Seconds(2));
}

TEST(SimulatorTest, RunUntilPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.ScheduleAt(Milliseconds(i), [&] { ++count; });
  }
  EXPECT_TRUE(sim.RunUntilPredicate([&] { return count == 4; }));
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.Now(), Milliseconds(4));
  // Unsatisfiable predicate drains the queue and reports false.
  EXPECT_FALSE(sim.RunUntilPredicate([&] { return count == 99; }));
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.ScheduleAfter(Microseconds(1), chain);
  };
  sim.ScheduleAfter(0, chain);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), Microseconds(99));
  EXPECT_EQ(sim.executed_events(), 100u);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  // Pseudo-random times; verify monotone execution order.
  std::uint64_t x = 12345;
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 10'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const SimTime t = static_cast<SimTime>(x % 1'000'000);
    sim.ScheduleAt(t, [&, t] {
      if (sim.Now() < last) monotone = false;
      EXPECT_EQ(sim.Now(), t);
      last = sim.Now();
    });
  }
  sim.Run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed_events(), 10'000u);
}

TEST(SimulatorTest, RunUntilDoesNotExecutePastDeadlineOverCancelledHead) {
  Simulator sim;
  const EventId head = sim.ScheduleAt(Milliseconds(5), [] {});
  bool late_fired = false;
  sim.ScheduleAt(Milliseconds(100), [&] { late_fired = true; });
  sim.Cancel(head);  // 1 tombstone of 2 pending: survives the sweep threshold
  sim.RunUntil(Milliseconds(10));
  EXPECT_FALSE(late_fired) << "event beyond the deadline was executed";
  EXPECT_EQ(sim.Now(), Milliseconds(10));
  sim.Run();
  EXPECT_TRUE(late_fired);
  EXPECT_EQ(sim.Now(), Milliseconds(100));
}

TEST(SimulatorTest, CancelSweepsTombstonesWhenTheyExceedHalfTheHeap) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.ScheduleAt(Milliseconds(i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  // Cancel every event: once tombstones outnumber half the heap, the sweep
  // reclaims both the heap entries and the tombstone set — an abandoned
  // (never-drained) heap cannot pin them forever.
  for (const EventId id : ids) {
    EXPECT_TRUE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_tombstones(), 0u);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, CancelAfterFireDoesNotLeakTombstonesForever) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(sim.ScheduleAt(Milliseconds(i), [] {}));
  }
  sim.Run();
  // Stale cancels (the event already fired) must not insert a tombstone no
  // heap pop will ever reclaim — and must report that nothing was cancelled.
  for (const EventId id : ids) {
    EXPECT_FALSE(sim.Cancel(id));
    EXPECT_EQ(sim.cancelled_tombstones(), 0u) << "stale tombstone survived";
  }
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, SweepPreservesExecutionOrderAndPendingAccounting) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(sim.ScheduleAt(Milliseconds(64 - i), [&fired, i] { fired.push_back(i); }));
  }
  // Cancel the odd-scheduled events; the sweep triggers part-way through.
  for (int i = 1; i < 64; i += 2) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(sim.pending_events() - sim.cancelled_tombstones(), 32u);
  sim.Run();
  ASSERT_EQ(fired.size(), 32u);
  // Survivors fire strictly by timestamp (i.e., in descending i).
  for (std::size_t k = 1; k < fired.size(); ++k) {
    EXPECT_LT(fired[k], fired[k - 1]);
  }
  EXPECT_EQ(sim.executed_events(), 32u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_tombstones(), 0u);
}

TEST(SimulatorTest, IdleIgnoresCancelledTombstones) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(Milliseconds(1), [&fired] { fired = true; });
  // 1 tombstone of 2 records survives the sweep threshold, and the
  // predicate stops right after the live event, before it reaches the head.
  EXPECT_TRUE(sim.Cancel(sim.ScheduleAt(Milliseconds(5), [] {})));
  EXPECT_TRUE(sim.RunUntilPredicate([&fired] { return fired; }));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.cancelled_tombstones(), 1u);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorDeathTest, CallbackSchedulingIntoAnotherEngineDies) {
  // A callback is confined to its own engine; the driver may schedule into
  // both.
  Simulator a;
  Simulator b;
  a.ScheduleAfter(0, [&b] { b.ScheduleAfter(Milliseconds(1), [] {}); });
  EXPECT_DEATH(a.Run(), "cross-domain schedule");
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(Microseconds(1), Nanoseconds(1000));
  EXPECT_EQ(Milliseconds(1), Microseconds(1000));
  EXPECT_EQ(Seconds(1), Milliseconds(1000));
  EXPECT_EQ(SecondsF(0.5), Milliseconds(500));
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(ToMicroseconds(Microseconds(9)), 9.0);
  EXPECT_EQ(KB(1), 1024);
  EXPECT_EQ(MB(1), 1024 * 1024);
  EXPECT_EQ(GB(1), 1024LL * 1024 * 1024);
}

TEST(UnitsTest, TransferTime) {
  // 1 GB at 10 Gbps = 1.25 GB/s -> 0.8589934592 s.
  const SimDuration t = TransferTime(GB(1), Gbps(10));
  EXPECT_NEAR(ToSeconds(t), 0.8589934592, 1e-9);
  EXPECT_EQ(TransferTime(0, Gbps(10)), 0);
  EXPECT_EQ(TransferTime(-5, Gbps(10)), 0);
}

}  // namespace
}  // namespace hoplite::sim
