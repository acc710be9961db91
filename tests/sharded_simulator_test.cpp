// Unit tests for the sharded parallel engine of independent domains.
//
// The load-bearing property is *order equivalence*: a workload confined to a
// single domain must execute in exactly the reference Simulator's (time,
// FIFO) order at every shard count, whether the engine drains it or its own
// driver methods step it, and independent domains must each replay their
// own reference run whatever their placement. The tests express this as
// trace equality between engines driven by byte-identical workloads.
#include "sim/sharded_simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace hoplite::sim {
namespace {

using Trace = std::vector<std::pair<SimTime, std::uint64_t>>;

// A deterministic self-expanding workload exercising the tie-break paths:
// sibling events at equal timestamps, cancellation (immediate and deferred),
// and multi-generation scheduling chains. Drives any Engine identically.
class ChurnWorkload {
 public:
  ChurnWorkload(Engine& eng, Trace& trace, std::uint64_t seed)
      : eng_(eng), trace_(trace), seed_(seed) {}

  void Start(int roots) {
    for (int i = 0; i < roots; ++i) {
      const std::uint64_t key = seed_ + static_cast<std::uint64_t>(i);
      // Clustered start times so roots collide on equal timestamps.
      eng_.ScheduleAt(Milliseconds(i % 3), [this, key] { Node(key, 4); });
    }
  }

 private:
  void Node(std::uint64_t key, int depth) {
    trace_.emplace_back(eng_.Now(), key);
    if (depth == 0) return;
    hoplite::Rng rng(key);
    const int children = 1 + static_cast<int>(rng.NextU64() % 3);
    EventId victim{};
    for (int c = 0; c < children; ++c) {
      const std::uint64_t child_key = key * 31 + static_cast<std::uint64_t>(c) + 1;
      // Small delay set {0,1,2} ms forces plenty of equal-timestamp ties
      // between cousins scheduled from different parents.
      const SimDuration delay = Milliseconds(static_cast<std::int64_t>(rng.NextU64() % 3));
      const EventId id =
          eng_.ScheduleAfter(delay, [this, child_key, depth] { Node(child_key, depth - 1); });
      if (c == 0 && rng.NextU64() % 4 == 0) victim = id;
    }
    if (victim.IsValid()) {
      if (rng.NextU64() % 2 == 0) {
        EXPECT_TRUE(eng_.Cancel(victim));  // immediate cancel
        EXPECT_FALSE(eng_.Cancel(victim));
      } else {
        // Deferred cancel from a later event of the same domain; the victim
        // fires at >= +0ms, the canceller at +0ms but scheduled later, so
        // the cancel may race the victim in virtual order — both outcomes
        // are deterministic and must replay identically everywhere.
        eng_.ScheduleAfter(0, [this, victim] { eng_.Cancel(victim); });
      }
    }
  }

  Engine& eng_;
  Trace& trace_;
  std::uint64_t seed_;
};

struct Reference {
  Trace trace;
  std::uint64_t executed = 0;  ///< includes events that record no trace entry
};

Reference ReferenceRun(std::uint64_t seed, int roots) {
  Simulator sim;
  Reference ref;
  ChurnWorkload workload(sim, ref.trace, seed);
  workload.Start(roots);
  sim.Run();
  ref.executed = sim.executed_events();
  return ref;
}

TEST(ShardedSimulatorTest, SingleDomainMatchesReferenceEngineAtEveryShardCount) {
  const Reference expected = ReferenceRun(7, 9);
  ASSERT_GT(expected.trace.size(), 100u);
  for (const int shards : {1, 2, 4, 8}) {
    ShardedSimulator eng({shards});
    Simulator& d = eng.AddDomain();
    Trace trace;
    ChurnWorkload workload(d, trace, 7);
    workload.Start(9);
    eng.Run();
    EXPECT_EQ(trace, expected.trace) << "shards=" << shards;
    EXPECT_EQ(d.executed_events(), expected.executed);
    EXPECT_TRUE(eng.Idle());
  }
}

TEST(ShardedSimulatorTest, SequencedModeMatchesReferenceToo) {
  const Trace expected = ReferenceRun(21, 6).trace;
  ShardedSimulator eng({4});
  Simulator& d = eng.AddDomain();
  Trace trace;
  ChurnWorkload workload(d, trace, 21);
  workload.Start(6);
  // A domain's RunUntilPredicate steps that domain alone, one event at a
  // time; a never-true predicate drains it.
  EXPECT_FALSE(d.RunUntilPredicate([] { return false; }));
  EXPECT_EQ(trace, expected);
}

TEST(ShardedSimulatorTest, PredicateStopsAtTheSameEventAsTheReference) {
  // Stop both engines once 50 events have fired; the 50-event prefix and
  // the clock afterwards must agree.
  auto run_prefix = [](Engine& eng, Trace& trace, std::uint64_t seed) {
    ChurnWorkload workload(eng, trace, seed);
    workload.Start(6);
    EXPECT_TRUE(eng.RunUntilPredicate([&trace] { return trace.size() >= 50; }));
  };
  Simulator plain;
  Trace plain_trace;
  run_prefix(plain, plain_trace, 33);

  ShardedSimulator eng({4});
  Simulator& d = eng.AddDomain();
  Trace sharded_trace;
  run_prefix(d, sharded_trace, 33);

  EXPECT_EQ(sharded_trace, plain_trace);
  EXPECT_EQ(d.Now(), plain.Now());
}

TEST(ShardedSimulatorTest, RunUntilAdvancesLikeTheReference) {
  auto drive = [](Engine& eng, Trace& trace, std::uint64_t seed) {
    ChurnWorkload workload(eng, trace, seed);
    workload.Start(5);
    eng.RunUntil(Milliseconds(4));
    const SimTime mid = eng.Now();
    const std::size_t mid_count = trace.size();
    eng.Run();
    return std::pair<SimTime, std::size_t>(mid, mid_count);
  };
  Simulator plain;
  Trace plain_trace;
  const auto plain_mid = drive(plain, plain_trace, 11);

  ShardedSimulator eng({2});
  Trace sharded_trace;
  const auto sharded_mid = drive(eng.AddDomain(), sharded_trace, 11);

  EXPECT_EQ(sharded_mid, plain_mid);
  EXPECT_EQ(sharded_trace, plain_trace);
}

TEST(ShardedSimulatorTest, DriverSchedulingBetweenPhasesMatchesReference) {
  // Root (driver-context) schedules interleave with event-context schedules
  // across multiple run phases; the reference engine's FIFO must replay.
  auto drive = [](Engine& eng) {
    Trace trace;
    for (int phase = 0; phase < 3; ++phase) {
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(phase * 100 + i);
        eng.ScheduleAfter(Milliseconds(i % 2), [&eng, &trace, key] {
          trace.emplace_back(eng.Now(), key);
          eng.ScheduleAfter(0, [&eng, &trace, key] {
            trace.emplace_back(eng.Now(), key + 1000);
          });
        });
      }
      eng.Run();
    }
    return trace;
  };
  Simulator plain;
  const Trace expected = drive(plain);
  ShardedSimulator eng({4});
  EXPECT_EQ(drive(eng.AddDomain()), expected);
}

// ----------------------------------------------------------------------
// Multi-domain: independent domains.
// ----------------------------------------------------------------------

TEST(ShardedSimulatorTest, IndependentDomainsFreeRunInASingleWindow) {
  // Two domains on two shards drain concurrently in one dispatch, each in
  // exactly its reference order. A fresh engine and real threads on every
  // repeat: this is the TSan lane's multi-threaded workhorse.
  const Reference ref_a = ReferenceRun(5, 6);
  const Reference ref_b = ReferenceRun(9, 6);
  for (int rep = 0; rep < 4; ++rep) {
    ShardedSimulator eng({2});
    Simulator& a = eng.AddDomain();
    Simulator& b = eng.AddDomain();
    Trace trace_a;
    Trace trace_b;
    ChurnWorkload wa(a, trace_a, 5);
    ChurnWorkload wb(b, trace_b, 9);
    wa.Start(6);
    wb.Start(6);
    eng.Run();
    EXPECT_EQ(eng.max_parallel_shards(), 2);
    EXPECT_EQ(trace_a, ref_a.trace) << "rep " << rep;
    EXPECT_EQ(trace_b, ref_b.trace) << "rep " << rep;
    EXPECT_EQ(a.executed_events(), ref_a.executed);
    EXPECT_EQ(b.executed_events(), ref_b.executed);
    EXPECT_TRUE(eng.Idle());
    eng.AuditInvariants();
  }
}

TEST(ShardedSimulatorTest, LaneClockIsPerDomain) {
  // After a run each domain reads its own last event time, whether the two
  // domains share a shard (shards 1) or not (shards 2).
  for (const int shards : {1, 2}) {
    ShardedSimulator eng({shards});
    Simulator& a = eng.AddDomain();
    Simulator& b = eng.AddDomain();
    a.ScheduleAt(Milliseconds(1), [] {});
    b.ScheduleAt(Milliseconds(5), [] {});
    eng.Run();
    ASSERT_EQ(a.Now(), Milliseconds(1)) << "shards=" << shards;
    ASSERT_EQ(b.Now(), Milliseconds(5)) << "shards=" << shards;
    // 2 ms is in b's past but not in a's: a driver schedule into a is legal.
    SimTime fired_at = 0;
    a.ScheduleAt(Milliseconds(2), [&a, &fired_at] { fired_at = a.Now(); });
    eng.Run();
    EXPECT_EQ(fired_at, Milliseconds(2)) << "shards=" << shards;
    EXPECT_EQ(b.Now(), Milliseconds(5)) << "shards=" << shards;
  }
}

TEST(ShardedSimulatorTest, SingleDomainNeverLeavesTheCallerThread) {
  ShardedSimulator eng({8});
  int fired = 0;
  eng.AddDomain().ScheduleAfter(Milliseconds(1), [&fired] { ++fired; });
  eng.Run();
  EXPECT_EQ(fired, 1);
  // Only one shard has work: the inline fast path executes on the driver
  // thread and no worker pool exists.
  EXPECT_EQ(eng.max_parallel_shards(), 1);
}

TEST(ShardedSimulatorTest, TombstoneOnlyDomainIsNotDispatched) {
  ShardedSimulator eng({2});
  Simulator& a = eng.AddDomain();
  Simulator& b = eng.AddDomain();
  // Leave b holding one cancelled record and nothing live: the tombstone is
  // half of b's heap, below the sweep threshold, and the predicate stops b
  // right after its live event, before the tombstone reaches the head.
  bool b_fired = false;
  b.ScheduleAt(Milliseconds(1), [&b_fired] { b_fired = true; });
  EXPECT_TRUE(b.Cancel(b.ScheduleAt(Milliseconds(5), [] {})));
  EXPECT_TRUE(b.RunUntilPredicate([&b_fired] { return b_fired; }));
  ASSERT_EQ(b.cancelled_tombstones(), 1u);
  int a_fired = 0;
  a.ScheduleAfter(Milliseconds(1), [&a_fired] { ++a_fired; });
  eng.Run();
  EXPECT_EQ(a_fired, 1);
  // Only a's shard had work: it drained inline, b's was never dispatched.
  EXPECT_EQ(eng.max_parallel_shards(), 1);
  EXPECT_TRUE(eng.Idle());
}

// ----------------------------------------------------------------------
// Contract enforcement.
// ----------------------------------------------------------------------

// Every Simulator checks that a callback schedules and cancels only in its
// own engine, so the check fires even with both domains on one shard and
// one thread.

TEST(ShardedSimulatorDeathTest, CrossDomainScheduleDies) {
  // Both domains on one shard: the run stays inline (no threads), which
  // keeps the death test on the fork-safe path.
  ShardedSimulator eng({1});
  Simulator& a = eng.AddDomain();
  Simulator& b = eng.AddDomain();
  a.ScheduleAfter(0, [&b] { b.ScheduleAfter(Milliseconds(5), [] {}); });
  EXPECT_DEATH(eng.Run(), "cross-domain schedule");
}

TEST(ShardedSimulatorDeathTest, CrossDomainCancelDies) {
  ShardedSimulator eng({1});
  Simulator& a = eng.AddDomain();
  Simulator& b = eng.AddDomain();
  const EventId victim = b.ScheduleAt(Milliseconds(10), [] {});
  a.ScheduleAfter(0, [&b, victim] { b.Cancel(victim); });
  EXPECT_DEATH(eng.Run(), "cross-domain cancel");
}

TEST(ShardedSimulatorTest, HeavyCancelTrafficSweepsTombstones) {
  ShardedSimulator eng({2});
  Simulator& d = eng.AddDomain();
  std::vector<EventId> victims;
  victims.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    victims.push_back(d.ScheduleAt(Milliseconds(100 + i), [] {}));
  }
  int kept = 0;
  d.ScheduleAt(Milliseconds(1), [&] {
    for (std::size_t i = 0; i < victims.size(); ++i) {
      if (i % 10 == 0) {
        ++kept;
        continue;
      }
      EXPECT_TRUE(d.Cancel(victims[i]));
    }
  });
  eng.Run();
  EXPECT_EQ(d.executed_events(), static_cast<std::uint64_t>(kept) + 1);
  EXPECT_TRUE(eng.Idle());
  eng.AuditInvariants();
}

}  // namespace
}  // namespace hoplite::sim
