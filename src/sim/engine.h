// The event-engine interface every layer above the simulator schedules
// against.
//
// sim::Simulator (sim/simulator.h) implements it: the single-threaded
// reference engine, with one heap and (time, seq) FIFO order,
// bit-reproducible by construction. The parallel engine,
// sim::ShardedSimulator (sim/sharded_simulator.h), is not a second
// implementation: its domains are Simulators, independent event streams
// that never schedule into each other, and its shards drain them
// concurrently. A cluster bound to a domain therefore runs on a reference
// engine at any shard count.
//
// The interface is deliberately narrow: layers may schedule, cancel and read
// the clock; driving the loop (Run / RunUntil / RunUntilPredicate) belongs to
// benches, tests and the workload driver.
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.h"

namespace hoplite::sim {

/// Handle to a scheduled event; usable to cancel it before it fires.
/// Internally a slot index plus the slot's generation at scheduling time, so
/// stale handles (fired, cancelled, slot since reused) are recognized in O(1).
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;  ///< 0 only in the default (invalid) handle

  [[nodiscard]] constexpr bool IsValid() const noexcept { return gen != 0; }
  friend constexpr bool operator==(EventId a, EventId b) noexcept {
    return a.slot == b.slot && a.gen == b.gen;
  }
};

/// Abstract discrete-event engine with integer-nanosecond virtual time.
///
/// Semantics shared by every implementation:
///  * events at equal timestamps fire in a deterministic engine-defined
///    order (the reference engine: FIFO scheduling order);
///  * callbacks may schedule further events, into their own engine only;
///  * Cancel is O(1) and safe on fired/cancelled/stale handles.
class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  [[nodiscard]] virtual SimTime Now() const = 0;

  /// Schedules `fn` to run at absolute virtual time `t` (>= Now()).
  virtual EventId ScheduleAt(SimTime t, Callback fn) = 0;

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  virtual EventId ScheduleAfter(SimDuration delay, Callback fn) = 0;

  /// Cancels a pending event. Safe to call for events that already fired or
  /// were already cancelled (returns false in those cases; true if this call
  /// is the one that cancelled it).
  virtual bool Cancel(EventId id) = 0;

  // ------------------------------------------------------------------
  // Driver surface (benches, tests, the workload driver).
  // ------------------------------------------------------------------

  /// Runs until no events remain.
  virtual void Run() = 0;

  /// Runs until virtual time would exceed `deadline` (events exactly at the
  /// deadline are executed). Time advances to `deadline` afterwards even if
  /// the queue drained earlier.
  virtual void RunUntil(SimTime deadline) = 0;

  /// Runs until `pred()` becomes true or the queue drains. Returns whether
  /// the predicate held when the loop stopped. The predicate is evaluated
  /// after every executed event.
  virtual bool RunUntilPredicate(const std::function<bool()>& pred) = 0;

  /// Whether no live event is pending (cancelled events do not count).
  [[nodiscard]] virtual bool Idle() const = 0;

  /// Number of events executed so far (cancelled events excluded). A
  /// sharded-engine domain is a Simulator of its own, so it counts its own
  /// events only.
  [[nodiscard]] virtual std::uint64_t executed_events() const = 0;
};

}  // namespace hoplite::sim
