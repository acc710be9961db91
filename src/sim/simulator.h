// Deterministic discrete-event simulation engine.
//
// This is the substrate standing in for the paper's 16-node EC2 cluster: all
// higher layers (network, object store, directory, Hoplite protocols and the
// application workloads) run as event handlers on one Simulator instance.
// Events at equal timestamps fire in scheduling order (FIFO tie-break via a
// monotonically increasing sequence number), which makes every run
// bit-reproducible from its inputs.
//
// Events live in generation-stamped slots: the heap holds small plain
// records {time, seq, slot, gen} while callbacks sit in a slot array indexed
// by EventId. Schedule, Cancel and the fired/cancelled test are all O(1)
// array operations (plus the heap push/pop) — no per-event hash-set traffic,
// which is what used to dominate the event loop at 1024-node scale.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/audit.h"
#include "common/logging.h"
#include "common/units.h"
#include "sim/engine.h"

namespace hoplite::sim {

/// A discrete-event simulator with integer-nanosecond virtual time: the
/// single-threaded reference implementation of sim::Engine.
///
/// Not thread-safe: this engine is single-threaded by design (determinism is
/// the point). Event callbacks may schedule further events, but only into
/// their own engine: an engine is confined to the one event stream it runs,
/// which is what lets the sharded engine drain independent Simulators on
/// different threads. ScheduleAt and Cancel check this in every build.
class Simulator final : public Engine {
 public:
  Simulator() = default;

  /// The engine whose event callback is running on this thread, or null
  /// outside every callback.
  [[nodiscard]] static const Simulator* Running() noexcept { return running_; }

  /// Current virtual time.
  [[nodiscard]] SimTime Now() const noexcept override { return now_; }

  /// Schedules `fn` to run at absolute virtual time `t` (>= Now()).
  EventId ScheduleAt(SimTime t, Callback fn) override {
    CheckConfined("schedule");
    HOPLITE_CHECK_GE(t, now_) << "cannot schedule into the past";
    HOPLITE_CHECK(fn != nullptr);
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Slot& s = slots_[slot];
    ++s.gen;  // gen 0 is reserved for the invalid handle; first use is gen 1
    s.live = true;
    s.fn = std::move(fn);
    heap_.push_back(Event{t, ++next_seq_, slot, s.gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return EventId{slot, s.gen};
  }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  EventId ScheduleAfter(SimDuration delay, Callback fn) override {
    HOPLITE_CHECK_GE(delay, 0);
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event. Safe to call for events that already fired or
  /// were already cancelled (returns false in those cases; true if this call
  /// is the one that cancelled it).
  ///
  /// Stale heap records are swept eagerly once they outnumber half the
  /// pending events, so heavy cancel traffic (or cancelling into an
  /// abandoned heap) cannot grow the heap without bound.
  bool Cancel(EventId id) override {
    CheckConfined("cancel");
    if (!id.IsValid() || id.slot >= slots_.size()) return false;
    Slot& s = slots_[id.slot];
    if (s.gen != id.gen || !s.live) return false;  // fired, cancelled, or reused
    s.live = false;
    s.fn = nullptr;
    free_slots_.push_back(id.slot);
    ++stale_;
    if (stale_ > heap_.size() / 2) SweepCancelled();
    return true;
  }

  /// Runs the next pending event, if any. Returns false when the queue is
  /// drained. Cancelled events are skipped without being counted as steps.
  bool Step() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Event ev = heap_.back();
      heap_.pop_back();
      Slot& s = slots_[ev.slot];
      if (s.gen != ev.gen || !s.live) {
        --stale_;
        continue;
      }
      Callback fn = std::move(s.fn);
      s.live = false;
      s.fn = nullptr;
      free_slots_.push_back(ev.slot);
      HOPLITE_CHECK_GE(ev.time, now_);
      now_ = ev.time;
      ++executed_events_;
      // Periodic deep audit: O(slots + heap), so amortized across a window
      // of events to keep audit builds usable at bench scale.
      if constexpr (audit::kEnabled) {
        if ((executed_events_ & (kAuditPeriod - 1)) == 0) AuditInvariants();
      }
      const Simulator* const outer = running_;
      running_ = this;
      fn();
      running_ = outer;
      return true;
    }
    return false;
  }

  /// Runs until no events remain.
  void Run() override {
    while (Step()) {
    }
  }

  /// Runs until virtual time would exceed `deadline` (events exactly at the
  /// deadline are executed). Time advances to `deadline` afterwards even if
  /// the queue drained earlier.
  void RunUntil(SimTime deadline) override {
    while (!heap_.empty()) {
      // Drop cancelled heads first: a stale record at or before the deadline
      // must not license Step() to execute a live event beyond it.
      const Event& head = heap_.front();
      const Slot& s = slots_[head.slot];
      if (s.gen != head.gen || !s.live) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
        --stale_;
        continue;
      }
      if (head.time > deadline) break;
      Step();
    }
    if (now_ < deadline) now_ = deadline;
  }

  /// Runs until `pred()` becomes true or the queue drains. Returns whether
  /// the predicate held when the loop stopped. The predicate is evaluated
  /// after every executed event.
  bool RunUntilPredicate(const std::function<bool()>& pred) override {
    if (pred()) return true;
    while (Step()) {
      if (pred()) return true;
    }
    return pred();
  }

  /// Full slot/generation/heap consistency walk (audit builds; also directly
  /// callable from tests). Verifies that no live event sits behind `now`,
  /// that every live slot is referenced by exactly one current-generation
  /// heap record, that the stale-tombstone count matches the heap, and that
  /// the free list holds exactly the non-live slots, each once.
  void AuditInvariants() const {
    std::vector<std::uint32_t> live_refs(slots_.size(), 0);
    std::size_t stale_records = 0;
    for (const Event& ev : heap_) {
      const Slot& s = slots_[ev.slot];
      if (s.gen == ev.gen && s.live) {
        HOPLITE_AUDIT(ev.time >= now_)
            << "live event in slot " << ev.slot << " is behind now";
        ++live_refs[ev.slot];
      } else {
        ++stale_records;
      }
    }
    HOPLITE_AUDIT(stale_records == stale_)
        << "(" << stale_records << " stale heap records vs counter " << stale_ << ")";
    std::size_t live_slots = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const std::uint32_t expected = slots_[i].live ? 1 : 0;
      if (slots_[i].live) ++live_slots;
      HOPLITE_AUDIT(live_refs[i] == expected)
          << "slot " << i << " has " << live_refs[i] << " live heap records";
    }
    HOPLITE_AUDIT(free_slots_.size() + live_slots == slots_.size())
        << "(" << free_slots_.size() << " free + " << live_slots << " live vs "
        << slots_.size() << " slots)";
    std::vector<bool> freed(slots_.size(), false);
    for (const std::uint32_t slot : free_slots_) {
      HOPLITE_AUDIT(slot < slots_.size());
      HOPLITE_AUDIT(!slots_[slot].live) << "live slot " << slot << " on the free list";
      HOPLITE_AUDIT(!freed[slot]) << "slot " << slot << " freed twice";
      freed[slot] = true;
    }
  }

  /// Number of events executed so far (cancelled events excluded).
  [[nodiscard]] std::uint64_t executed_events() const noexcept override {
    return executed_events_;
  }
  /// Number of heap records currently pending (cancelled-but-unswept included).
  [[nodiscard]] std::size_t pending_events() const noexcept { return heap_.size(); }
  /// Number of cancelled-but-unswept heap records (bounded by the sweep in
  /// Cancel; exposed for the accounting regression tests).
  [[nodiscard]] std::size_t cancelled_tombstones() const noexcept { return stale_; }
  /// Whether no live event is pending (cancelled tombstones do not count).
  [[nodiscard]] bool Idle() const noexcept override { return heap_.size() == stale_; }

 private:
  /// Events between consecutive AuditInvariants() walks (power of two).
  static constexpr std::uint64_t kAuditPeriod = 1024;

  /// A heap record: plain data only; the callback lives in the slot array so
  /// heap moves never touch a std::function.
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    bool live = false;
  };
  struct Later {
    // Max-heap comparator inverted into a min-heap by (time, seq):
    // FIFO among same-timestamp events.
    [[nodiscard]] bool operator()(const Event& a, const Event& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  /// Checks that the caller may `what` (schedule / cancel) here: from the
  /// driver, or from a callback of this engine, never of another one.
  void CheckConfined(const char* what) const {
    HOPLITE_CHECK(running_ == nullptr || running_ == this)
        << "cross-domain " << what
        << ": an event callback may only schedule into and cancel in its own engine";
  }

  /// Drops every stale (cancelled) record from the heap. Removing entries
  /// does not perturb execution order: it is fully determined by (time, seq).
  void SweepCancelled() {
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Event& ev) {
                                 const Slot& s = slots_[ev.slot];
                                 return s.gen != ev.gen || !s.live;
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    stale_ = 0;
  }

  static inline thread_local const Simulator* running_ = nullptr;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_events_ = 0;
  std::vector<Event> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t stale_ = 0;
};

}  // namespace hoplite::sim
