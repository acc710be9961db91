// Rack-partitioned parallel discrete-event engine with conservative
// lookahead.
//
// The engine hosts a set of *domains* — independent event streams, each
// exposing the full sim::Engine surface through a per-domain lane — placed on
// a fixed number of *shards*. Each shard owns one event heap and (when more
// than one shard is runnable) one worker thread. Shards synchronize with the
// classic conservative (CMB-style) windowing scheme: between barriers, shard
// s may execute every event strictly earlier than its horizon
//
//     H(s) = min over shards s' != s of ( head_time(s') + L(s' -> s) )
//
// where L is the minimum declared lookahead over domain pairs placed on
// (s', s). Cross-domain schedules must honor their declared lookahead
// (`t >= caller_now + L`, checked), so any message created inside a window
// lands at or beyond the receiver's horizon — it is parked in a per-shard
// outbox and merged at the barrier, never racing the receiver's execution.
// Domain pairs with no declared lookahead may not interact at all; a shard
// with no finite in-edges free-runs to drain in a single window.
//
// Determinism does not come from the schedule (threads finish windows in any
// order) but from the *event order*, which is fixed by a derived key
// independent of sharding and thread count:
//
//     (time, parent_step, parent_domain, idx)
//
// where parent_step is the per-domain index of the event whose callback
// scheduled this one, parent_domain its domain (0 = scheduled from driver
// code outside any callback, with step = total events executed so far), and
// idx the ordinal of the schedule call within that callback. For a workload
// confined to a single domain this order is provably identical to the
// reference Simulator's global (time, seq) FIFO order — which is what makes
// a whole HopliteCluster on one domain reproduce the single-threaded engine
// byte-for-byte. Across domains the order is deterministic and
// shard-placement-independent, but interleaves differently than a flat
// single-heap run would; see README "Parallel engine" for the contract.
//
// Threading model (TSan-clean by construction):
//   * every per-shard structure (heap, clock, stale counter) and every
//     per-domain structure (slot array, free list, step counter) is touched
//     only by the shard's worker inside a window, or only by the driver
//     thread at a barrier; the window/barrier handoff is a mutex+condvar
//     epoch handshake, so all accesses are ordered by happens-before;
//   * cross-shard schedules append to the *sender's* outbox (sender-owned)
//     and are drained into receiver heaps at the barrier (driver-owned);
//   * if at most one shard is runnable in a window it executes inline on the
//     driver thread — a single-domain workload never spawns a thread at all.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/audit.h"
#include "common/logging.h"
#include "common/units.h"
#include "sim/engine.h"

namespace hoplite::sim {

/// Identifies a domain within a ShardedSimulator. Real domains are numbered
/// from 1; id 0 names the driver context (code running outside any event
/// callback) in deterministic-order keys and is never a schedulable domain.
using DomainId = std::uint32_t;

class ShardedSimulator {
 public:
  struct Options {
    /// Number of event-loop shards (>= 1). Domains are placed round-robin
    /// unless AddDomain pins one explicitly. shards == 1 never spawns a
    /// thread and is the drop-in replacement for a set of reference engines.
    int shards = 1;
  };

  explicit ShardedSimulator(Options options);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;
  ~ShardedSimulator();

  /// Creates a new domain on the next shard (round-robin), or on `shard` if
  /// given. Returns its id; `domain(id)` is the Engine to schedule against.
  /// Domains may only be added while the engine is idle at a barrier.
  DomainId AddDomain(std::string name);
  DomainId AddDomain(std::string name, int shard);

  /// Declares that events in `src` may schedule into `dst` with at least
  /// `lookahead` (> 0) of virtual-time slack: every cross-domain
  /// ScheduleAt/After from src into dst must target `t >= caller_now +
  /// lookahead` (checked). Undeclared pairs may not interact at all — that
  /// independence is what lets their shards free-run.
  void SetLookahead(DomainId src, DomainId dst, SimDuration lookahead);

  /// The scheduling surface of one domain. The reference stays valid for the
  /// engine's lifetime. The driver-loop methods (Run / RunUntil /
  /// RunUntilPredicate) drive the *whole engine*, not just this domain —
  /// they are engine-global so existing single-engine driver code keeps
  /// working when its cluster is placed on a domain.
  Engine& domain(DomainId id);

  // ----------------------------------------------------------------
  // Engine-global driver surface (also reachable through any lane).
  // ----------------------------------------------------------------

  /// Runs every domain to drain using windowed parallel execution.
  void Run();

  /// Sequenced mode: executes events one at a time in the global
  /// deterministic order until virtual time would exceed `deadline`; every
  /// shard clock then advances to at least `deadline`.
  void RunUntil(SimTime deadline);

  /// Sequenced mode: executes events one at a time in the global
  /// deterministic order until `pred()` holds or the engine drains. The
  /// predicate is evaluated after every executed event.
  bool RunUntilPredicate(const std::function<bool()>& pred);

  [[nodiscard]] bool Idle() const;

  /// Events executed across all domains.
  [[nodiscard]] std::uint64_t total_executed_events() const { return total_executed_; }
  /// Number of window barriers crossed in windowed runs (free-running a
  /// single window counts 1). A pure composition run should show one window
  /// per Run call; a windowed cross-domain workload shows many.
  [[nodiscard]] std::uint64_t barriers_crossed() const { return barriers_; }
  /// Largest number of shards dispatched concurrently in any single window.
  [[nodiscard]] int max_parallel_shards() const { return max_parallel_shards_; }

  [[nodiscard]] int shards() const { return static_cast<int>(shards_.size()); }

  /// Full shard-local slot/generation/heap walk plus cross-shard accounting
  /// (every heap record's domain must live on that shard; per-domain slot
  /// arrays consistent; outboxes empty at barriers). Callable from the
  /// driver thread at barriers only.
  void AuditInvariants() const;

 private:
  friend class ShardedLaneTestPeer;

  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  /// Events between consecutive per-shard audit walks (power of two).
  static constexpr std::uint64_t kAuditPeriod = 1024;

  /// Deterministic tie-break key: identity of the scheduling callback plus
  /// the schedule-call ordinal within it. Compares after time.
  struct TieBreak {
    std::uint64_t parent_step = 0;
    DomainId parent_domain = 0;
    std::uint32_t idx = 0;

    friend bool operator<(const TieBreak& a, const TieBreak& b) noexcept {
      if (a.parent_step != b.parent_step) return a.parent_step < b.parent_step;
      if (a.parent_domain != b.parent_domain) return a.parent_domain < b.parent_domain;
      return a.idx < b.idx;
    }
  };

  /// A heap record: plain data only; the callback lives in the owning
  /// domain's slot array.
  struct Record {
    SimTime time;
    TieBreak tb;
    DomainId domain;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    // Max-heap comparator inverted into a min-heap by (time, tie-break).
    [[nodiscard]] bool operator()(const Record& a, const Record& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return b.tb < a.tb;
    }
  };

  struct Slot {
    Engine::Callback fn;
    std::uint32_t gen = 0;
    bool live = false;
  };

  /// A cross-shard schedule parked until the next barrier.
  struct Mail {
    SimTime time;
    TieBreak tb;
    DomainId dst;
    Engine::Callback fn;
  };

  /// Per-domain lane: the Engine a cluster (or any other workload) binds to.
  /// Scheduling resolves against the calling context — inside one of this
  /// engine's callbacks it inherits the running event's identity (domain,
  /// step, intra-callback ordinal); outside any callback it is a root
  /// (driver-context) schedule.
  class Lane final : public Engine {
   public:
    Lane(ShardedSimulator* engine, DomainId id) : engine_(engine), id_(id) {}

    [[nodiscard]] SimTime Now() const override { return engine_->LaneNow(id_); }
    EventId ScheduleAt(SimTime t, Callback fn) override {
      return engine_->LaneScheduleAt(id_, t, std::move(fn));
    }
    EventId ScheduleAfter(SimDuration delay, Callback fn) override {
      HOPLITE_CHECK_GE(delay, 0);
      return engine_->LaneScheduleAt(id_, engine_->ScheduleBase(id_) + delay, std::move(fn));
    }
    bool Cancel(EventId id) override { return engine_->LaneCancel(id_, id); }
    void Run() override { engine_->Run(); }
    void RunUntil(SimTime deadline) override { engine_->RunUntil(deadline); }
    bool RunUntilPredicate(const std::function<bool()>& pred) override {
      return engine_->RunUntilPredicate(pred);
    }
    [[nodiscard]] bool Idle() const override { return engine_->Idle(); }
    [[nodiscard]] std::uint64_t executed_events() const override {
      return engine_->DomainExecuted(id_);
    }

   private:
    ShardedSimulator* engine_;
    DomainId id_;
  };

  struct Domain {
    std::string name;
    DomainId id = 0;
    std::uint32_t shard = 0;
    std::unique_ptr<Lane> lane;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;
    /// Events of this domain executed so far == step of the next one.
    std::uint64_t executed = 0;
    /// Minimum declared lookahead out of / into this domain, per peer
    /// domain. kNever == no edge (interaction forbidden). Indexed by
    /// DomainId; grows as domains are added.
    std::vector<SimDuration> lookahead_out;
  };

  struct Shard {
    std::vector<Record> heap;
    SimTime now = 0;
    std::size_t stale = 0;
    std::uint64_t executed = 0;
    /// Outboxes: mail_to[s] holds cross-shard schedules targeting shard s,
    /// appended by this shard's worker during a window, drained by the
    /// driver at the barrier.
    std::vector<std::vector<Mail>> mail_to;
    /// Window assignment (driver-written at dispatch, worker-read).
    SimTime horizon = 0;
    bool runnable = false;
  };

  /// Identity of the event currently executing on this thread, if it belongs
  /// to this engine. Set around every callback; scheduling calls consult it
  /// to derive the deterministic key and to validate lookahead.
  struct ExecContext {
    const ShardedSimulator* engine = nullptr;
    DomainId domain = 0;
    std::uint32_t shard = 0;
    std::uint64_t step = 0;
    std::uint32_t next_idx = 0;
    SimTime now = 0;
  };
  static thread_local ExecContext tls_ctx_;

  [[nodiscard]] const ExecContext* CurrentContext() const {
    return tls_ctx_.engine == this ? &tls_ctx_ : nullptr;
  }

  // Lane backends.
  [[nodiscard]] SimTime LaneNow(DomainId id) const;
  [[nodiscard]] SimTime ScheduleBase(DomainId id) const;
  EventId LaneScheduleAt(DomainId id, SimTime t, Engine::Callback fn);
  bool LaneCancel(DomainId id, EventId ev);
  [[nodiscard]] std::uint64_t DomainExecuted(DomainId id) const {
    return domains_[id]->executed;
  }

  /// Allocates a slot in `dom` and pushes the heap record onto the domain's
  /// shard. Single-threaded with respect to that shard (caller guarantees).
  EventId Commit(Domain& dom, SimTime t, TieBreak tb, Engine::Callback fn);

  /// Drops stale heads; returns the live head record or nullptr.
  const Record* PeekHead(Shard& shard) const;
  /// The shard holding the globally least live head by (time, tie-break),
  /// or nullptr if the engine is drained. Driver thread, all workers parked.
  Shard* FindGlobalHead();
  /// Executes the (live) head of `shard`. Caller owns the shard.
  void ExecuteHead(Shard& shard);
  /// Runs `shard` up to (strictly before) `shard.horizon`.
  void RunWindow(Shard& shard);
  /// Drains every outbox into the receiving shards' heaps (driver thread,
  /// all workers parked).
  void DrainMail();
  /// One windowed step: compute horizons, dispatch runnable shards, drain
  /// mail. Returns false when every shard is empty.
  bool WindowStep();
  /// Executes exactly one event — the globally least by (time, tie-break) —
  /// on the caller thread. Returns false if the engine is drained.
  bool SequencedStep();

  void StartWorkers();
  void StopWorkers();
  void WorkerLoop(std::uint32_t shard_index);

  void AuditShard(const Shard& shard) const;

  // Domains are stable-addressed (lane pointers are handed out); index 0 is
  // a sentinel for the driver context and holds no lane.
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<Shard> shards_;
  std::uint32_t next_shard_rr_ = 0;

  /// True between dispatch and barrier of a parallel window; guards the
  /// driver-context scheduling path against misuse from callbacks of a
  /// foreign engine running concurrently.
  bool in_window_ = false;

  std::uint64_t total_executed_ = 0;
  std::uint64_t barriers_ = 0;
  std::uint64_t root_calls_ = 0;  ///< ordinal for driver-context schedules
  int max_parallel_shards_ = 0;

  // Worker pool (lazily started the first time a window has >= 2 runnable
  // shards). All shared state below is accessed under pool_mu_; the
  // epoch/remaining handshake gives the windows their happens-before edges.
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable work_cv_;   ///< driver -> workers: new epoch
  std::condition_variable done_cv_;   ///< workers -> driver: window done
  std::uint64_t epoch_ = 0;
  int remaining_ = 0;
  bool stopping_ = false;
};

}  // namespace hoplite::sim
