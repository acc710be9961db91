// Parallel discrete-event engine for independent event domains.
//
// The engine hosts a set of *domains* — independent event streams, each
// exposing the full sim::Engine surface through a per-domain lane — placed
// round-robin on a fixed number of *shards*. Each shard owns one event heap
// and, when more than one shard has work, one worker thread.
//
// Domains are independent by contract: a callback may schedule into and
// cancel in its own domain only (anything else is a checked failure), so no
// event ever crosses a shard. Run() therefore hands every non-empty shard to
// a worker once and waits for all of them to drain; there is nothing to
// synchronize in between.
//
// Each domain keeps its own clock and FIFO sequence number, and heap records
// order by (time, seq, domain). Within one domain that is exactly the
// reference Simulator's (time, seq) order, by construction — which is what
// makes a whole HopliteCluster on one domain reproduce the single-threaded
// engine byte-for-byte at any shard count. The domain id only orders events
// of different domains at equal (time, seq), which keeps the sequenced
// driver path (RunUntil / RunUntilPredicate) independent of placement.
//
// Threading model (TSan-clean by construction):
//   * every per-shard structure (heap, stale counter) and every per-domain
//     structure (clock, sequence, slot array, free list, step counter) is
//     touched only by the shard's worker during a parallel Run(), or only by
//     the driver thread otherwise; the dispatch/done handoff is a
//     mutex+condvar epoch handshake, so all accesses are ordered by
//     happens-before;
//   * if at most one shard has work it drains inline on the driver thread —
//     a single-domain workload never spawns a thread at all.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/audit.h"
#include "common/logging.h"
#include "common/units.h"
#include "sim/engine.h"

namespace hoplite::sim {

/// Identifies a domain within a ShardedSimulator, numbered from 0 in
/// AddDomain order.
using DomainId = std::uint32_t;

class ShardedSimulator {
 public:
  struct Options {
    /// Number of event-loop shards (>= 1). Domains are placed round-robin.
    /// shards == 1 never spawns a thread and is the drop-in replacement for
    /// a set of reference engines.
    int shards = 1;
  };

  explicit ShardedSimulator(Options options);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;
  ~ShardedSimulator();

  /// Creates a new domain on the next shard (round-robin) and returns its
  /// id; `domain(id)` is the Engine to schedule against. Domains may only be
  /// added while the engine is not running in parallel.
  DomainId AddDomain(std::string name);

  /// The scheduling surface of one domain. The reference stays valid for the
  /// engine's lifetime. The driver-loop methods (Run / RunUntil /
  /// RunUntilPredicate) drive the *whole engine*, not just this domain —
  /// they are engine-global so existing single-engine driver code keeps
  /// working when its cluster is placed on a domain.
  Engine& domain(DomainId id);

  // ----------------------------------------------------------------
  // Engine-global driver surface (also reachable through any lane).
  // ----------------------------------------------------------------

  /// Drains every domain: inline when one shard has work, on the worker
  /// pool (one thread per non-empty shard) otherwise.
  void Run();

  /// Sequenced mode: executes events one at a time in (time, seq, domain)
  /// order until virtual time would exceed `deadline`; every domain clock
  /// then advances to at least `deadline`.
  void RunUntil(SimTime deadline);

  /// Sequenced mode: executes events one at a time in (time, seq, domain)
  /// order until `pred()` holds or the engine drains. The predicate is
  /// evaluated after every executed event.
  bool RunUntilPredicate(const std::function<bool()>& pred);

  [[nodiscard]] bool Idle() const;

  /// Largest number of shards dispatched concurrently by any Run().
  [[nodiscard]] int max_parallel_shards() const { return max_parallel_shards_; }

  /// Full shard-local slot/generation/heap walk plus per-domain slot
  /// accounting (every heap record's domain must live on that shard; no live
  /// event behind its domain's clock). Driver thread, engine not running.
  void AuditInvariants() const;

 private:
  /// Events between consecutive per-shard audit walks (power of two).
  static constexpr std::uint64_t kAuditPeriod = 1024;

  /// A heap record: plain data only; the callback lives in the owning
  /// domain's slot array.
  struct Record {
    SimTime time;
    std::uint64_t seq;  ///< FIFO order within the record's domain
    DomainId domain;
    std::uint32_t slot;
    std::uint32_t gen;

    friend bool operator<(const Record& a, const Record& b) noexcept {
      return std::tie(a.time, a.seq, a.domain) < std::tie(b.time, b.seq, b.domain);
    }
  };
  struct Later {
    // Max-heap comparator inverted into a min-heap by (time, seq, domain).
    [[nodiscard]] bool operator()(const Record& a, const Record& b) const noexcept {
      return b < a;
    }
  };

  struct Slot {
    Engine::Callback fn;
    std::uint32_t gen = 0;
    bool live = false;
  };

  /// Per-domain lane: the Engine a cluster (or any other workload) binds to.
  class Lane final : public Engine {
   public:
    Lane(ShardedSimulator* engine, DomainId id) : engine_(engine), id_(id) {}

    [[nodiscard]] SimTime Now() const override { return engine_->domains_[id_]->now; }
    EventId ScheduleAt(SimTime t, Callback fn) override {
      return engine_->LaneScheduleAt(id_, t, std::move(fn));
    }
    EventId ScheduleAfter(SimDuration delay, Callback fn) override {
      HOPLITE_CHECK_GE(delay, 0);
      return engine_->LaneScheduleAt(id_, Now() + delay, std::move(fn));
    }
    bool Cancel(EventId id) override { return engine_->LaneCancel(id_, id); }
    void Run() override { engine_->Run(); }
    void RunUntil(SimTime deadline) override { engine_->RunUntil(deadline); }
    bool RunUntilPredicate(const std::function<bool()>& pred) override {
      return engine_->RunUntilPredicate(pred);
    }
    [[nodiscard]] bool Idle() const override { return engine_->Idle(); }
    [[nodiscard]] std::uint64_t executed_events() const override {
      return engine_->domains_[id_]->executed;
    }

   private:
    ShardedSimulator* engine_;
    DomainId id_;
  };

  struct Domain {
    Domain(ShardedSimulator* engine, DomainId domain_id, std::string domain_name,
           std::uint32_t home_shard)
        : name(std::move(domain_name)),
          id(domain_id),
          shard(home_shard),
          lane(engine, domain_id) {}

    std::string name;
    DomainId id;
    std::uint32_t shard;
    Lane lane;
    /// The domain's clock: the time of its running or last executed event,
    /// or the last RunUntil deadline if that is later.
    SimTime now = 0;
    /// Sequence number of the domain's next schedule.
    std::uint64_t next_seq = 0;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;
    /// Events of this domain executed so far.
    std::uint64_t executed = 0;
  };

  struct Shard {
    std::vector<Record> heap;
    std::size_t stale = 0;
    /// Dispatch assignment (driver-written before the epoch, worker-read).
    bool runnable = false;
  };

  /// The domain whose event is executing on this thread, if that event
  /// belongs to this engine. Set around every callback; scheduling and
  /// cancelling consult it to keep each domain confined to itself.
  struct ExecContext {
    const ShardedSimulator* engine = nullptr;
    DomainId domain = 0;
  };
  static thread_local ExecContext tls_ctx_;

  [[nodiscard]] const ExecContext* CurrentContext() const {
    return tls_ctx_.engine == this ? &tls_ctx_ : nullptr;
  }

  /// Checks that the caller may `what` (schedule / cancel) in domain `id`:
  /// from that domain's own callbacks, or from the driver while the engine
  /// is not running in parallel.
  void CheckConfined(DomainId id, const char* what) const;

  // Lane backends.
  EventId LaneScheduleAt(DomainId id, SimTime t, Engine::Callback fn);
  bool LaneCancel(DomainId id, EventId ev);

  /// Drops stale heads; returns the live head record or nullptr.
  const Record* PeekHead(Shard& shard) const;
  /// The shard holding the least live head by (time, seq, domain), or
  /// nullptr if the engine is drained. Driver thread, engine not running.
  Shard* FindGlobalHead();
  /// Executes the (live) head of `shard`. Caller owns the shard.
  void ExecuteHead(Shard& shard);
  /// Executes every event of `shard`. Caller owns the shard.
  void Drain(Shard& shard);
  /// Executes exactly one event — the least by (time, seq, domain) — on
  /// the caller thread. Returns false if the engine is drained.
  bool SequencedStep();

  void StartWorkers();
  void StopWorkers();
  void WorkerLoop(std::uint32_t shard_index);

  void AuditShard(const Shard& shard) const;

  // Domains are stable-addressed (lane pointers are handed out).
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<Shard> shards_;

  /// True while workers drain shards in parallel; guards the driver-context
  /// scheduling path against misuse from callbacks of a foreign engine
  /// running concurrently.
  bool parallel_run_ = false;

  int max_parallel_shards_ = 0;

  // Worker pool (lazily started the first time a Run() finds >= 2 non-empty
  // shards). All shared state below is accessed under pool_mu_; the
  // epoch/remaining handshake gives each parallel run its happens-before
  // edges.
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable work_cv_;   ///< driver -> workers: new epoch
  std::condition_variable done_cv_;   ///< workers -> driver: shard drained
  std::uint64_t epoch_ = 0;
  int remaining_ = 0;
  bool stopping_ = false;
};

}  // namespace hoplite::sim
