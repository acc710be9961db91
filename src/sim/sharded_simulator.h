// Parallel driver for independent reference engines.
//
// The engine owns a set of *domains* — each one a reference sim::Simulator,
// an independent event stream — placed round-robin on a fixed number of
// *shards*. Run() drains every shard that has work: inline on the caller
// thread when only one shard has work, on a worker pool (one thread per
// shard) otherwise.
//
// Domains are independent by contract: a callback may schedule into and
// cancel in its own domain only, which every Simulator checks itself. So no
// event ever crosses a shard, and Run() hands every non-empty shard to a
// worker once and waits for all of them to drain; there is nothing to
// synchronize in between. A domain is a Simulator, so it executes in exactly
// the reference (time, seq) order at any shard count.
//
// Threading model (TSan-clean by construction):
//   * a domain is touched only by its shard's worker during a parallel
//     Run(), or only by the driver thread otherwise; the dispatch/done
//     handoff is a mutex+condvar epoch handshake, so all accesses are
//     ordered by happens-before;
//   * if at most one shard has work it drains inline on the driver thread —
//     a single-domain workload never spawns a thread at all.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace hoplite::sim {

class ShardedSimulator {
 public:
  struct Options {
    /// Number of event-loop shards (>= 1). Domains are placed round-robin.
    /// shards == 1 never spawns a thread.
    int shards = 1;
  };

  explicit ShardedSimulator(Options options);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;
  ~ShardedSimulator();

  /// Creates a new domain on the next shard (round-robin). The reference
  /// stays valid for the engine's lifetime; its driver methods (Run /
  /// RunUntil / RunUntilPredicate) drive that domain alone. Driver thread,
  /// engine not running.
  Simulator& AddDomain();

  /// Drains every domain: inline when one shard has work, on the worker
  /// pool (one thread per non-empty shard) otherwise.
  void Run();

  /// Whether no domain has a live event pending.
  [[nodiscard]] bool Idle() const;

  /// Largest number of shards dispatched concurrently by any Run().
  [[nodiscard]] int max_parallel_shards() const { return max_parallel_shards_; }

  /// Every domain's slot/generation/heap walk. Driver thread, engine not
  /// running.
  void AuditInvariants() const;

 private:
  struct Shard {
    std::vector<Simulator*> domains;
    /// Dispatch assignment (driver-written before the epoch, worker-read).
    bool runnable = false;
  };

  [[nodiscard]] static bool HasWork(const Shard& shard);
  /// Runs every domain of `shard` dry. Caller owns the shard.
  static void Drain(Shard& shard);

  void StartWorkers();
  void StopWorkers();
  void WorkerLoop(std::size_t shard_index);

  // Domains are stable-addressed (references are handed out).
  std::vector<std::unique_ptr<Simulator>> domains_;
  std::vector<Shard> shards_;

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
