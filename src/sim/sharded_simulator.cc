#include "sim/sharded_simulator.h"

#include <algorithm>

#include "common/audit.h"
#include "common/logging.h"

namespace hoplite::sim {

ShardedSimulator::ShardedSimulator(Options options) {
  HOPLITE_CHECK_GE(options.shards, 1);
  HOPLITE_CHECK_LE(options.shards, 256) << "unreasonable shard count";
  shards_.resize(static_cast<std::size_t>(options.shards));
}

ShardedSimulator::~ShardedSimulator() { StopWorkers(); }

Simulator& ShardedSimulator::AddDomain() {
  HOPLITE_CHECK(Simulator::Running() == nullptr)
      << "AddDomain() from inside an event callback";
  Simulator& domain = *domains_.emplace_back(std::make_unique<Simulator>());
  shards_[(domains_.size() - 1) % shards_.size()].domains.push_back(&domain);
  return domain;
}

bool ShardedSimulator::HasWork(const Shard& shard) {
  return std::any_of(shard.domains.begin(), shard.domains.end(),
                     [](const Simulator* domain) { return !domain->Idle(); });
}

void ShardedSimulator::Drain(Shard& shard) {
  for (Simulator* domain : shard.domains) domain->Run();
}

void ShardedSimulator::Run() {
  HOPLITE_CHECK(Simulator::Running() == nullptr) << "Run() from inside an event callback";
  // No event crosses a shard, so a shard with no work now gets none while
  // the others drain: one dispatch drains the engine.
  int runnable_count = 0;
  Shard* sole_runnable = nullptr;
  for (Shard& shard : shards_) {
    shard.runnable = HasWork(shard);
    if (shard.runnable) {
      sole_runnable = &shard;
      ++runnable_count;
    }
  }
  max_parallel_shards_ = std::max(max_parallel_shards_, runnable_count);
  if (runnable_count == 1) {
    // Inline fast path: no worker handoff. A single-domain engine executes
    // its entire run here, on the caller thread.
    Drain(*sole_runnable);
  } else if (runnable_count > 1) {
    StartWorkers();
    std::unique_lock<std::mutex> lock(pool_mu_);
    remaining_ = runnable_count;
    ++epoch_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
  }
  if constexpr (audit::kEnabled) AuditInvariants();
}

bool ShardedSimulator::Idle() const {
  return std::none_of(shards_.begin(), shards_.end(), HasWork);
}

void ShardedSimulator::AuditInvariants() const {
  for (const std::unique_ptr<Simulator>& domain : domains_) domain->AuditInvariants();
}

// ----------------------------------------------------------------------
// Worker pool.
// ----------------------------------------------------------------------

void ShardedSimulator::StartWorkers() {
  if (!workers_.empty()) return;
  workers_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
}

void ShardedSimulator::StopWorkers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    stopping_ = true;
    ++epoch_;
    work_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
}

void ShardedSimulator::WorkerLoop(std::size_t shard_index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      work_cv_.wait(lock, [&] { return epoch_ != seen_epoch; });
      seen_epoch = epoch_;
      if (stopping_) return;
      if (!shards_[shard_index].runnable) continue;
    }
    // The mutex handshake above orders the driver's dispatch-time writes
    // before this run's reads; the shard and its domains are exclusively
    // ours until we report done.
    Drain(shards_[shard_index]);
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      shards_[shard_index].runnable = false;
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace hoplite::sim
