#include "sim/sharded_simulator.h"

#include <algorithm>
#include <utility>

namespace hoplite::sim {

thread_local ShardedSimulator::ExecContext ShardedSimulator::tls_ctx_;

ShardedSimulator::ShardedSimulator(Options options) {
  HOPLITE_CHECK_GE(options.shards, 1);
  HOPLITE_CHECK_LE(options.shards, 256) << "unreasonable shard count";
  shards_.resize(static_cast<std::size_t>(options.shards));
}

ShardedSimulator::~ShardedSimulator() { StopWorkers(); }

DomainId ShardedSimulator::AddDomain(std::string name) {
  HOPLITE_CHECK(!parallel_run_);
  const auto id = static_cast<DomainId>(domains_.size());
  const auto shard = static_cast<std::uint32_t>(id % shards_.size());
  domains_.push_back(std::make_unique<Domain>(this, id, std::move(name), shard));
  return id;
}

Engine& ShardedSimulator::domain(DomainId id) {
  HOPLITE_CHECK_LT(id, domains_.size());
  return domains_[id]->lane;
}

// ----------------------------------------------------------------------
// Lane backends.
// ----------------------------------------------------------------------

void ShardedSimulator::CheckConfined(DomainId id, const char* what) const {
  const ExecContext* ctx = CurrentContext();
  if (ctx == nullptr) {
    HOPLITE_CHECK(!parallel_run_) << "driver-context " << what << " during a parallel run";
    return;
  }
  HOPLITE_CHECK(ctx->domain == id)
      << "cross-domain " << what << " from '" << domains_[ctx->domain]->name << "' into '"
      << domains_[id]->name << "': the engine's domains are independent";
}

EventId ShardedSimulator::LaneScheduleAt(DomainId id, SimTime t, Engine::Callback fn) {
  HOPLITE_CHECK(fn != nullptr);
  CheckConfined(id, "schedule");
  Domain& dom = *domains_[id];
  HOPLITE_CHECK_GE(t, dom.now) << "cannot schedule into the past";
  std::uint32_t slot;
  if (dom.free_slots.empty()) {
    slot = static_cast<std::uint32_t>(dom.slots.size());
    dom.slots.emplace_back();
  } else {
    slot = dom.free_slots.back();
    dom.free_slots.pop_back();
  }
  Slot& s = dom.slots[slot];
  ++s.gen;  // gen 0 is reserved for the invalid handle; first use is gen 1
  s.live = true;
  s.fn = std::move(fn);
  Shard& shard = shards_[dom.shard];
  shard.heap.push_back(Record{t, dom.next_seq++, id, slot, s.gen});
  std::push_heap(shard.heap.begin(), shard.heap.end(), Later{});
  return EventId{slot, s.gen};
}

bool ShardedSimulator::LaneCancel(DomainId id, EventId ev) {
  CheckConfined(id, "cancel");
  Domain& dom = *domains_[id];
  if (!ev.IsValid() || ev.slot >= dom.slots.size()) return false;
  Slot& s = dom.slots[ev.slot];
  if (s.gen != ev.gen || !s.live) return false;  // fired, cancelled, or reused
  s.live = false;
  s.fn = nullptr;
  dom.free_slots.push_back(ev.slot);
  Shard& shard = shards_[dom.shard];
  ++shard.stale;
  if (shard.stale > shard.heap.size() / 2) {
    // Sweep: removing stale records never perturbs order (it is fully
    // determined by (time, seq, domain) of live records).
    auto is_stale = [this](const Record& rec) {
      const Slot& slot = domains_[rec.domain]->slots[rec.slot];
      return slot.gen != rec.gen || !slot.live;
    };
    shard.heap.erase(std::remove_if(shard.heap.begin(), shard.heap.end(), is_stale),
                     shard.heap.end());
    std::make_heap(shard.heap.begin(), shard.heap.end(), Later{});
    shard.stale = 0;
  }
  return true;
}

// ----------------------------------------------------------------------
// Execution core.
// ----------------------------------------------------------------------

const ShardedSimulator::Record* ShardedSimulator::PeekHead(Shard& shard) const {
  while (!shard.heap.empty()) {
    const Record& head = shard.heap.front();
    const Slot& s = domains_[head.domain]->slots[head.slot];
    if (s.gen == head.gen && s.live) return &head;
    std::pop_heap(shard.heap.begin(), shard.heap.end(), Later{});
    shard.heap.pop_back();
    --shard.stale;
  }
  return nullptr;
}

void ShardedSimulator::ExecuteHead(Shard& shard) {
  std::pop_heap(shard.heap.begin(), shard.heap.end(), Later{});
  const Record rec = shard.heap.back();
  shard.heap.pop_back();
  Domain& dom = *domains_[rec.domain];
  Slot& s = dom.slots[rec.slot];
  Engine::Callback fn = std::move(s.fn);
  s.live = false;
  s.fn = nullptr;
  dom.free_slots.push_back(rec.slot);
  HOPLITE_CHECK_GE(rec.time, dom.now);
  dom.now = rec.time;
  ++dom.executed;
  if constexpr (audit::kEnabled) {
    if ((dom.executed & (kAuditPeriod - 1)) == 0) AuditShard(shard);
  }
  const ExecContext saved = tls_ctx_;
  tls_ctx_ = ExecContext{this, rec.domain};
  fn();
  tls_ctx_ = saved;
}

void ShardedSimulator::Drain(Shard& shard) {
  while (PeekHead(shard) != nullptr) ExecuteHead(shard);
}

void ShardedSimulator::Run() {
  HOPLITE_CHECK(CurrentContext() == nullptr) << "Run() from inside an event callback";
  // No event crosses a shard, so a shard with no work now gets none while
  // the others drain: one dispatch drains the engine.
  int runnable_count = 0;
  Shard* sole_runnable = nullptr;
  for (Shard& shard : shards_) {
    shard.runnable = PeekHead(shard) != nullptr;
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
    parallel_run_ = true;
    remaining_ = runnable_count;
    ++epoch_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    parallel_run_ = false;
  }
  if constexpr (audit::kEnabled) AuditInvariants();
}

ShardedSimulator::Shard* ShardedSimulator::FindGlobalHead() {
  Shard* best = nullptr;
  const Record* best_head = nullptr;
  for (Shard& shard : shards_) {
    const Record* head = PeekHead(shard);
    if (head != nullptr && (best_head == nullptr || *head < *best_head)) {
      best = &shard;
      best_head = head;
    }
  }
  return best;
}

bool ShardedSimulator::SequencedStep() {
  Shard* best = FindGlobalHead();
  if (best == nullptr) return false;
  ExecuteHead(*best);
  return true;
}

void ShardedSimulator::RunUntil(SimTime deadline) {
  HOPLITE_CHECK(CurrentContext() == nullptr) << "RunUntil() from inside an event callback";
  for (Shard* best = FindGlobalHead(); best != nullptr && PeekHead(*best)->time <= deadline;
       best = FindGlobalHead()) {
    ExecuteHead(*best);
  }
  for (const std::unique_ptr<Domain>& dom : domains_) {
    dom->now = std::max(dom->now, deadline);
  }
}

bool ShardedSimulator::RunUntilPredicate(const std::function<bool()>& pred) {
  HOPLITE_CHECK(CurrentContext() == nullptr)
      << "RunUntilPredicate() from inside an event callback";
  if (pred()) return true;
  while (SequencedStep()) {
    if (pred()) return true;
  }
  return pred();
}

bool ShardedSimulator::Idle() const {
  for (const Shard& shard : shards_) {
    for (const Record& rec : shard.heap) {
      const Slot& s = domains_[rec.domain]->slots[rec.slot];
      if (s.gen == rec.gen && s.live) return false;
    }
  }
  return true;
}

// ----------------------------------------------------------------------
// Worker pool.
// ----------------------------------------------------------------------

void ShardedSimulator::StartWorkers() {
  if (!workers_.empty()) return;
  workers_.reserve(shards_.size());
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
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

void ShardedSimulator::WorkerLoop(std::uint32_t shard_index) {
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

// ----------------------------------------------------------------------
// Audits.
// ----------------------------------------------------------------------

void ShardedSimulator::AuditShard(const Shard& shard) const {
  std::size_t stale_records = 0;
  for (const Record& rec : shard.heap) {
    HOPLITE_AUDIT(rec.domain < domains_.size());
    const Domain& dom = *domains_[rec.domain];
    HOPLITE_AUDIT(&shards_[dom.shard] == &shard)
        << "heap record for domain '" << dom.name << "' on a foreign shard";
    const Slot& s = dom.slots[rec.slot];
    if (s.gen == rec.gen && s.live) {
      HOPLITE_AUDIT(rec.time >= dom.now)
          << "live event in domain '" << dom.name << "' slot " << rec.slot
          << " is behind the domain clock";
    } else {
      ++stale_records;
    }
  }
  HOPLITE_AUDIT(stale_records == shard.stale)
      << "(" << stale_records << " stale heap records vs counter " << shard.stale << ")";
}

void ShardedSimulator::AuditInvariants() const {
  for (const Shard& shard : shards_) AuditShard(shard);
  // Per-domain slot accounting: every live slot is referenced by exactly one
  // current-generation record on the domain's home shard; the free list
  // holds exactly the non-live slots, each once.
  for (const std::unique_ptr<Domain>& dom : domains_) {
    std::vector<std::uint32_t> live_refs(dom->slots.size(), 0);
    for (const Record& rec : shards_[dom->shard].heap) {
      if (rec.domain != dom->id) continue;
      const Slot& s = dom->slots[rec.slot];
      if (s.gen == rec.gen && s.live) ++live_refs[rec.slot];
    }
    std::size_t live_slots = 0;
    for (std::size_t i = 0; i < dom->slots.size(); ++i) {
      const std::uint32_t expected = dom->slots[i].live ? 1 : 0;
      if (dom->slots[i].live) ++live_slots;
      HOPLITE_AUDIT(live_refs[i] == expected)
          << "domain '" << dom->name << "' slot " << i << " has " << live_refs[i]
          << " live heap records";
    }
    HOPLITE_AUDIT(dom->free_slots.size() + live_slots == dom->slots.size())
        << "(" << dom->free_slots.size() << " free + " << live_slots << " live vs "
        << dom->slots.size() << " slots in domain '" << dom->name << "')";
    std::vector<bool> freed(dom->slots.size(), false);
    for (const std::uint32_t slot : dom->free_slots) {
      HOPLITE_AUDIT(slot < dom->slots.size());
      HOPLITE_AUDIT(!dom->slots[slot].live)
          << "live slot " << slot << " on domain '" << dom->name << "' free list";
      HOPLITE_AUDIT(!freed[slot]) << "slot " << slot << " freed twice";
      freed[slot] = true;
    }
  }
}

}  // namespace hoplite::sim
