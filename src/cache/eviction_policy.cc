#include "cache/eviction_policy.h"

#include <iterator>

#include "common/det.h"
#include "common/logging.h"

namespace hoplite::cache {

/// One policy queue plus an exact order over its evictable members. Every
/// queue gains entries only at its front (insert, touch, promotion,
/// demotion), each under a fresh stamp from the queue's own counter, so
/// list order is stamp order and the smallest evictable stamp is exactly
/// the entry a back-to-front scan for an evictable member would find.
class HOPLITE_DOMAIN_CONFINED StampedQueue {
 public:
  using iterator = EvictionPolicy::Handle;

  /// New arrivals are not evictable.
  iterator PushFront(ObjectID id, std::int64_t bytes) {
    entries_.push_front(QueueEntry{id, bytes, next_stamp_++, this});
    return entries_.begin();
  }

  /// Moves `pos` from the queue holding it (possibly this one) to the front
  /// under a fresh stamp, carrying its evictability along. `pos` stays valid.
  void MoveToFront(iterator pos) {
    StampedQueue& from = *pos->queue;
    const bool evictable = from.evictable_.erase(pos->stamp) > 0;
    pos->stamp = next_stamp_++;
    pos->queue = this;
    entries_.splice(entries_.begin(), from.entries_, pos);
    if (evictable) evictable_.emplace(pos->stamp, pos->id);
  }

  void Erase(iterator pos) {
    evictable_.erase(pos->stamp);
    entries_.erase(pos);
  }

  void SetEvictable(iterator pos, bool evictable) {
    if (evictable) {
      evictable_.emplace(pos->stamp, pos->id);
    } else {
      evictable_.erase(pos->stamp);
    }
  }

  [[nodiscard]] bool IsEvictable(iterator pos) const {
    return evictable_.contains(pos->stamp);
  }

  /// The evictable member nearest the back, or nullopt.
  [[nodiscard]] std::optional<ObjectID> Coldest() const {
    if (evictable_.empty()) return std::nullopt;
    return evictable_.begin()->second;
  }

  [[nodiscard]] iterator Back() { return std::prev(entries_.end()); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::list<QueueEntry> entries_;                // front = newest arrival
  det::Map<std::uint64_t, ObjectID> evictable_;  // stamp -> id, evictable members only
  std::uint64_t next_stamp_ = 0;
};

void EvictionPolicy::SetEvictable(Handle node, bool evictable) {
  node->queue->SetEvictable(node, evictable);
}

bool EvictionPolicy::IsEvictable(Handle node) const { return node->queue->IsEvictable(node); }

namespace {

/// Ghost breadcrumb of a capacity eviction: remembered, never a victim.
struct GhostEntry {
  ObjectID id;
  std::int64_t bytes = 0;
};

using GhostQueue = std::list<GhostEntry>;

/// The coldest evictable entry of `first`, else of `second`.
[[nodiscard]] std::optional<ObjectID> ColdestOf(const StampedQueue& first,
                                                const StampedQueue& second) {
  if (const auto victim = first.Coldest()) return victim;
  return second.Coldest();
}

/// Classic LRU. Byte-identical to the list LocalStore used to hard-wire:
/// inserts and touches go to the MRU front, the victim is the evictable
/// entry nearest the LRU back.
class HOPLITE_DOMAIN_CONFINED LruPolicy final : public EvictionPolicy {
 public:
  Handle OnInsert(ObjectID object, std::int64_t bytes) override {
    return lru_.PushFront(object, bytes);
  }

  void OnTouch(Handle node) override { lru_.MoveToFront(node); }
  void OnRemove(Handle node, RemovalCause /*cause*/) override { lru_.Erase(node); }
  [[nodiscard]] std::optional<ObjectID> PickVictim() const override { return lru_.Coldest(); }
  [[nodiscard]] std::size_t size() const override { return lru_.size(); }

 private:
  StampedQueue lru_;  // front = MRU, back = LRU
};

/// 2Q (after Johnson & Shasha). New entries enter a FIFO probationary
/// queue (A1in); entries evicted from it leave a ghost breadcrumb (A1out,
/// ids only); a re-insert that hits the ghost proves reuse and goes
/// straight to the LRU main queue (Am). One-hit-wonder tails flow through
/// A1in without ever displacing the hot set — the scan resistance plain
/// LRU lacks. Unlike the paper's correlated-reference rule, a hit inside
/// A1in promotes immediately: in a store whose re-reads arrive from
/// independent ops spread across nodes, a second access IS the reuse
/// proof, and deferring promotion until after an eviction forfeits a hit
/// per hot object for nothing.
class HOPLITE_DOMAIN_CONFINED TwoQPolicy final : public EvictionPolicy {
 public:
  // A ghost is an id, not a payload: its budget is denominated in the bytes
  // of the objects it remembers, so 2x capacity of breadcrumbs costs almost
  // nothing while giving the hot set a long enough memory to be re-proven
  // after an A1in eviction (cap/2 forgets a zipf head faster than it
  // re-accesses under scan pressure).
  explicit TwoQPolicy(std::int64_t capacity_bytes)
      : a1in_target_bytes_(capacity_bytes / 4), ghost_budget_bytes_(capacity_bytes * 2) {}

  Handle OnInsert(ObjectID object, std::int64_t bytes) override {
    if (const auto ghost = ghost_index_.find(object); ghost != ghost_index_.end()) {
      ghost_bytes_ -= ghost->second->bytes;
      ghost_.erase(ghost->second);
      ghost_index_.erase(ghost);
      return am_.PushFront(object, bytes);
    }
    a1in_bytes_ += bytes;
    return a1in_.PushFront(object, bytes);
  }

  void OnTouch(Handle node) override {
    // A1in hits promote; Am hits refresh. Either way the entry goes to the
    // MRU end of Am.
    if (node->queue == &a1in_) a1in_bytes_ -= node->bytes;
    am_.MoveToFront(node);
  }

  void OnRemove(Handle node, RemovalCause cause) override {
    if (node->queue == &a1in_) {
      a1in_bytes_ -= node->bytes;
      // Only capacity evictions earn a ghost: a deleted object must not be
      // mistaken for a reused one when its id is recreated later.
      if (cause == RemovalCause::kEvicted) {
        ghost_.push_front(GhostEntry{node->id, node->bytes});
        ghost_bytes_ += node->bytes;
        ghost_index_[node->id] = ghost_.begin();
        while (ghost_bytes_ > ghost_budget_bytes_ && !ghost_.empty()) {
          ghost_bytes_ -= ghost_.back().bytes;
          ghost_index_.erase(ghost_.back().id);
          ghost_.pop_back();
        }
      }
    }
    node->queue->Erase(node);
  }

  [[nodiscard]] std::optional<ObjectID> PickVictim() const override {
    // Over the probationary target: drain A1in oldest-first. Otherwise the
    // main queue pays; each side falls back to the other so a pinned-heavy
    // queue never wedges the store.
    return a1in_bytes_ > a1in_target_bytes_ ? ColdestOf(a1in_, am_) : ColdestOf(am_, a1in_);
  }

  [[nodiscard]] std::size_t size() const override { return a1in_.size() + am_.size(); }

 private:
  const std::int64_t a1in_target_bytes_;
  const std::int64_t ghost_budget_bytes_;
  StampedQueue a1in_;  // FIFO: front = newest, back = next out
  StampedQueue am_;    // LRU: front = MRU
  GhostQueue ghost_;   // A1out breadcrumbs of capacity-evicted probationers
  std::int64_t a1in_bytes_ = 0;
  std::int64_t ghost_bytes_ = 0;
  det::Map<ObjectID, GhostQueue::iterator> ghost_index_;
};

/// Segmented LRU. Entries start in a probationary segment; a second use
/// promotes into the protected segment (capped at 4/5 of capacity, demoting
/// its own LRU tail back to probation). Victims come from probation first,
/// so single-use tail objects cannot flush the proven hot set.
class HOPLITE_DOMAIN_CONFINED SegmentedLruPolicy final : public EvictionPolicy {
 public:
  explicit SegmentedLruPolicy(std::int64_t capacity_bytes)
      : protected_target_bytes_(capacity_bytes / 5 * 4) {}

  Handle OnInsert(ObjectID object, std::int64_t bytes) override {
    return probation_.PushFront(object, bytes);
  }

  void OnTouch(Handle node) override {
    if (node->queue == &protected_) {
      protected_.MoveToFront(node);
      return;
    }
    // Promote, then demote the protected tail until the segment fits again:
    // demotion re-enters probation at the MRU end, so a demoted-but-hot
    // entry gets a full probation lifetime to earn its way back.
    protected_.MoveToFront(node);
    protected_bytes_ += node->bytes;
    while (protected_bytes_ > protected_target_bytes_ && protected_.size() > 1) {
      const Handle tail = protected_.Back();
      protected_bytes_ -= tail->bytes;
      probation_.MoveToFront(tail);
    }
  }

  void OnRemove(Handle node, RemovalCause /*cause*/) override {
    if (node->queue == &protected_) protected_bytes_ -= node->bytes;
    node->queue->Erase(node);
  }

  [[nodiscard]] std::optional<ObjectID> PickVictim() const override {
    return ColdestOf(probation_, protected_);
  }

  [[nodiscard]] std::size_t size() const override {
    return probation_.size() + protected_.size();
  }

 private:
  const std::int64_t protected_target_bytes_;
  StampedQueue probation_;  // front = MRU
  StampedQueue protected_;  // front = MRU
  std::int64_t protected_bytes_ = 0;
};

}  // namespace

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                   std::int64_t capacity_bytes) {
  switch (kind) {
    case EvictionPolicyKind::kLru: return std::make_unique<LruPolicy>();
    case EvictionPolicyKind::kTwoQ: return std::make_unique<TwoQPolicy>(capacity_bytes);
    case EvictionPolicyKind::kSegmentedLru:
      return std::make_unique<SegmentedLruPolicy>(capacity_bytes);
  }
  HOPLITE_CHECK(false) << "unknown eviction policy";
  return nullptr;
}

}  // namespace hoplite::cache
