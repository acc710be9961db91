#include "cache/eviction_policy.h"

#include <iterator>
#include <list>

#include "common/det.h"
#include "common/logging.h"

namespace hoplite::cache {
namespace {

/// Resident queue node: the id, the byte size the store reported at insert
/// (so segmented policies can budget segments in bytes), and the stamp the
/// node took when it last reached its queue's front.
struct QueueEntry {
  ObjectID id;
  std::int64_t bytes = 0;
  std::uint64_t stamp = 0;
};

/// Ghost breadcrumb of a capacity eviction: remembered, never a victim.
struct GhostEntry {
  ObjectID id;
  std::int64_t bytes = 0;
};

using GhostQueue = std::list<GhostEntry>;

/// One policy queue plus an exact order over its evictable members. Every
/// queue gains entries only at its front (insert, touch, promotion,
/// demotion), each under a fresh stamp from the queue's own counter, so
/// list order is stamp order and the smallest evictable stamp is exactly
/// the entry a back-to-front scan for an evictable member would find.
class HOPLITE_DOMAIN_CONFINED StampedQueue {
 public:
  using iterator = std::list<QueueEntry>::iterator;

  /// New arrivals are not evictable.
  iterator PushFront(ObjectID id, std::int64_t bytes) {
    entries_.push_front(QueueEntry{id, bytes, next_stamp_++});
    return entries_.begin();
  }

  /// Moves `pos` from `from` (possibly this queue) to the front under a
  /// fresh stamp, carrying its evictability along. `pos` stays valid.
  void MoveToFront(StampedQueue& from, iterator pos) {
    const bool evictable = from.evictable_.erase(pos->stamp) > 0;
    pos->stamp = next_stamp_++;
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

/// The coldest evictable entry of `first`, else of `second`.
[[nodiscard]] std::optional<ObjectID> ColdestOf(const StampedQueue& first,
                                                const StampedQueue& second) {
  if (const auto victim = first.Coldest()) return victim;
  return second.Coldest();
}

/// What the two-queue policies share: each tracked id maps to the queue
/// holding it and its position there, so evictability flips and audit
/// queries go straight to that queue. LRU has one queue and indexes bare
/// positions: in stores full of pinned primaries, a queue pointer per entry
/// shows in peak RSS.
class HOPLITE_DOMAIN_CONFINED MultiQueuePolicy : public EvictionPolicy {
 public:
  void SetEvictable(ObjectID object, bool evictable) final {
    const Slot& slot = index_.at(object);
    slot.queue->SetEvictable(slot.pos, evictable);
  }

  [[nodiscard]] std::size_t size() const final { return index_.size(); }
  [[nodiscard]] bool Contains(ObjectID object) const final { return index_.contains(object); }

  [[nodiscard]] bool IsEvictable(ObjectID object) const final {
    const auto it = index_.find(object);
    return it != index_.end() && it->second.queue->IsEvictable(it->second.pos);
  }

 protected:
  struct Slot {
    StampedQueue* queue = nullptr;
    StampedQueue::iterator pos;
  };

  det::Map<ObjectID, Slot> index_;
};

/// Classic LRU. Byte-identical to the list LocalStore used to hard-wire:
/// inserts and touches go to the MRU front, the victim is the evictable
/// entry nearest the LRU back.
class HOPLITE_DOMAIN_CONFINED LruPolicy final : public EvictionPolicy {
 public:
  void OnInsert(ObjectID object, std::int64_t bytes) override {
    const auto [it, inserted] = index_.emplace(object, StampedQueue::iterator{});
    HOPLITE_CHECK(inserted) << "LruPolicy: duplicate insert of " << object;
    it->second = lru_.PushFront(object, bytes);
  }

  void OnTouch(ObjectID object) override { lru_.MoveToFront(lru_, index_.at(object)); }

  void OnRemove(ObjectID object, RemovalCause /*cause*/) override {
    const auto it = index_.find(object);
    HOPLITE_CHECK(it != index_.end()) << "LruPolicy: remove of untracked " << object;
    lru_.Erase(it->second);
    index_.erase(it);
  }

  void SetEvictable(ObjectID object, bool evictable) override {
    lru_.SetEvictable(index_.at(object), evictable);
  }

  [[nodiscard]] std::optional<ObjectID> PickVictim() const override { return lru_.Coldest(); }
  [[nodiscard]] std::size_t size() const override { return index_.size(); }

  [[nodiscard]] bool Contains(ObjectID object) const override {
    return index_.contains(object);
  }

  [[nodiscard]] bool IsEvictable(ObjectID object) const override {
    const auto it = index_.find(object);
    return it != index_.end() && lru_.IsEvictable(it->second);
  }

 private:
  StampedQueue lru_;  // front = MRU, back = LRU
  det::Map<ObjectID, StampedQueue::iterator> index_;
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
class HOPLITE_DOMAIN_CONFINED TwoQPolicy final : public MultiQueuePolicy {
 public:
  // A ghost is an id, not a payload: its budget is denominated in the bytes
  // of the objects it remembers, so 2x capacity of breadcrumbs costs almost
  // nothing while giving the hot set a long enough memory to be re-proven
  // after an A1in eviction (cap/2 forgets a zipf head faster than it
  // re-accesses under scan pressure).
  explicit TwoQPolicy(std::int64_t capacity_bytes)
      : a1in_target_bytes_(capacity_bytes / 4), ghost_budget_bytes_(capacity_bytes * 2) {}

  void OnInsert(ObjectID object, std::int64_t bytes) override {
    const auto [it, inserted] = index_.emplace(object, Slot{});
    HOPLITE_CHECK(inserted) << "TwoQPolicy: duplicate insert of " << object;
    if (const auto ghost = ghost_index_.find(object); ghost != ghost_index_.end()) {
      ghost_bytes_ -= ghost->second->bytes;
      ghost_.erase(ghost->second);
      ghost_index_.erase(ghost);
      it->second = Slot{&am_, am_.PushFront(object, bytes)};
    } else {
      a1in_bytes_ += bytes;
      it->second = Slot{&a1in_, a1in_.PushFront(object, bytes)};
    }
  }

  void OnTouch(ObjectID object) override {
    // A1in hits promote; Am hits refresh. Either way the entry goes to the
    // MRU end of Am.
    Slot& slot = index_.at(object);
    if (slot.queue == &a1in_) a1in_bytes_ -= slot.pos->bytes;
    am_.MoveToFront(*slot.queue, slot.pos);
    slot.queue = &am_;
  }

  void OnRemove(ObjectID object, RemovalCause cause) override {
    const auto it = index_.find(object);
    HOPLITE_CHECK(it != index_.end()) << "TwoQPolicy: remove of untracked " << object;
    const Slot slot = it->second;
    index_.erase(it);
    if (slot.queue == &a1in_) {
      a1in_bytes_ -= slot.pos->bytes;
      // Only capacity evictions earn a ghost: a deleted object must not be
      // mistaken for a reused one when its id is recreated later.
      if (cause == RemovalCause::kEvicted) {
        ghost_.push_front(GhostEntry{slot.pos->id, slot.pos->bytes});
        ghost_bytes_ += slot.pos->bytes;
        ghost_index_[slot.pos->id] = ghost_.begin();
        while (ghost_bytes_ > ghost_budget_bytes_ && !ghost_.empty()) {
          ghost_bytes_ -= ghost_.back().bytes;
          ghost_index_.erase(ghost_.back().id);
          ghost_.pop_back();
        }
      }
    }
    slot.queue->Erase(slot.pos);
  }

  [[nodiscard]] std::optional<ObjectID> PickVictim() const override {
    // Over the probationary target: drain A1in oldest-first. Otherwise the
    // main queue pays; each side falls back to the other so a pinned-heavy
    // queue never wedges the store.
    return a1in_bytes_ > a1in_target_bytes_ ? ColdestOf(a1in_, am_) : ColdestOf(am_, a1in_);
  }

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
class HOPLITE_DOMAIN_CONFINED SegmentedLruPolicy final : public MultiQueuePolicy {
 public:
  explicit SegmentedLruPolicy(std::int64_t capacity_bytes)
      : protected_target_bytes_(capacity_bytes / 5 * 4) {}

  void OnInsert(ObjectID object, std::int64_t bytes) override {
    const auto [it, inserted] = index_.emplace(object, Slot{});
    HOPLITE_CHECK(inserted) << "SegmentedLruPolicy: duplicate insert of " << object;
    it->second = Slot{&probation_, probation_.PushFront(object, bytes)};
  }

  void OnTouch(ObjectID object) override {
    Slot& slot = index_.at(object);
    if (slot.queue == &protected_) {
      protected_.MoveToFront(protected_, slot.pos);
      return;
    }
    // Promote, then demote the protected tail until the segment fits again:
    // demotion re-enters probation at the MRU end, so a demoted-but-hot
    // entry gets a full probation lifetime to earn its way back.
    protected_.MoveToFront(probation_, slot.pos);
    slot.queue = &protected_;
    protected_bytes_ += slot.pos->bytes;
    while (protected_bytes_ > protected_target_bytes_ && protected_.size() > 1) {
      const auto tail = protected_.Back();
      protected_bytes_ -= tail->bytes;
      probation_.MoveToFront(protected_, tail);
      index_.at(tail->id).queue = &probation_;
    }
  }

  void OnRemove(ObjectID object, RemovalCause /*cause*/) override {
    const auto it = index_.find(object);
    HOPLITE_CHECK(it != index_.end()) << "SegmentedLruPolicy: remove of untracked " << object;
    const Slot slot = it->second;
    index_.erase(it);
    if (slot.queue == &protected_) protected_bytes_ -= slot.pos->bytes;
    slot.queue->Erase(slot.pos);
  }

  [[nodiscard]] std::optional<ObjectID> PickVictim() const override {
    return ColdestOf(probation_, protected_);
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
