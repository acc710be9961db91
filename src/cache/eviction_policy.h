// Pluggable replacement policies for the local object store.
//
// LocalStore used to hard-wire one intrusive LRU list; this interface
// extracts the ordering decision so policies can be swapped per cluster
// (`CacheConfig::policy`) without touching the store's byte accounting or
// pin semantics. The store stays in charge of *whether* an entry may be
// evicted (complete, unreferenced, not a primary) and *when* eviction runs
// (over capacity); the policy only answers *which* evictable entry goes first.
//
// Contract:
//   * OnInsert / OnRemove bracket an entry's lifetime in the store; every
//     tracked entry, evictable or not, appears in exactly one policy queue,
//     so segment byte budgets count pinned primaries too.
//   * OnInsert returns the entry's queue node. The store keeps it beside
//     its own entry and passes it back to every later call about that
//     entry; the node stays valid, through moves between queues, until
//     OnRemove. The store's table is the only id -> entry index.
//   * Entries start non-evictable. The store reports each flip of an entry's
//     evictability through SetEvictable (on completion, Ref and Unref), and
//     each queue keeps an exact order over its evictable members.
//   * OnTouch records a use (a Get served from the local copy) and may
//     reorder or promote the entry.
//   * PickVictim returns the coldest evictable entry of the queue the
//     policy bills, falling back to its other queue, or nullopt when nothing
//     is evictable: one ordered-map read per queue consulted, however many
//     pinned entries sit at the cold end. It never mutates policy state: the
//     store confirms the eviction by calling OnRemove(victim's node, kEvicted).
//
// Every policy is deterministic by construction: ordering state lives in
// std::list queues (order fixed by the call sequence) and det:: containers
// — no hashing, no ambient state, no clocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>

#include "cache/cache_config.h"
#include "common/annotations.h"
#include "common/ids.h"

namespace hoplite::cache {

/// Why an entry left the store: policies that keep history (2Q's ghost
/// queue) only record entries the store *evicted*; explicit deletes and
/// failure cleanup must not leave promotion breadcrumbs behind.
enum class RemovalCause {
  kEvicted,  ///< store chose this entry via PickVictim to reclaim capacity
  kErased,   ///< deleted, purged, or torn down — not a capacity decision
};

class StampedQueue;

/// A tracked entry's queue node: the id, the byte size the store reported
/// at insert (so segmented policies can budget segments in bytes), the
/// stamp the node took when it last reached its queue's front, and the
/// queue that holds it now.
struct QueueEntry {
  ObjectID id;
  std::int64_t bytes = 0;
  std::uint64_t stamp = 0;
  StampedQueue* queue = nullptr;
};

/// Replacement-order oracle for one LocalStore. Confined like the store
/// that owns it: all calls arrive from the store's own domain.
class HOPLITE_DOMAIN_CONFINED EvictionPolicy {
 public:
  /// An entry's queue node, from OnInsert until OnRemove.
  using Handle = std::list<QueueEntry>::iterator;

  EvictionPolicy() = default;
  // Queue nodes record their queue's address, so a copy would point into
  // the original.
  EvictionPolicy(const EvictionPolicy&) = delete;
  EvictionPolicy& operator=(const EvictionPolicy&) = delete;
  virtual ~EvictionPolicy() = default;

  /// Starts tracking `object`, not evictable.
  [[nodiscard]] virtual Handle OnInsert(ObjectID object, std::int64_t bytes) = 0;
  virtual void OnTouch(Handle node) = 0;
  virtual void OnRemove(Handle node, RemovalCause cause) = 0;

  /// Records whether the store may evict the entry now. Idempotent.
  void SetEvictable(Handle node, bool evictable);
  /// True if the entry is marked evictable (store audits).
  [[nodiscard]] bool IsEvictable(Handle node) const;

  /// Coldest evictable entry in policy order, or nullopt.
  [[nodiscard]] virtual std::optional<ObjectID> PickVictim() const = 0;

  /// Number of tracked entries (store audits check it matches the table).
  [[nodiscard]] virtual std::size_t size() const = 0;
};

/// Constructs the policy selected by `kind`. `capacity_bytes` sizes the
/// internal segments of the multi-queue policies (2Q's probationary target
/// and ghost budget, SLRU's protected segment); plain LRU ignores it.
[[nodiscard]] std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                                 std::int64_t capacity_bytes);

}  // namespace hoplite::cache
